"""Tests for cost accounting."""

import pytest

from repro.core.metrics import CostAccumulator, OperationCost


class TestOperationCost:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OperationCost(energy=-1)
        with pytest.raises(ValueError, match="latency"):
            CostAccumulator().add("adc", latency=-1.0)


class TestCostAccumulator:
    def test_categories_tracked(self):
        acc = CostAccumulator()
        acc.add("adc", energy=3.0)
        acc.add("dac", energy=1.0)
        acc.add("adc", energy=2.0)
        assert acc.total.energy == 6.0
        assert acc.by_category["adc"].energy == 5.0

    def test_energy_fraction(self):
        acc = CostAccumulator()
        acc.add("adc", energy=3.0)
        acc.add("dac", energy=1.0)
        assert acc.energy_fraction("adc") == pytest.approx(0.75)
        assert acc.energy_fraction("missing") == 0.0

    def test_empty_fractions(self):
        acc = CostAccumulator()
        assert acc.energy_fraction("adc") == 0.0
        assert acc.movement_fraction("bus") == 0.0

    def test_movement_fraction(self):
        acc = CostAccumulator()
        acc.add("bus", data_moved=10)
        acc.add("link", data_moved=30)
        assert acc.movement_fraction("link") == pytest.approx(0.75)

    def test_latency_fraction(self):
        acc = CostAccumulator()
        acc.add("adc", latency=1.0)
        acc.add("dac", latency=3.0)
        assert acc.latency_fraction("dac") == pytest.approx(0.75)
        assert acc.latency_fraction("missing") == 0.0

    def test_add_does_not_alias_argument(self):
        """Regression: ``total`` and ``by_category`` are snapshots — a
        value read before a later ``add`` must not change with it."""
        acc = CostAccumulator()
        acc.add("adc", energy=1.0, latency=2.0, data_moved=3.0)
        total = acc.total
        adc = acc.by_category["adc"]
        acc.add("adc", energy=1e9, latency=1e9)
        assert (total.energy, total.latency, total.data_moved) == (1.0, 2.0, 3.0)
        assert (adc.energy, adc.latency) == (1.0, 2.0)
        assert acc.total.energy == 1e9 + 1.0

    def test_rejected_charge_books_nothing(self):
        acc = CostAccumulator()
        with pytest.raises(ValueError, match="energy"):
            acc.add("adc", energy=-1.0, latency=1.0)
        assert acc.total.latency == 0.0
        assert acc.by_category == {}

    def test_as_dict_sorted_plain(self):
        acc = CostAccumulator()
        acc.add("dac", energy=1.0)
        acc.add("adc", latency=2.0)
        d = acc.as_dict()
        assert list(d) == ["adc", "dac"]
        assert d["dac"] == {"energy": 1.0, "latency": 0.0, "data_moved": 0.0}
