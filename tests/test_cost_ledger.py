"""Tests for the one cost ledger: every charge is booked once, through the
energy model's booking helper, into the current telemetry scope, and every
breakdown is a :class:`RunReport` read of a scope."""

import numpy as np
import pytest

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.costs.models import StaticEnergyModel
from repro.utils import telemetry
from repro.utils.telemetry import RunReport

book = StaticEnergyModel()._book


def report_of(scope):
    return RunReport.from_counters(scope.counters)


class TestLedger:
    def test_categories_tracked(self):
        with telemetry.scoped() as scope:
            book("adc", 3.0, 0.0)
            book("dac", 1.0, 0.0)
            book("adc", 2.0, 0.0)
        r = report_of(scope)
        assert r.total_energy == 6.0
        assert r.categories["adc"]["energy"] == 5.0

    def test_energy_fraction(self):
        with telemetry.scoped() as scope:
            book("adc", 3.0, 0.0)
            book("dac", 1.0, 0.0)
        fractions = report_of(scope).energy_fractions()
        assert fractions["adc"] == pytest.approx(0.75)
        assert fractions.get("missing", 0.0) == 0.0

    def test_latency_fraction(self):
        with telemetry.scoped() as scope:
            book("adc", 0.0, 1.0)
            book("dac", 0.0, 3.0)
        assert report_of(scope).latency_fractions()["dac"] == pytest.approx(
            0.75
        )

    def test_movement_fraction(self):
        with telemetry.scoped() as scope:
            book("bus", 0.0, 0.0, 10.0)
            book("link", 0.0, 0.0, 30.0)
        r = report_of(scope)
        assert r.movement_fractions()["link"] == pytest.approx(0.75)
        # A zero total gives zero shares, not a division error.
        assert r.energy_fractions() == {"bus": 0.0, "link": 0.0}

    def test_empty_scope_reads_as_empty_report(self):
        with telemetry.scoped() as scope:
            pass
        r = report_of(scope)
        assert r.categories == {}
        assert r.total_energy == 0.0
        assert r.energy_fractions() == {}
        assert r.movement_fractions() == {}

    def test_report_is_a_snapshot(self):
        """Regression (ported from the per-object ledger's tests): a
        report read before a later charge does not change with it."""
        with telemetry.scoped() as scope:
            book("adc", 1.0, 2.0, 3.0)
            r = report_of(scope)
            book("adc", 1e9, 1e9)
        assert r.categories["adc"] == {
            "energy": 1.0, "latency": 2.0, "data_moved": 3.0,
        }
        assert report_of(scope).total_energy == 1e9 + 1.0

    def test_rejected_charge_books_nothing(self):
        with telemetry.scoped() as scope:
            with pytest.raises(ValueError, match="energy"):
                book("adc", -1.0, 1.0)
            with pytest.raises(ValueError, match="data_moved"):
                book("bus", 1.0, 1.0, -8.0)
        assert scope.counters == {}

    def test_categories_sorted_plain(self):
        with telemetry.scoped() as scope:
            book("dac", 1.0, 0.0)
            book("adc", 0.0, 2.0)
        categories = report_of(scope).categories
        assert list(categories) == ["adc", "dac"]
        assert categories["dac"] == {
            "energy": 1.0, "latency": 0.0, "data_moved": 0.0,
        }


class TestPerObjectReads:
    def test_sibling_nested_scopes_split_one_ledger(self):
        """Two cores run in sibling nested scopes: each reads its own
        charges, and the enclosing scope holds their sum, booked once."""

        def run(core, seed):
            rng = np.random.default_rng(seed)
            core.program_weights(rng.uniform(-1.0, 1.0, size=(8, 4)))
            core.vmm_batch(rng.uniform(0.0, 1.0, size=(3, 8)), noisy=False)

        cores = [
            CIMCore(
                CIMCoreParams(rows=8, logical_cols=4),
                rng=np.random.default_rng(i),
            )
            for i in range(2)
        ]
        with telemetry.scoped() as outer:
            parts = []
            for i, core in enumerate(cores):
                with telemetry.nested() as scope:
                    run(core, seed=10 + i)
                parts.append(
                    RunReport.from_counters(
                        scope.counters, area=core.area_breakdown()
                    )
                )
        for part in parts:
            assert part.total_energy > 0.0
            assert part.total_area > 0.0
            part.validate()
        whole = report_of(outer)
        assert set(whole.categories) == set(parts[0].categories)
        for category, entry in whole.categories.items():
            for key, value in entry.items():
                assert value == pytest.approx(
                    sum(p.categories[category][key] for p in parts),
                    rel=1e-12,
                )
