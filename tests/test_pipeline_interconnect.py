"""Tests for the inter-tile transfer model (repro.pipeline.interconnect)."""

import pytest

from repro.pipeline import Interconnect, InterconnectParams
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


class TestInterconnect:
    def test_latency_is_setup_plus_serialization(self):
        ic = Interconnect(
            InterconnectParams(
                bandwidth=1e9, hop_latency=1e-6, bytes_per_value=2
            )
        )
        assert ic.transfer_latency(500) == pytest.approx(1e-6 + 1000 / 1e9)

    def test_transfer_charges_costs(self):
        ic = Interconnect()
        with telemetry.scoped() as scope:
            lat = ic.transfer(100)
        assert lat > 0
        entry = RunReport.from_counters(scope.counters).categories[
            "interconnect"
        ]
        assert entry["energy"] == pytest.approx(
            200 * ic.params.energy_per_byte
        )
        assert entry["latency"] == lat
        assert entry["data_moved"] == 200
        assert scope.counters["pipeline.transfers"] == 1
        assert scope.counters["pipeline.transfer.bytes"] == 200

    def test_multi_hop_scales(self):
        ic = Interconnect()
        with telemetry.scoped() as one:
            one_hop = ic.transfer(64, hops=1)
        with telemetry.scoped() as two:
            two_hops = ic.transfer(64, hops=2)
        assert two_hops == pytest.approx(2 * one_hop)
        assert two.counters["pipeline.transfer.bytes"] == (
            2 * one.counters["pipeline.transfer.bytes"]
        )

    def test_zero_values_is_free(self):
        ic = Interconnect()
        with telemetry.scoped() as scope:
            assert ic.transfer(0) == 0.0
        assert scope.counters == {}

    def test_negative_rejected(self):
        ic = Interconnect()
        with pytest.raises(ValueError, match="n_values"):
            ic.transfer(-1)
        with pytest.raises(ValueError, match="hops"):
            ic.transfer(1, hops=0)

    def test_telemetry_side_counters(self):
        ic = Interconnect()
        with telemetry.scoped() as scope:
            ic.transfer(100)
        counters = scope.snapshot(include_timers=False)["counters"]
        assert counters["pipeline.transfer.bytes"] == 200
        assert counters["pipeline.transfers"] == 1
        # The energy is booked as a cost counter in the same scope.
        assert counters["cost.energy.interconnect"] == pytest.approx(
            200 * ic.params.energy_per_byte
        )

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            InterconnectParams(bandwidth=0)
        with pytest.raises(ValueError):
            InterconnectParams(bytes_per_value=0)
