"""Conservation invariants of the run reports.

Whatever a machine model spends must appear — exactly once — in its
report: the per-category sums equal the accumulator totals, and every
fraction family lies in [0, 1] and sums to 1.  These tests pin that for
all three instrumented machines (CIMCore, VonNeumannMachine,
CIMAccelerator).
"""

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorParams, CIMAccelerator
from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.metrics import OperationCost
from repro.core.vonneumann import VonNeumannMachine
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


def _assert_conserved(report, costs_total):
    assert report.total_energy == pytest.approx(costs_total.energy, rel=1e-12)
    assert report.total_latency == pytest.approx(costs_total.latency, rel=1e-12)
    assert report.total_data_moved == pytest.approx(
        costs_total.data_moved, rel=1e-12
    )
    report.validate()
    for fractions in (
        report.energy_fractions(),
        report.latency_fractions(),
        report.area_fractions(),
    ):
        for value in fractions.values():
            assert 0.0 <= value <= 1.0
        if fractions and sum(fractions.values()) > 0:
            assert sum(fractions.values()) == pytest.approx(1.0)


class TestCIMCoreConservation:
    @pytest.fixture()
    def core(self):
        core = CIMCore(CIMCoreParams(rows=24, logical_cols=8), rng=0)
        gen = np.random.default_rng(1)
        core.program_weights(gen.uniform(-1, 1, (24, 8)))
        core.vmm_batch(gen.uniform(0, 1, (4, 24)), noisy=False)
        core.write_bit_row(0, gen.integers(0, 2, core.array.cols))
        core.scouting_or([0, 1])
        return core

    def test_category_sums_equal_total(self, core):
        _assert_conserved(core.report(), core.costs.total)

    def test_driver_and_decoder_accounted(self, core):
        categories = set(core.report().categories)
        assert {"programming", "dac", "array", "adc", "driver",
                "decoder"}.issubset(categories)
        assert core.report().categories["driver"]["energy"] > 0

    def test_side_counters_present(self, core):
        counters = core.side_counters()
        assert counters["crossbar.read_ops"] > 0
        assert counters["driver.activations"] > 0
        assert counters["sense_amp.compares"] > 0

    def test_area_breakdown_positive(self, core):
        area = core.area_breakdown()
        assert set(area) == {"adc", "dac", "driver", "sense_amp", "crossbar"}
        assert all(v > 0 for v in area.values())


class TestVonNeumannConservation:
    def test_category_sums_equal_total(self):
        machine = VonNeumannMachine()
        gen = np.random.default_rng(0)
        machine.run_workload(
            gen.uniform(0, 1, (6, 16)), gen.uniform(-1, 1, (16, 4))
        )
        report = machine.report()
        _assert_conserved(report, machine.costs.total)
        assert report.counters["vonneumann.vmm_calls"] == 6.0
        assert report.counters["vonneumann.macs"] == 6.0 * 16 * 4


class TestAcceleratorConservation:
    def test_reduced_report_matches_total_costs(self):
        """The report reduced over the tiles' accumulators conserves
        against every charge the telemetry scope saw."""
        gen = np.random.default_rng(0)
        with telemetry.scoped() as scope:
            accel = CIMAccelerator(
                gen.uniform(-1, 1, (40, 20)),
                params=AcceleratorParams(tile_rows=16, tile_cols=8),
                rng=0,
            )
            accel.vmm_batch(gen.uniform(0, 1, (3, 40)), noisy=False)
        charged = RunReport.from_counters(scope.counters)
        report = accel.report()
        _assert_conserved(
            report,
            OperationCost(
                charged.total_energy,
                charged.total_latency,
                charged.total_data_moved,
            ),
        )

    def test_report_is_sum_of_tile_reports(self):
        gen = np.random.default_rng(2)
        accel = CIMAccelerator(
            gen.uniform(-1, 1, (20, 10)),
            params=AcceleratorParams(tile_rows=10, tile_cols=5),
            rng=0,
        )
        accel.vmm(gen.uniform(0, 1, 20), noisy=False)
        per_tile = sum(
            core.costs.total.energy
            for tile_row in accel.tiles
            for core in tile_row
        )
        assert accel.report().total_energy == pytest.approx(per_tile, rel=1e-12)
