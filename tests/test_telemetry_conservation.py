"""Conservation invariants of the run reports.

Whatever a machine model spends must appear — exactly once — in the
report of the scope it ran in: the per-category sums equal the charges
the energy model booked, and every fraction family lies in [0, 1] and
sums to 1.  These tests pin that for all three instrumented machines
(CIMCore, VonNeumannMachine, CIMAccelerator).
"""

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorParams, CIMAccelerator
from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.vonneumann import VonNeumannMachine
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


def _assert_conserved(report, booked):
    """``booked`` is the ``booked`` fixture's log of every charge."""
    energy = sum(charge[1] for charge in booked)
    latency = sum(charge[2] for charge in booked)
    moved = sum(charge[3] for charge in booked if len(charge) > 3)
    assert report.total_energy == pytest.approx(energy, rel=1e-12)
    assert report.total_latency == pytest.approx(latency, rel=1e-12)
    assert report.total_data_moved == pytest.approx(moved, rel=1e-12)
    assert set(report.categories) == {charge[0] for charge in booked}
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
    def run(self, booked):
        """A core's run and the report of the scope it ran in."""
        with telemetry.scoped() as scope:
            core = CIMCore(CIMCoreParams(rows=24, logical_cols=8), rng=0)
            gen = np.random.default_rng(1)
            core.program_weights(gen.uniform(-1, 1, (24, 8)))
            core.vmm_batch(gen.uniform(0, 1, (4, 24)), noisy=False)
            core.write_bit_row(0, gen.integers(0, 2, core.array.cols))
            core.scouting_or([0, 1])
        report = RunReport.from_counters(
            scope.counters, area=core.area_breakdown()
        )
        return core, report

    def test_category_sums_equal_total(self, run, booked):
        _assert_conserved(run[1], booked)

    def test_driver_and_decoder_accounted(self, run):
        categories = run[1].categories
        assert {"programming", "dac", "array", "adc", "driver",
                "decoder"}.issubset(categories)
        assert categories["driver"]["energy"] > 0

    def test_side_counters_present(self, run):
        counters = run[1].counters
        assert counters["crossbar.read_ops"] > 0
        assert counters["driver.activations"] > 0
        assert counters["sense_amp.compares"] > 0

    def test_area_breakdown_positive(self, run):
        area = run[0].area_breakdown()
        assert set(area) == {"adc", "dac", "driver", "sense_amp", "crossbar"}
        assert all(v > 0 for v in area.values())


class TestVonNeumannConservation:
    def test_category_sums_equal_total(self, booked):
        machine = VonNeumannMachine()
        gen = np.random.default_rng(0)
        with telemetry.scoped() as scope:
            machine.run_workload(
                gen.uniform(0, 1, (6, 16)), gen.uniform(-1, 1, (16, 4))
            )
        report = RunReport.from_counters(scope.counters)
        _assert_conserved(report, booked)
        assert report.counters["vonneumann.vmm_calls"] == 6.0
        assert report.counters["vonneumann.macs"] == 6.0 * 16 * 4


class TestAcceleratorConservation:
    def test_reduced_report_matches_total_costs(self, booked):
        """The scope's report conserves against every charge booked while
        the accelerator was built and read."""
        gen = np.random.default_rng(0)
        with telemetry.scoped() as scope:
            accel = CIMAccelerator(
                gen.uniform(-1, 1, (40, 20)),
                params=AcceleratorParams(tile_rows=16, tile_cols=8),
                rng=0,
            )
            accel.vmm_batch(gen.uniform(0, 1, (3, 40)), noisy=False)
        _assert_conserved(RunReport.from_counters(scope.counters), booked)

    def test_report_is_sum_of_tile_reports(self):
        """The accelerator's scope holds the sum of its tiles' own
        scopes: each tile read again, alone, charges its share."""
        gen = np.random.default_rng(2)
        accel = CIMAccelerator(
            gen.uniform(-1, 1, (20, 10)),
            params=AcceleratorParams(tile_rows=10, tile_cols=5),
            rng=0,
        )
        x = gen.uniform(0, 1, 20)
        with telemetry.scoped() as scope:
            accel.vmm(x, noisy=False)
        per_tile = 0.0
        for bi, tile_row in enumerate(accel.tiles):
            for core in tile_row:
                with telemetry.scoped() as tile:
                    core.vmm_batch(x[None, bi * 10:(bi + 1) * 10], noisy=False)
                per_tile += RunReport.from_counters(tile.counters).total_energy
        total = RunReport.from_counters(scope.counters).total_energy
        assert total == pytest.approx(per_tile, rel=1e-12)
