"""Tests for the fault injector."""

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.faults.defects import Defect, DefectType
from repro.faults.endurance import EnduranceModel, EnduranceSimulator
from repro.faults.injection import FaultInjector, FaultMap, yield_to_fault_rate
from repro.faults.models import Fault, FaultType
from repro.utils import telemetry


def _array(seed=0, n=32):
    array = CrossbarArray(CrossbarConfig(rows=n, cols=n), rng=seed)
    array.program(np.full((n, n), 5e-5))
    return array


class TestYieldConversion:
    def test_complement(self):
        assert yield_to_fault_rate(0.8) == pytest.approx(0.2)
        assert yield_to_fault_rate(1.0) == 0.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            yield_to_fault_rate(1.1)


class TestFaultMap:
    def test_distinct_cells(self):
        fm = FaultMap(shape=(4, 4))
        fm.add(Fault(FaultType.STUCK_AT_0, 0, 0))
        fm.add(Fault(FaultType.STUCK_AT_1, 0, 0))
        fm.add(Fault(FaultType.STUCK_AT_0, 1, 1))
        assert fm.count == 3
        assert len(fm.cells()) == 2
        assert fm.fault_rate == pytest.approx(2 / 16)

    def test_mask(self):
        fm = FaultMap(shape=(2, 2))
        fm.add(Fault(FaultType.STUCK_AT_0, 1, 0))
        mask = fm.mask()
        assert mask[1, 0] and mask.sum() == 1

    def test_by_type_grouping(self):
        fm = FaultMap(shape=(4, 4))
        fm.add(Fault(FaultType.STUCK_AT_0, 0, 0))
        fm.add(Fault(FaultType.STUCK_AT_1, 1, 1))
        groups = fm.by_type()
        assert len(groups[FaultType.STUCK_AT_0]) == 1

    def test_out_of_bounds_rejected(self):
        fm = FaultMap(shape=(2, 2))
        with pytest.raises(ValueError):
            fm.add(Fault(FaultType.STUCK_AT_0, 2, 0))


class TestInjection:
    def test_sa0_pins_gmin(self):
        array = _array()
        injector = FaultInjector(array, rng=1)
        injector.inject_fault(Fault(FaultType.STUCK_AT_0, 3, 4))
        assert array.conductances()[3, 4] == array.config.levels.g_min

    def test_sa1_pins_gmax(self):
        array = _array()
        injector = FaultInjector(array, rng=1)
        injector.inject_fault(Fault(FaultType.STUCK_AT_1, 3, 4))
        assert array.conductances()[3, 4] == array.config.levels.g_max

    def test_rate_population(self):
        array = _array(n=64)
        injector = FaultInjector(array, rng=2)
        fm = injector.inject_stuck_at(0.1)
        assert fm.fault_rate == pytest.approx(0.1, abs=0.03)

    def test_yield_population(self):
        array = _array(n=64)
        injector = FaultInjector(array, rng=3)
        fm = injector.inject_for_yield(0.8)
        assert fm.fault_rate == pytest.approx(0.2, abs=0.04)

    def test_sa1_fraction_split(self):
        array = _array(n=64)
        injector = FaultInjector(array, rng=4)
        fm = injector.inject_stuck_at(0.2, sa1_fraction=1.0)
        groups = fm.by_type()
        assert FaultType.STUCK_AT_0 not in groups
        assert FaultType.STUCK_AT_1 in groups

    def test_exact_count(self):
        array = _array()
        injector = FaultInjector(array, rng=5)
        fm = injector.inject_exact_count(17)
        assert len(fm.cells()) == 17
        assert array.fault_count() == 17

    def test_exact_count_bounds(self):
        array = _array(n=4)
        injector = FaultInjector(array, rng=5)
        with pytest.raises(ValueError):
            injector.inject_exact_count(17)

    def test_defect_injection_expands_lines(self):
        array = _array(n=8)
        injector = FaultInjector(array, rng=6)
        injector.inject_defects([Defect(DefectType.BROKEN_WORDLINE, 2, -1)])
        assert array.fault_count() == 8
        assert np.all(
            array.conductances()[2] == array.config.levels.g_max
        )

    def test_fabrication_variation_shifts_but_not_sticks(self):
        array = _array()
        injector = FaultInjector(array, rng=7)
        g0 = array.conductances()[1, 1]
        injector.inject_fault(Fault(FaultType.FABRICATION_VARIATION, 1, 1))
        assert array.conductances()[1, 1] != pytest.approx(g0)
        assert array.fault_count() == 0  # soft fault, cell not pinned


# ---------------------------------------------------------------------------
# Bulk injection against the per-cell loop it replaced
# ---------------------------------------------------------------------------


def _pin_one(injector, fault):
    """One hard fault, cell by cell: pin, record, count."""
    array = injector.array
    levels = array.config.levels
    if fault.fault_type is FaultType.STUCK_AT_0:
        array.stick_cell(fault.row, fault.col, levels.g_min)
    elif fault.fault_type in (FaultType.STUCK_AT_1, FaultType.OVER_FORMING):
        array.stick_cell(fault.row, fault.col, levels.g_max)
    else:
        g = array.conductances()[fault.row, fault.col]
        midpoint = 0.5 * (levels.g_min + levels.g_max)
        extreme = levels.g_max if g >= midpoint else levels.g_min
        array.stick_cell(fault.row, fault.col, extreme)
    injector.fault_map.add(fault)
    telemetry.current().incr("faults.injected_cells")


def _per_cell_stuck_at(injector, fault_rate, sa1_fraction):
    rows, cols = injector.array.shape
    hit = injector._rng.random((rows, cols)) < fault_rate
    for r, c in zip(*np.nonzero(hit)):
        is_sa1 = injector._rng.random() < sa1_fraction
        fault_type = FaultType.STUCK_AT_1 if is_sa1 else FaultType.STUCK_AT_0
        _pin_one(injector, Fault(fault_type, int(r), int(c)))


def _per_cell_exact_count(injector, count, fault_type):
    rows, cols = injector.array.shape
    flat = injector._rng.choice(rows * cols, size=count, replace=False)
    for idx in flat:
        _pin_one(injector, Fault(fault_type, int(idx // cols), int(idx % cols)))


def _per_cell_advance(sim, writes):
    before = sim._writes < sim._lifetimes
    sim._writes += writes
    now_dead = (sim._writes >= sim._lifetimes) & before
    now_dead &= ~sim.array._stuck_mask
    new_faults = []
    for r, c in zip(*np.nonzero(now_dead)):
        fault = Fault(FaultType.ENDURANCE_WEAROUT, int(r), int(c))
        _pin_one(sim.injector, fault)
        new_faults.append(fault)
    return new_faults


def _outcome(injector, scope):
    """Everything an injection leaves behind."""
    array = injector.array
    return (
        list(injector.fault_map.faults),
        array.stuck_mask.tolist(),
        array.conductances().tolist(),
        injector._rng.bit_generator.state,
        dict(scope.counters),
    )


def _injected(seed, inject, n=24):
    array = CrossbarArray(CrossbarConfig(rows=n, cols=n - 5), rng=seed)
    array.program(
        np.random.default_rng(seed).uniform(1e-6, 1e-4, size=(n, n - 5))
    )
    injector = FaultInjector(array, rng=seed)
    with telemetry.scoped() as scope:
        inject(injector)
    return _outcome(injector, scope)


class TestBulkInjectionMatchesPerCellLoop:
    """The bulk paths leave the same faults, stuck cells, generator state
    and counters as injecting one cell at a time."""

    @pytest.mark.parametrize("sa1_fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("fault_rate", [0.0, 0.01, 0.5, 1.0])
    def test_stuck_at(self, fault_rate, sa1_fraction):
        for seed in range(3):
            bulk = _injected(
                seed, lambda inj: inj.inject_stuck_at(fault_rate, sa1_fraction)
            )
            ref = _injected(
                seed, lambda inj: _per_cell_stuck_at(inj, fault_rate, sa1_fraction)
            )
            assert bulk == ref
        if fault_rate == 0.0:
            assert "faults.injected_cells" not in bulk[-1]

    @pytest.mark.parametrize(
        "fault_type",
        [FaultType.STUCK_AT_0, FaultType.STUCK_AT_1, FaultType.OVER_FORMING,
         FaultType.ENDURANCE_WEAROUT],
    )
    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_exact_count(self, fault_type, count):
        bulk = _injected(4, lambda inj: inj.inject_exact_count(count, fault_type))
        ref = _injected(4, lambda inj: _per_cell_exact_count(inj, count, fault_type))
        assert bulk == ref

    def test_soft_exact_count_still_goes_cell_by_cell(self):
        bulk = _injected(
            2, lambda inj: inj.inject_exact_count(6, FaultType.FABRICATION_VARIATION)
        )
        assert len(bulk[0]) == 6 and not any(map(any, bulk[1]))
        assert bulk[-1]["faults.injected_cells"] == 6

    def test_inject_cells_rejects_a_soft_fault_type(self):
        injector = FaultInjector(_array(n=4), rng=0)
        with pytest.raises(ValueError, match="does not pin"):
            injector.inject_cells(
                FaultType.READ_DISTURB, np.array([0]), np.array([1])
            )

    def test_endurance_wear(self, monkeypatch):
        def run(per_cell):
            array = CrossbarArray(CrossbarConfig(rows=16, cols=12), rng=3)
            array.program(
                np.random.default_rng(3).uniform(1e-6, 1e-4, size=(16, 12))
            )
            sim = EnduranceSimulator(
                array, EnduranceModel(characteristic_life=5e4), rng=3
            )
            if per_cell:
                monkeypatch.setattr(
                    sim, "_advance", lambda w: _per_cell_advance(sim, w)
                )
            with telemetry.scoped() as scope:
                series = sim.run_until(4e4, 4e3)
                worn = sim.wear(
                    np.random.default_rng(4).integers(0, 20000, size=(16, 12))
                )
            return series, worn, _outcome(sim.injector, scope)

        bulk = run(per_cell=False)
        assert bulk[0][-1]["dead_cells"] > 0 and bulk[1]
        assert bulk == run(per_cell=True)
