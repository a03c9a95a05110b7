"""Tests for the CIM core (Fig 4b): analog VMM and scouting logic."""

import numpy as np
import pytest

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.devices.variability import VariabilityStack
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


def _costs(scope):
    """Per-category costs a telemetry scope captured."""
    return RunReport.from_counters(scope.counters).categories


@pytest.fixture
def core():
    return CIMCore(CIMCoreParams(rows=32, logical_cols=16), rng=0)


@pytest.fixture
def programmed_core(core, rng):
    w = rng.uniform(-1, 1, (32, 16))
    core.program_weights(w)
    return core, w


class TestVMM:
    def test_requires_programming_first(self, core):
        with pytest.raises(RuntimeError, match="program_weights"):
            core.vmm(np.zeros(32))

    def test_accuracy_within_adc_resolution(self, programmed_core, rng):
        core, w = programmed_core
        x = rng.uniform(0, 1, 32)
        y = core.vmm(x, noisy=False)
        reference = core.vmm_reference(x, w)
        assert np.max(np.abs(y - reference)) < 0.15
        assert np.corrcoef(y, reference)[0, 1] > 0.999

    def test_higher_adc_resolution_improves_accuracy(self, rng):
        w = rng.uniform(-1, 1, (32, 16))
        x = rng.uniform(0, 1, 32)
        errors = {}
        for bits in (4, 8, 12):
            core = CIMCore(
                CIMCoreParams(rows=32, logical_cols=16, adc_bits=bits), rng=1
            )
            core.program_weights(w)
            y = core.vmm(x, noisy=False)
            errors[bits] = np.max(np.abs(y - x @ w))
        assert errors[12] < errors[8] < errors[4]

    def test_weight_shape_validated(self, core):
        with pytest.raises(ValueError, match="shape"):
            core.program_weights(np.zeros((4, 4)))

    def test_input_shape_validated(self, programmed_core):
        core, _ = programmed_core
        with pytest.raises(ValueError):
            core.vmm(np.zeros(31))

    def test_costs_accumulate_per_category(self, core, rng):
        with telemetry.scoped() as scope:
            core.program_weights(rng.uniform(-1, 1, (32, 16)))
            core.vmm(rng.uniform(0, 1, 32))
        categories = set(_costs(scope))
        assert {"programming", "dac", "array", "adc"}.issubset(categories)

    def test_adc_energy_dominates_analog_path(self, programmed_core, rng):
        """Fig 5's power story shows up in the per-op accounting too."""
        core, _ = programmed_core
        with telemetry.scoped() as scope:
            for _ in range(10):
                core.vmm(rng.uniform(0, 1, 32))
        costs = _costs(scope)
        adc = costs["adc"]["energy"]
        dac = costs["dac"]["energy"]
        array = costs["array"]["energy"]
        assert adc > dac + array


class TestScoutingLogic:
    """CIM-P bulk bitwise operations ([20], [21])."""

    @pytest.fixture
    def logic_core(self):
        core = CIMCore(CIMCoreParams(rows=8, logical_cols=8), rng=3)
        return core

    def test_or_and_xor_match_numpy(self, logic_core, rng):
        a = rng.integers(0, 2, logic_core.array.cols)
        b = rng.integers(0, 2, logic_core.array.cols)
        logic_core.write_bit_row(0, a)
        logic_core.write_bit_row(1, b)
        assert np.array_equal(logic_core.scouting_or([0, 1]), a | b)
        assert np.array_equal(logic_core.scouting_and([0, 1]), a & b)
        assert np.array_equal(logic_core.scouting_xor([0, 1]), a ^ b)

    def test_three_way_or_and(self, logic_core, rng):
        rows_bits = [rng.integers(0, 2, logic_core.array.cols) for _ in range(3)]
        for i, bits in enumerate(rows_bits):
            logic_core.write_bit_row(i, bits)
        expected_or = rows_bits[0] | rows_bits[1] | rows_bits[2]
        expected_and = rows_bits[0] & rows_bits[1] & rows_bits[2]
        assert np.array_equal(logic_core.scouting_or([0, 1, 2]), expected_or)
        assert np.array_equal(logic_core.scouting_and([0, 1, 2]), expected_and)

    def test_xor_arity_enforced(self, logic_core):
        with pytest.raises(ValueError):
            logic_core.scouting_xor([0, 1, 2])

    def test_or_arity_enforced(self, logic_core):
        with pytest.raises(ValueError):
            logic_core.scouting_or([0])


class TestIRDropOption:
    def test_wire_resistance_degrades_accuracy(self, rng):
        """The circuit-accurate mode quantifies what ideal wires hide."""
        w = rng.uniform(-1, 1, (32, 16))
        x = rng.uniform(0, 1, 32)
        ideal = CIMCore(CIMCoreParams(rows=32, logical_cols=16), rng=11)
        ideal.program_weights(w)
        parasitic = CIMCore(
            CIMCoreParams(rows=32, logical_cols=16, wire_resistance=5.0),
            rng=11,
        )
        parasitic.program_weights(w)
        err_ideal = np.abs(ideal.vmm(x, noisy=False) - x @ w).max()
        err_parasitic = np.abs(parasitic.vmm(x, noisy=False) - x @ w).max()
        assert err_parasitic > err_ideal

    def test_zero_wire_resistance_is_ideal_path(self, rng):
        core = CIMCore(CIMCoreParams(rows=16, logical_cols=8), rng=12)
        assert core._ir_solver is None

    def test_negative_wire_resistance_rejected(self):
        with pytest.raises(ValueError):
            CIMCoreParams(wire_resistance=-1.0)


class TestVariabilityImpact:
    def test_noisy_core_less_accurate(self, rng):
        w = rng.uniform(-1, 1, (32, 16))
        x = rng.uniform(0, 1, 32)
        clean = CIMCore(CIMCoreParams(rows=32, logical_cols=16), rng=5)
        clean.program_weights(w)
        noisy = CIMCore(
            CIMCoreParams(rows=32, logical_cols=16),
            variability=VariabilityStack.typical(),
            rng=5,
        )
        noisy.program_weights(w)
        err_clean = np.abs(clean.vmm(x, noisy=False) - x @ w).max()
        errs = [
            np.abs(noisy.vmm(x, noisy=True) - x @ w).max() for _ in range(5)
        ]
        assert np.mean(errs) > err_clean


class TestWriteBitRow:
    """Regression suite for the write_bit_row accounting fix: the write
    must be charged as programming cost and must not disturb other rows."""

    @pytest.fixture
    def logic_core(self):
        return CIMCore(CIMCoreParams(rows=8, logical_cols=8), rng=3)

    def test_charges_programming_cost(self, logic_core):
        with telemetry.scoped() as scope:
            logic_core.write_bit_row(
                0, np.ones(logic_core.array.cols, dtype=int)
            )
        programming = _costs(scope)["programming"]
        assert programming["energy"] > 0
        assert programming["latency"] > 0

    def test_untouched_rows_bit_identical(self, logic_core):
        rng = np.random.default_rng(0)
        for r in range(4):
            logic_core.write_bit_row(r, rng.integers(0, 2, logic_core.array.cols))
        g_before = logic_core.array.conductances()
        logic_core.write_bit_row(5, rng.integers(0, 2, logic_core.array.cols))
        g_after = logic_core.array.conductances()
        untouched = [r for r in range(logic_core.array.rows) if r != 5]
        assert np.array_equal(g_before[untouched], g_after[untouched])

    def test_write_count_only_on_written_row(self, logic_core):
        logic_core.write_bit_row(2, np.ones(logic_core.array.cols, dtype=int))
        counts = logic_core.array.write_counts()
        assert counts[2].min() >= 1
        assert counts[[0, 1, 3]].max() == 0

    def test_scouting_charges_driver_and_decoder(self, logic_core):
        rng = np.random.default_rng(1)
        logic_core.write_bit_row(0, rng.integers(0, 2, logic_core.array.cols))
        logic_core.write_bit_row(1, rng.integers(0, 2, logic_core.array.cols))
        with telemetry.scoped() as scope:
            logic_core.scouting_or([0, 1])
        categories = _costs(scope)
        assert categories["driver"]["energy"] > 0
        assert categories["decoder"]["energy"] > 0

    def test_vmm_batch_charges_driver(self):
        core = CIMCore(CIMCoreParams(rows=16, logical_cols=8), rng=0)
        rng = np.random.default_rng(0)
        core.program_weights(rng.uniform(-1, 1, (16, 8)))
        with telemetry.scoped() as scope:
            core.vmm_batch(rng.uniform(0, 1, (4, 16)), noisy=False)
        assert _costs(scope)["driver"]["energy"] > 0
