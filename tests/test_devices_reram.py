"""Tests for the multilevel ReRAM cell."""

import numpy as np
import pytest

from repro.devices.reram import (
    CellError,
    ConductanceLevels,
    ReRAMCell,
    ReRAMCellParams,
)
from repro.devices.variability import (
    DriftModel,
    ReadNoiseModel,
    VariabilityStack,
    WriteVariationModel,
)


class TestConductanceLevels:
    def test_targets_span_range(self):
        levels = ConductanceLevels(g_min=1e-6, g_max=1e-4, n_levels=4)
        targets = levels.targets()
        assert targets[0] == pytest.approx(1e-6)
        assert targets[-1] == pytest.approx(1e-4)
        assert len(targets) == 4

    def test_quantize_round_trip(self):
        levels = ConductanceLevels(n_levels=8)
        for level in range(8):
            assert levels.quantize(levels.target(level)) == level

    def test_quantize_clips(self):
        levels = ConductanceLevels(n_levels=4)
        assert levels.quantize(0.0) == 0
        assert levels.quantize(1.0) == 3

    def test_noise_margin_accepts_nearby(self):
        levels = ConductanceLevels(n_levels=4, noise_margin_fraction=0.3)
        g = levels.target(1) + 0.2 * levels.spacing
        assert levels.in_noise_margin(g, 1)

    def test_guard_band_between_levels(self):
        levels = ConductanceLevels(n_levels=4, noise_margin_fraction=0.3)
        midpoint = 0.5 * (levels.target(0) + levels.target(1))
        assert levels.in_guard_band(midpoint)
        assert not levels.in_guard_band(levels.target(2))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ConductanceLevels(g_min=1e-4, g_max=1e-6)
        with pytest.raises(ValueError):
            ConductanceLevels(n_levels=1)
        with pytest.raises(ValueError):
            ConductanceLevels(noise_margin_fraction=0.6)

    def test_level_bounds_checked(self):
        levels = ConductanceLevels(n_levels=4)
        with pytest.raises(ValueError):
            levels.target(4)


class TestReRAMCellLifecycle:
    def test_pristine_cell_rejects_operations(self):
        cell = ReRAMCell(rng=0)
        with pytest.raises(CellError):
            cell.program(0)
        with pytest.raises(CellError):
            cell.read()

    def test_forming_enables_cell(self):
        cell = ReRAMCell(rng=0)
        cell.form()
        assert cell.formed
        # Forming leaves the cell in the LRS.
        top = cell.params.levels.n_levels - 1
        assert cell.read_level() == top

    def test_double_forming_rejected(self):
        cell = ReRAMCell(rng=0)
        cell.form()
        with pytest.raises(CellError):
            cell.form()

    def test_over_forming_sticks_cell(self):
        params = ReRAMCellParams(over_forming_probability=1.0)
        cell = ReRAMCell(params, rng=0)
        cell.form()
        assert cell.stuck
        assert cell.stuck_level == params.levels.n_levels - 1

    def test_program_and_read_each_level(self):
        cell = ReRAMCell(rng=0)
        cell.form()
        for level in range(cell.params.levels.n_levels):
            cell.program(level)
            assert cell.read_level() == level

    def test_program_counts_writes(self):
        cell = ReRAMCell(rng=0)
        cell.form()
        cell.program(0)
        cell.program(1)
        assert cell.write_count == 2
        assert cell.writes_remaining == cell.params.endurance - 2


class TestReRAMCellVariability:
    def test_write_variation_spreads_conductance(self, rng):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.1),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.0),
        )
        landed = []
        for seed in range(30):
            cell = ReRAMCell(variability=stack, rng=seed)
            cell.form()
            landed.append(cell.program(1))
        assert np.std(landed) > 0

    def test_program_with_verify_converges(self):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.1),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.0),
        )
        cell = ReRAMCell(variability=stack, rng=3)
        cell.form()
        pulses = cell.program_with_verify(1, max_iterations=20)
        assert pulses >= 1
        assert cell.params.levels.in_noise_margin(cell.conductance, 1)

    def test_drift_relaxes_conductance(self):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.0),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.05),
        )
        cell = ReRAMCell(variability=stack, rng=0)
        cell.form()
        cell.program(1)
        g0 = cell.conductance
        cell.relax(1000.0)
        assert cell.conductance < g0


class TestEnduranceWearout:
    def test_exceeding_endurance_sticks_cell(self):
        params = ReRAMCellParams(endurance=5)
        cell = ReRAMCell(params, rng=0)
        cell.form()
        for _ in range(6):
            cell.program(1)
        assert cell.stuck

    def test_worn_cell_sticks_at_extreme(self):
        """Wear-out pins the cell at level 0 or level max — the paper's
        observation that stuck cells take extreme values."""
        params = ReRAMCellParams(endurance=3)
        cell = ReRAMCell(params, rng=0)
        cell.form()
        for _ in range(5):
            cell.program(1)
        assert cell.stuck_level in (0, params.levels.n_levels - 1)

    def test_stuck_cell_ignores_programming(self):
        cell = ReRAMCell(rng=0)
        cell.force_stuck(0)
        g = cell.conductance
        cell.program(cell.params.levels.n_levels - 1)
        assert cell.conductance == g


class TestParamsValidation:
    def test_reset_must_be_negative(self):
        with pytest.raises(ValueError, match="reset_voltage"):
            ReRAMCellParams(reset_voltage=1.0)

    def test_read_below_set(self):
        with pytest.raises(ValueError, match="read_voltage"):
            ReRAMCellParams(set_voltage=1.0, read_voltage=1.5)

    def test_endurance_positive(self):
        with pytest.raises(ValueError, match="endurance"):
            ReRAMCellParams(endurance=0)


class TestWriteVerifyBackends:
    """program_with_verify must be bit-equal to the private stepped
    reference (``_program_with_verify_stepped``) — pulse count, landed conductance, write counter, wear-out,
    and the generator state afterwards."""

    @staticmethod
    def _noisy_cell(seed, **params_kw):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.12),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.0),
        )
        cell = ReRAMCell(
            params=ReRAMCellParams(**params_kw) if params_kw else None,
            variability=stack,
            rng=seed,
        )
        cell.form()
        return cell

    def test_bit_equal_including_rng_state(self):
        for seed in range(12):
            ref = self._noisy_cell(seed)
            fast = self._noisy_cell(seed)
            p_ref = ref._program_with_verify_stepped(1, max_iterations=20)
            p_fast = fast.program_with_verify(1, max_iterations=20)
            assert p_fast == p_ref
            assert fast.conductance == ref.conductance
            assert fast.write_count == ref.write_count
            # Generator state: the next draw must coincide exactly.
            assert fast._rng.random() == ref._rng.random()

    def test_auto_is_default_and_matches_scalar(self):
        ref = self._noisy_cell(5)
        auto = self._noisy_cell(5)
        p_ref = ref._program_with_verify_stepped(0, max_iterations=8)
        p_auto = auto.program_with_verify(0, max_iterations=8)
        assert p_auto == p_ref
        assert auto.conductance == ref.conductance

    def test_multilevel_targets_bit_equal(self):
        levels = ConductanceLevels(n_levels=8)
        for level in (0, 3, 7):
            ref = self._noisy_cell(2, levels=levels)
            fast = self._noisy_cell(2, levels=levels)
            assert fast.program_with_verify(
                level, max_iterations=16
            ) == ref._program_with_verify_stepped(level, max_iterations=16)
            assert fast.conductance == ref.conductance

    #: Both write-verify paths, as unbound methods.
    PATHS = (
        ReRAMCell._program_with_verify_stepped,
        ReRAMCell.program_with_verify,
    )

    def test_wear_out_path_bit_equal(self):
        outcomes = []
        for path in self.PATHS:
            cell = self._noisy_cell(1, endurance=3)
            pulses = path(cell, 1, max_iterations=10)
            outcomes.append(
                (pulses, cell.stuck, cell.conductance, cell.write_count)
            )
        assert outcomes[0] == outcomes[1]

    def test_stuck_cell_single_pulse(self):
        for path in self.PATHS:
            cell = self._noisy_cell(0)
            cell.force_stuck(0)
            assert path(cell, 1) == 1
            assert cell.stuck

    def test_unformed_cell_rejected(self):
        stack = VariabilityStack.ideal()
        for path in self.PATHS:
            cell = ReRAMCell(variability=stack, rng=0)
            with pytest.raises(CellError, match="formed"):
                path(cell, 1)

    def test_bad_level_rejected(self):
        for path in self.PATHS:
            with pytest.raises(ValueError, match="level"):
                path(self._noisy_cell(0), 99)
