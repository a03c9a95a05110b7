"""Tests for the crossbar array model (Fig 4)."""

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.devices.variability import (
    DriftModel,
    ReadNoiseModel,
    VariabilityStack,
    WriteVariationModel,
)


class TestConfig:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            CrossbarConfig(rows=0, cols=8)

    def test_rejects_negative_wire_resistance(self):
        with pytest.raises(ValueError):
            CrossbarConfig(wire_resistance=-1)


class TestProgramming:
    def test_ideal_program_is_exact(self):
        xbar = CrossbarArray(CrossbarConfig(rows=4, cols=4), rng=0)
        targets = np.full((4, 4), 3e-5)
        xbar.program(targets)
        assert np.allclose(xbar.conductances(), targets)

    def test_shape_mismatch_rejected(self):
        xbar = CrossbarArray(CrossbarConfig(rows=4, cols=4), rng=0)
        with pytest.raises(ValueError, match="shape"):
            xbar.program(np.zeros((3, 4)))

    def test_negative_targets_rejected(self):
        xbar = CrossbarArray(CrossbarConfig(rows=2, cols=2), rng=0)
        with pytest.raises(ValueError, match="non-negative"):
            xbar.program(np.full((2, 2), -1e-5))

    def test_write_verify_reduces_error(self):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.1),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.0),
        )
        targets = np.full((16, 16), 5e-5)
        one_shot = CrossbarArray(
            CrossbarConfig(rows=16, cols=16), variability=stack, rng=1
        )
        one_shot.program(targets)
        err_one = np.abs(one_shot.conductances() - targets).mean()

        verified = CrossbarArray(
            CrossbarConfig(rows=16, cols=16), variability=stack, rng=1
        )
        iterations = verified.program_with_verify(targets, tolerance=0.02)
        err_verified = np.abs(verified.conductances() - targets).mean()
        assert iterations > 1
        assert err_verified < err_one

    def test_write_counts_tracked(self):
        xbar = CrossbarArray(CrossbarConfig(rows=2, cols=2), rng=0)
        xbar.program(np.full((2, 2), 1e-5))
        xbar.program(np.full((2, 2), 2e-5))
        assert np.all(xbar.write_counts() == 2)


class TestVMM:
    def test_matches_matrix_product(self):
        xbar = CrossbarArray(CrossbarConfig(rows=8, cols=4), rng=0)
        g = np.random.default_rng(0).uniform(1e-6, 1e-4, (8, 4))
        xbar.program(g)
        v = np.random.default_rng(1).uniform(0, 0.2, 8)
        assert np.allclose(xbar.vmm(v), v @ g)

    def test_all_columns_computed_in_one_operation(self):
        """All n MACs complete in a single analog step (O(1) claim)."""
        xbar = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=0)
        xbar.program(np.full((8, 8), 5e-5))
        before = xbar.read_operations
        xbar.vmm(np.full(8, 0.2))
        assert xbar.read_operations == before + 1

    def test_vector_shape_validated(self):
        xbar = CrossbarArray(CrossbarConfig(rows=8, cols=4), rng=0)
        xbar.program(np.full((8, 4), 1e-5))
        with pytest.raises(ValueError, match="shape"):
            xbar.vmm(np.zeros(7))

    def test_batch_vmm(self):
        xbar = CrossbarArray(CrossbarConfig(rows=4, cols=3), rng=0)
        g = np.random.default_rng(2).uniform(1e-6, 1e-4, (4, 3))
        xbar.program(g)
        batch = np.random.default_rng(3).uniform(0, 0.2, (5, 4))
        assert np.allclose(xbar.mvm_batch(batch), batch @ g)

    def test_noisy_vmm_counts_one_read(self):
        """Regression: noisy=True used to double-count (read_conductances
        incremented once, then vmm incremented again)."""
        xbar = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=0)
        xbar.program(np.full((8, 8), 5e-5))
        before = xbar.read_operations
        xbar.vmm(np.full(8, 0.2), noisy=True)
        assert xbar.read_operations == before + 1

    def test_noisy_batch_counts_one_read_per_vector(self):
        xbar = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=0)
        xbar.program(np.full((8, 8), 5e-5))
        before = xbar.read_operations
        xbar.mvm_batch(np.full((5, 8), 0.2), noisy=True)
        assert xbar.read_operations == before + 5

    def test_read_conductances_counts_one_read(self):
        xbar = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=0)
        before = xbar.read_operations
        xbar.read_conductances()
        assert xbar.read_operations == before + 1

    def test_noisy_and_clean_vmm_count_equally(self):
        a = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=0)
        b = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=0)
        a.program(np.full((8, 8), 5e-5))
        b.program(np.full((8, 8), 5e-5))
        v = np.full(8, 0.2)
        a.vmm(v, noisy=False)
        b.vmm(v, noisy=True)
        assert a.read_operations == b.read_operations

    def test_noisy_vmm_differs_but_close(self):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.0),
            read=ReadNoiseModel(sigma=0.02),
            drift=DriftModel(nu=0.0),
        )
        xbar = CrossbarArray(
            CrossbarConfig(rows=16, cols=8), variability=stack, rng=4
        )
        g = np.full((16, 8), 5e-5)
        xbar.program(g)
        v = np.full(16, 0.2)
        ideal = v @ g
        noisy = xbar.vmm(v, noisy=True)
        assert not np.allclose(noisy, ideal)
        assert np.allclose(noisy, ideal, rtol=0.05)


class TestFaultOverlay:
    def test_stuck_cell_overrides_programming(self, small_array):
        small_array.stick_cell(2, 3, 1e-6)
        small_array.program(np.full((8, 8), 5e-5))
        assert small_array.conductances()[2, 3] == 1e-6
        assert small_array.healthy_conductances()[2, 3] == pytest.approx(5e-5)

    def test_release_restores_programmed_value(self, small_array):
        small_array.stick_cell(1, 1, 1e-6)
        small_array.release_cell(1, 1)
        assert small_array.conductances()[1, 1] == pytest.approx(5e-5)

    def test_fault_count(self, small_array):
        small_array.stick_cell(0, 0, 1e-6)
        small_array.stick_cell(7, 7, 1e-4)
        assert small_array.fault_count() == 2

    def test_out_of_bounds_rejected(self, small_array):
        with pytest.raises(IndexError):
            small_array.stick_cell(8, 0, 1e-6)

    def test_stick_cells_pins_every_cell(self, small_array):
        small_array.stick_cells(np.array([0, 3, 7]), np.array([1, 3, 0]),
                                np.array([1e-6, 2e-6, 1e-4]))
        g = small_array.conductances()
        assert (g[0, 1], g[3, 3], g[7, 0]) == (1e-6, 2e-6, 1e-4)
        assert small_array.fault_count() == 3

    @pytest.mark.parametrize(
        "rows, cols, values, error",
        [
            ([0, 8], [0, 0], [1e-6, 1e-6], IndexError),
            ([0, 1], [0, -1], [1e-6, 1e-6], IndexError),
            ([0, 1], [0, 1], [1e-6, 0.0], ValueError),
            ([0, 1], [0, 1], [float("nan"), 1e-6], ValueError),
        ],
    )
    def test_stick_cells_checks_before_pinning(self, small_array, rows,
                                               cols, values, error):
        with pytest.raises(error):
            small_array.stick_cells(rows, cols, values)
        assert small_array.fault_count() == 0

    def test_stuck_cell_changes_vmm(self, small_array):
        v = np.full(8, 0.2)
        before = small_array.vmm(v).copy()
        small_array.stick_cell(0, 0, 1e-6)
        after = small_array.vmm(v)
        assert after[0] != pytest.approx(before[0])
        assert np.allclose(after[1:], before[1:])


class TestDynamicPower:
    def test_power_formula(self, small_array):
        v = np.full(8, 0.2)
        expected = float((v**2) @ small_array.conductances().sum(axis=1))
        assert small_array.dynamic_read_power(v) == pytest.approx(expected)

    def test_sa1_fault_raises_power(self, small_array):
        """The observable behind the Fig 7 detection method."""
        v = np.full(8, 0.2)
        before = small_array.dynamic_read_power(v)
        small_array.stick_cell(3, 3, 1e-4)  # stuck LRS (high conductance)
        assert small_array.dynamic_read_power(v) > before

    def test_zero_input_zero_power(self, small_array):
        assert small_array.dynamic_read_power(np.zeros(8)) == 0.0


class TestDrift:
    def test_relax_skips_stuck_cells(self):
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.0),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.05),
        )
        xbar = CrossbarArray(
            CrossbarConfig(rows=2, cols=2), variability=stack, rng=0
        )
        xbar.program(np.full((2, 2), 5e-5))
        xbar.stick_cell(0, 0, 1e-4)
        xbar.relax(1000.0)
        g = xbar.conductances()
        assert g[0, 0] == 1e-4                  # stuck untouched
        assert g[1, 1] < 5e-5                   # healthy drifted


class TestWriteCells:
    def _xbar(self, n=4):
        xbar = CrossbarArray(CrossbarConfig(rows=n, cols=n), rng=0)
        xbar.program(np.full((n, n), 5e-5))
        return xbar

    def test_only_masked_cells_updated(self):
        xbar = self._xbar()
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = mask[3, 0] = True
        targets = np.full((4, 4), 8e-5)
        xbar.write_cells(mask, targets)
        g = xbar.conductances()
        assert g[1, 2] == 8e-5 and g[3, 0] == 8e-5
        untouched = ~mask
        assert np.all(g[untouched] == 5e-5)
        counts = xbar.write_counts()
        assert counts[1, 2] == counts[3, 0] == 2  # program + pulse
        assert np.all(counts[untouched] == 1)

    def test_no_write_variation_applied(self):
        # write_cells lands exactly what the caller asked for, even when
        # the array carries a noisy write model (callers own the noise).
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.3),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=0.0),
        )
        xbar = CrossbarArray(
            CrossbarConfig(rows=2, cols=2), variability=stack, rng=1
        )
        mask = np.ones((2, 2), dtype=bool)
        xbar.write_cells(mask, np.full((2, 2), 7e-5))
        assert np.all(xbar.conductances() == 7e-5)

    def test_stuck_cells_keep_overlay_but_count_pulse(self):
        xbar = self._xbar()
        pinned = xbar.config.levels.g_max
        xbar.stick_cell(0, 0, pinned)
        before = xbar.write_counts()[0, 0]
        mask = np.ones((4, 4), dtype=bool)
        xbar.write_cells(mask, np.full((4, 4), 2e-5))
        assert xbar.conductances()[0, 0] == pinned
        assert xbar.write_counts()[0, 0] == before + 1

    def test_empty_mask_is_noop(self):
        xbar = self._xbar()
        before = xbar.write_counts().copy()
        xbar.write_cells(np.zeros((4, 4), dtype=bool), np.zeros((4, 4)))
        assert np.array_equal(xbar.write_counts(), before)
        assert np.all(xbar.conductances() == 5e-5)

    def test_shape_and_sign_validated(self):
        xbar = self._xbar()
        with pytest.raises(ValueError, match="shape"):
            xbar.write_cells(np.ones((2, 2), dtype=bool), np.zeros((4, 4)))
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match="non-negative"):
            xbar.write_cells(mask, np.full((4, 4), -1e-5))

    def test_sign_checked_only_inside_mask(self):
        xbar = self._xbar()
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = mask[2, 3] = True
        targets = np.full((4, 4), 6e-5)
        targets[2, 3] = -1e-5
        with pytest.raises(ValueError, match="non-negative"):
            xbar.write_cells(mask, targets)
        # A rejected write changes nothing, not even the masked cell
        # whose target was valid.
        assert np.all(xbar.conductances() == 5e-5)
        assert np.all(xbar.write_counts() == 1)
        # Outside the mask a negative target is never addressed.
        targets[2, 3] = 6e-5
        targets[0, 0] = -1e-5
        xbar.write_cells(mask, targets)
        g = xbar.conductances()
        assert g[1, 1] == g[2, 3] == 6e-5
        assert g[0, 0] == 5e-5
        assert np.array_equal(xbar.write_counts(), 1 + mask)

    def test_targets_clipped_to_physical_range(self):
        xbar = self._xbar()
        levels = xbar.config.levels
        mask = np.ones((4, 4), dtype=bool)
        xbar.write_cells(mask, np.full((4, 4), levels.g_max * 10))
        assert np.all(xbar.conductances() == levels.g_max * 1.5)
