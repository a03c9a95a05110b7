"""Tests for the multi-tile CIM accelerator."""

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorParams, CIMAccelerator
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


class TestTiling:
    def test_tile_grid_dimensions(self, rng):
        w = rng.uniform(-1, 1, (100, 50))
        accel = CIMAccelerator(w, AcceleratorParams(tile_rows=64, tile_cols=32), rng=0)
        assert accel.n_row_blocks == 2
        assert accel.n_col_blocks == 2
        assert accel.n_tiles == 4

    def test_exact_fit(self, rng):
        w = rng.uniform(-1, 1, (64, 32))
        accel = CIMAccelerator(w, rng=0)
        assert accel.n_tiles == 1

    def test_weights_must_be_scaled(self, rng):
        with pytest.raises(ValueError, match="pre-scaled"):
            CIMAccelerator(rng.uniform(-3, 3, (8, 8)), rng=0)


class TestVMM:
    def test_accuracy_on_multi_tile(self, rng):
        w = rng.uniform(-1, 1, (100, 50))
        accel = CIMAccelerator(w, rng=1)
        x = rng.uniform(0, 1, 100)
        y = accel.vmm(x, noisy=False)
        reference = x @ w
        assert y.shape == (50,)
        assert np.corrcoef(y, reference)[0, 1] > 0.995

    def test_partial_sum_accumulation(self, rng):
        """Splitting rows over tiles must not change the result beyond
        per-tile quantization."""
        w = rng.uniform(-1, 1, (128, 32))
        x = rng.uniform(0, 1, 128)
        one_tile = CIMAccelerator(
            w, AcceleratorParams(tile_rows=128, tile_cols=32, adc_bits=12), rng=2
        )
        four_tiles = CIMAccelerator(
            w, AcceleratorParams(tile_rows=32, tile_cols=32, adc_bits=12), rng=2
        )
        y1 = one_tile.vmm(x, noisy=False)
        y4 = four_tiles.vmm(x, noisy=False)
        assert np.allclose(y1, y4, atol=0.2)

    def test_input_domain_checked(self, rng):
        accel = CIMAccelerator(rng.uniform(-1, 1, (16, 8)), rng=3)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            accel.vmm(np.full(16, 1.5))

    def test_input_shape_checked(self, rng):
        accel = CIMAccelerator(rng.uniform(-1, 1, (16, 8)), rng=3)
        with pytest.raises(ValueError, match="shape"):
            accel.vmm(np.zeros(15))


class TestPartialSumNonDivisible:
    """Regressions for partial-sum tiling when weight shapes do not divide
    the tile geometry (the zero-padded edge blocks)."""

    def test_block_grid_rounds_up(self, rng):
        w = rng.uniform(-1, 1, (37, 13))
        accel = CIMAccelerator(
            w, AcceleratorParams(tile_rows=16, tile_cols=8), rng=0
        )
        assert accel.n_row_blocks == 3
        assert accel.n_col_blocks == 2
        assert accel.n_tiles == 6

    def test_non_divisible_matches_reference(self, rng):
        """Padding rows/cols with zeros must not leak into the result."""
        w = rng.uniform(-1, 1, (37, 13))
        x = rng.uniform(0, 1, 37)
        accel = CIMAccelerator(
            w,
            AcceleratorParams(tile_rows=16, tile_cols=8, adc_bits=14),
            rng=1,
        )
        y = accel.vmm(x, noisy=False)
        assert y.shape == (13,)
        ref = x @ w
        assert np.corrcoef(y, ref)[0, 1] > 0.999
        assert np.abs(y - ref).max() < 0.05 * max(np.abs(ref).max(), 1.0)

    def test_tile_size_invariance_at_high_resolution(self, rng):
        """At high ADC resolution the same matrix split over different
        tile geometries must agree (partial sums are exact in digital)."""
        w = rng.uniform(-1, 1, (37, 13))
        x = rng.uniform(0, 1, 37)
        whole = CIMAccelerator(
            w,
            AcceleratorParams(tile_rows=64, tile_cols=16, adc_bits=14),
            rng=2,
        )
        split = CIMAccelerator(
            w,
            AcceleratorParams(tile_rows=16, tile_cols=8, adc_bits=14),
            rng=2,
        )
        y_whole = whole.vmm(x, noisy=False)
        y_split = split.vmm(x, noisy=False)
        assert np.allclose(y_whole, y_split, atol=0.1)

    def test_vmm_batch_matches_vmm_rows(self, rng):
        """The batched path must reproduce the per-sample path exactly on
        a non-divisible shape (noiseless)."""
        w = rng.uniform(-1, 1, (37, 13))
        accel = CIMAccelerator(
            w, AcceleratorParams(tile_rows=16, tile_cols=8), rng=3
        )
        x = rng.uniform(0, 1, (5, 37))
        batched = accel.vmm_batch(x, noisy=False)
        stacked = np.stack(
            [accel.vmm(row, noisy=False) for row in x], axis=0
        )
        assert batched.shape == (5, 13)
        assert np.array_equal(batched, stacked)

    def test_single_row_and_col_overhang(self, rng):
        """Overhang of exactly one row/column — the worst-case padding."""
        w = rng.uniform(-1, 1, (17, 9))
        x = rng.uniform(0, 1, 17)
        accel = CIMAccelerator(
            w,
            AcceleratorParams(tile_rows=16, tile_cols=8, adc_bits=14),
            rng=4,
        )
        assert accel.n_row_blocks == 2 and accel.n_col_blocks == 2
        y = accel.vmm(x, noisy=False)
        ref = x @ w
        assert np.corrcoef(y, ref)[0, 1] > 0.999


    def test_blocks_cover_the_matrix_once(self, rng):
        """Every logical weight sits in exactly one tile window, whose
        tile-local corner has the window's shape."""
        w = rng.uniform(-1, 1, (37, 13))
        accel = CIMAccelerator(
            w, AcceleratorParams(tile_rows=16, tile_cols=8), rng=5
        )
        cover = np.zeros(w.shape, dtype=int)
        blocks = list(accel.blocks())
        assert [core for core, _, _ in blocks] == [
            core for row in accel.tiles for core in row
        ]
        for core, window, corner in blocks:
            cover[window] += 1
            assert np.zeros((16, 8))[corner].shape == w[window].shape
        assert (cover == 1).all()


class TestFaultInjection:
    def test_yield_injection_across_tiles(self, rng):
        w = rng.uniform(-1, 1, (100, 50))
        accel = CIMAccelerator(w, rng=4)
        rate = accel.inject_yield_faults(0.8, rng=5)
        assert rate == pytest.approx(0.2, abs=0.05)
        for tile_row in accel.tiles:
            for core in tile_row:
                assert core.array.fault_count() > 0

    def test_faults_degrade_accuracy(self, rng):
        w = rng.uniform(-1, 1, (100, 50))
        x = rng.uniform(0, 1, 100)
        clean = CIMAccelerator(w, rng=6)
        y_clean = clean.vmm(x, noisy=False)
        faulty = CIMAccelerator(w, rng=6)
        faulty.inject_yield_faults(0.7, rng=7)
        y_faulty = faulty.vmm(x, noisy=False)
        ref = x @ w
        assert np.abs(y_faulty - ref).mean() > np.abs(y_clean - ref).mean()

    def test_cost_aggregation(self, rng):
        w = rng.uniform(-1, 1, (100, 50))
        accel = CIMAccelerator(w, rng=8)
        with telemetry.scoped() as scope:
            accel.vmm(rng.uniform(0, 1, 100), noisy=False)
        report = RunReport.from_counters(scope.counters)
        assert report.total_energy > 0
        assert "adc" in report.categories
