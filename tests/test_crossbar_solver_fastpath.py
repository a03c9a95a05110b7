"""Tests for the nodal-solver fast path: vectorized assembly, exact
Dirichlet elimination, LU caching, multi-RHS batching and the
transfer-matrix read — plus the regression tests for the bugfixes that
rode along (driver-aware ``worst_case_drop``, RMS-normalized
``relative_error``)."""

import numpy as np
import pytest

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.crossbar.solver import (
    BatchSolverResult,
    NodalCrossbarSolver,
    SolverResult,
    sneak_path_read_current,
)


def _random_case(rng, rows, cols):
    g = rng.uniform(1e-6, 1e-4, (rows, cols))
    v = rng.uniform(0.0, 0.2, rows)
    return g, v


class TestFastPathAgreesWithReference:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 7), (7, 1), (6, 5), (16, 16)])
    @pytest.mark.parametrize("driver_resistance", [0.0, 1e3])
    def test_matches_loop_reference(self, rows, cols, driver_resistance):
        rng = np.random.default_rng(rows * 100 + cols)
        g, v = _random_case(rng, rows, cols)
        solver = NodalCrossbarSolver(
            wire_resistance=2.0, driver_resistance=driver_resistance
        )
        fast = solver.solve(g, v)
        ref = solver.solve_reference(g, v)
        scale = max(np.abs(ref.column_currents).max(), 1e-30)
        assert np.max(np.abs(fast.column_currents - ref.column_currents)) < 1e-10 * scale
        assert np.max(np.abs(fast.row_node_voltages - ref.row_node_voltages)) < 1e-10
        assert np.max(np.abs(fast.col_node_voltages - ref.col_node_voltages)) < 1e-10

    def test_property_random_arrays(self):
        """Randomized sweep: fast, cached and batched paths all agree with
        the loop reference to 1e-10."""
        rng = np.random.default_rng(42)
        solver = NodalCrossbarSolver(wire_resistance=1.0, driver_resistance=200.0)
        for trial in range(5):
            rows = int(rng.integers(2, 12))
            cols = int(rng.integers(2, 12))
            g, _ = _random_case(rng, rows, cols)
            batch_v = rng.uniform(0.0, 0.2, (4, rows))
            batch = solver.solve_batch(g, batch_v)
            for k in range(4):
                ref = solver.solve_reference(g, batch_v[k])
                cached = solver.solve(g, batch_v[k])
                scale = max(np.abs(ref.column_currents).max(), 1e-30)
                assert (
                    np.max(np.abs(batch.column_currents[k] - ref.column_currents))
                    < 1e-10 * scale
                )
                assert (
                    np.max(np.abs(cached.column_currents - ref.column_currents))
                    < 1e-10 * scale
                )

    def test_cached_matches_cold(self):
        """A cache-hit solve is bit-for-bit the cold solve."""
        rng = np.random.default_rng(7)
        g, v = _random_case(rng, 12, 9)
        solver = NodalCrossbarSolver(wire_resistance=3.0)
        cold = solver.solve(g, v)
        assert solver.factorizations == 1
        warm = solver.solve(g, v)
        assert solver.factorizations == 1
        assert np.array_equal(cold.column_currents, warm.column_currents)

    def test_wire_resistance_to_zero_converges_to_ideal(self):
        rng = np.random.default_rng(11)
        g, v = _random_case(rng, 10, 8)
        ideal = v @ g
        errors = []
        for r_wire in (1.0, 1e-2, 1e-4, 1e-6):
            actual = NodalCrossbarSolver(wire_resistance=r_wire).solve(g, v)
            errors.append(np.max(np.abs(actual.column_currents - ideal)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-12


class TestBatchSolve:
    def test_batch_matches_single_solves(self):
        rng = np.random.default_rng(3)
        g, _ = _random_case(rng, 16, 12)
        v_matrix = rng.uniform(0.0, 0.2, (8, 16))
        solver = NodalCrossbarSolver(wire_resistance=2.0, driver_resistance=500.0)
        batch = solver.solve_batch(g, v_matrix)
        assert isinstance(batch, BatchSolverResult)
        assert len(batch) == 8
        for k in range(8):
            single = NodalCrossbarSolver(
                wire_resistance=2.0, driver_resistance=500.0
            ).solve(g, v_matrix[k])
            assert np.allclose(
                batch.column_currents[k],
                single.column_currents,
                rtol=1e-10,
                atol=1e-20,
            )

    def test_batch_uses_one_factorization(self):
        rng = np.random.default_rng(5)
        g, _ = _random_case(rng, 20, 20)
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        solver.solve_batch(g, rng.uniform(0, 0.2, (32, 20)))
        assert solver.factorizations == 1

    def test_batch_result_indexing(self):
        rng = np.random.default_rng(9)
        g, _ = _random_case(rng, 6, 4)
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        batch = solver.solve_batch(g, rng.uniform(0, 0.2, (3, 6)))
        one = batch.result(1)
        assert isinstance(one, SolverResult)
        assert np.array_equal(one.column_currents, batch.column_currents[1])

    def test_batch_shape_validation(self):
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        with pytest.raises(ValueError, match="shape"):
            solver.solve_batch(np.full((4, 4), 1e-5), np.zeros((2, 3)))

    def test_ideal_batch_matches_matmul(self):
        rng = np.random.default_rng(13)
        g, _ = _random_case(rng, 5, 7)
        v_matrix = rng.uniform(0, 0.2, (6, 5))
        solver = NodalCrossbarSolver(wire_resistance=0.0, driver_resistance=0.0)
        batch = solver.solve_batch(g, v_matrix)
        assert np.allclose(batch.column_currents, v_matrix @ g)


def _read(solver, g, v):
    """Currents of a transfer-matrix read."""
    return solver.solve_batch(g, v, transfer=True).column_currents


def _driven_block(rng, batch, rows):
    """Random wordline voltages with every third wordline idle."""
    v = rng.uniform(0.0, 0.2, (batch, rows))
    v[:, ::3] = 0.0
    return v


class TestTransferMatrixRead:
    """``solve_batch(..., transfer=True)`` reads through the cached
    transfer matrix: each
    batch row's currents are the bits that row gets alone, on any solver,
    after any history."""

    @pytest.mark.parametrize("rows,cols", [(1, 4), (7, 5), (16, 32), (33, 17)])
    @pytest.mark.parametrize("driver_resistance", [0.0, 500.0])
    def test_rows_are_bit_identical_to_one_row_reads(
        self, rows, cols, driver_resistance
    ):
        rng = np.random.default_rng(rows * 100 + cols)
        g = rng.uniform(1e-6, 1e-4, (rows, cols))
        # One long-lived solver reads batches 1..37, so later batches
        # reuse transfer rows that earlier batches solved.
        shared = NodalCrossbarSolver(
            wire_resistance=1.0, driver_resistance=driver_resistance
        )
        for batch in range(1, 38):
            v = _driven_block(rng, batch, rows)
            out = _read(shared, g, v)
            assert out.shape == (batch, cols)
            for k in sorted({0, batch // 2, batch - 1}):
                fresh = NodalCrossbarSolver(
                    wire_resistance=1.0, driver_resistance=driver_resistance
                )
                alone = _read(fresh, g, v[k : k + 1])[0]
                assert np.array_equal(out[k], alone), (batch, k)

    def test_served_tile_shape_rows_are_bit_identical(self):
        """The 64x64 physical tile a served model reads, at the batch
        sizes where the multi-RHS LU solve gave rows other bits."""
        rng = np.random.default_rng(64)
        g = rng.uniform(1e-6, 1e-4, (64, 64))
        v = _driven_block(rng, 37, 64)
        reference = NodalCrossbarSolver(wire_resistance=1.0)
        alone = np.stack(
            [_read(reference, g, v[k : k + 1])[0] for k in range(37)]
        )
        for batch in (1, 2, 5, 16, 37):
            out = _read(NodalCrossbarSolver(wire_resistance=1.0), g, v[:batch])
            assert np.array_equal(out, alone[:batch]), batch

    @pytest.mark.parametrize("rows,cols", [(12, 9), (24, 16)])
    @pytest.mark.parametrize("driver_resistance", [0.0, 500.0])
    def test_transfer_matrix_does_not_depend_on_drive_order(
        self, rows, cols, driver_resistance
    ):
        rng = np.random.default_rng(3)
        g = rng.uniform(1e-6, 1e-4, (rows, cols))
        identity = np.eye(rows)

        def transfer_after(groups):
            solver = NodalCrossbarSolver(
                wire_resistance=2.0, driver_resistance=driver_resistance
            )
            for group in groups:
                v = np.zeros((2, rows))
                v[0, group] = 0.1
                _read(solver, g, v)
            assert solver.transfer_rows == rows
            # Reading the identity returns T itself: every other term of
            # each row's sum is an exact zero.
            return _read(solver, g, identity)

        expected = transfer_after([[i] for i in reversed(range(rows))])
        # All rows first driven by one batch: a multi-RHS solve of the
        # unit vectors gives one 24x16 row different bits.
        assert np.array_equal(transfer_after([list(range(rows))]), expected)
        for order_seed in range(3):
            order = np.random.default_rng(order_seed).permutation(rows)
            groups = np.array_split(order, 4)
            assert np.array_equal(transfer_after(groups), expected)

    @pytest.mark.parametrize("rows,cols", [(1, 7), (7, 1), (6, 5), (16, 16)])
    @pytest.mark.parametrize("driver_resistance", [0.0, 1e3])
    def test_matches_loop_reference(self, rows, cols, driver_resistance):
        rng = np.random.default_rng(rows * 10 + cols)
        g = rng.uniform(1e-6, 1e-4, (rows, cols))
        v = rng.uniform(0.0, 0.2, (4, rows))
        solver = NodalCrossbarSolver(
            wire_resistance=2.0, driver_resistance=driver_resistance
        )
        result = solver.solve_batch(g, v, transfer=True)
        assert result.row_node_voltages is None
        assert result.col_node_voltages is None
        out = result.column_currents
        for k in range(4):
            ref = solver.solve_reference(g, v[k]).column_currents
            scale = max(np.abs(ref).max(), 1e-30)
            assert np.max(np.abs(out[k] - ref)) < 1e-10 * scale

    def test_one_factorization_and_one_solve_per_driven_row(self):
        from repro.utils import telemetry

        rng = np.random.default_rng(5)
        g = rng.uniform(1e-6, 1e-4, (10, 6))
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        first = np.zeros((3, 10))
        first[:, [1, 4]] = 0.1
        first[2, 7] = 0.2
        second = np.zeros((2, 10))
        second[:, [4, 7, 9]] = 0.15
        with telemetry.scoped() as scope:
            # A multi-RHS solve factorizes but solves no transfer row.
            solver.solve_batch(g, first)
            assert solver.transfer_rows == 0
            idle = _read(solver, g, np.zeros((2, 10)))
            assert np.array_equal(idle, np.zeros((2, 6)))
            assert solver.transfer_rows == 0
            _read(solver, g, first)        # solves 1, 4, 7
            _read(solver, g, second)       # solves 9 only
            _read(solver, g, first)        # solves nothing
        assert solver.factorizations == 1
        assert solver.transfer_rows == 4
        assert scope.count("solver.transfer_rows") == 4.0
        assert scope.count("solver.factorizations") == 1.0

        # A new conductance state is a new factorization with its own rows.
        g2 = g.copy()
        g2[0, 0] *= 2
        _read(solver, g2, second)
        assert solver.factorizations == 2
        assert solver.transfer_rows == 7

        # The rows live inside the cached factorization: invalidation
        # drops them with it.
        solver.invalidate_cache()
        _read(solver, g, second)
        assert solver.factorizations == 3
        assert solver.transfer_rows == 10

    def test_shape_validation(self):
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        with pytest.raises(ValueError, match="shape"):
            _read(solver, np.full((4, 4), 1e-5), np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            _read(solver, np.full((4, 4), 1e-5), np.zeros((2, 3)))

    def test_core_clean_reads_are_bit_identical_to_solo_reads(self):
        """``CIMCore.vmm_batch`` reads clean IR-drop tiles through the
        transfer matrix, so a batch row decodes to the bits of the same
        input read alone."""
        core = CIMCore(
            CIMCoreParams(rows=64, logical_cols=32, wire_resistance=1.0), rng=0
        )
        rng = np.random.default_rng(8)
        core.program_weights(rng.uniform(-1, 1, (64, 32)))
        x = _driven_block(rng, 16, 64) * 5
        batched = core.vmm_batch(x, noisy=False)
        for k in range(16):
            assert np.array_equal(batched[k], core.vmm(x[k], noisy=False))
        assert core._ir_solver.factorizations == 1
        assert core._ir_solver.transfer_rows == np.count_nonzero(x.any(axis=0))


class TestFactorizationCache:
    def test_repeated_solves_factorize_once(self):
        """Perf smoke: the cached path must not silently regress to one
        factorization per input."""
        rng = np.random.default_rng(17)
        g, _ = _random_case(rng, 16, 16)
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        for _ in range(10):
            solver.solve(g, rng.uniform(0, 0.2, 16))
        assert solver.factorizations == 1
        assert solver.cache_hits == 9

    def test_changed_conductances_refactorize(self):
        rng = np.random.default_rng(19)
        g, v = _random_case(rng, 8, 8)
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        solver.solve(g, v)
        g2 = g.copy()
        g2[3, 3] *= 2
        solver.solve(g2, v)
        assert solver.factorizations == 2

    def test_invalidate_cache_drops_entries(self):
        rng = np.random.default_rng(21)
        g, v = _random_case(rng, 8, 8)
        solver = NodalCrossbarSolver(wire_resistance=1.0)
        solver.solve(g, v)
        assert solver.cache_len == 1
        solver.invalidate_cache()
        assert solver.cache_len == 0
        solver.solve(g, v)
        assert solver.factorizations == 2

    def test_cache_is_bounded(self):
        rng = np.random.default_rng(23)
        solver = NodalCrossbarSolver(wire_resistance=1.0, cache_size=2)
        for _ in range(5):
            g, v = _random_case(rng, 6, 6)
            solver.solve(g, v)
        assert solver.cache_len == 2

    def test_evictions_are_counted(self):
        """Regression: LRU evictions must be observable — both on the
        solver (``cache_evictions``) and as a telemetry counter — instead
        of silently dropping factorizations."""
        from repro.utils import telemetry

        rng = np.random.default_rng(29)
        solver = NodalCrossbarSolver(wire_resistance=1.0, cache_size=2)
        with telemetry.scoped() as scope:
            for _ in range(5):
                g, v = _random_case(rng, 6, 6)
                solver.solve(g, v)
        assert solver.cache_evictions == 3
        counters = scope.snapshot()["counters"]
        assert counters["solver.cache_evictions"] == 3

    def test_no_evictions_within_capacity(self):
        rng = np.random.default_rng(31)
        solver = NodalCrossbarSolver(wire_resistance=1.0, cache_size=8)
        for _ in range(5):
            g, v = _random_case(rng, 6, 6)
            solver.solve(g, v)
        assert solver.cache_evictions == 0

    def test_core_reports_eviction_side_counter(self):
        """A core's IR-drop solves surface as solver counters in the
        telemetry scope it ran in, so accelerator/app-level reports can
        show cache pressure."""
        from repro.utils import telemetry

        core = CIMCore(
            CIMCoreParams(rows=8, logical_cols=4, wire_resistance=2.0), rng=0
        )
        rng = np.random.default_rng(2)
        core.program_weights(rng.uniform(-1, 1, (8, 4)))
        with telemetry.scoped() as scope:
            core.vmm(rng.uniform(0, 1, 8), noisy=False)
        assert scope.count("solver.factorizations") == 1.0
        assert scope.count("solver.cache_evictions") == 0.0

    def test_core_vmm_reuses_factorization(self):
        """Perf smoke (tier-1): repeated noiseless IR-drop VMMs on one
        programmed core pay exactly one factorization."""
        core = CIMCore(
            CIMCoreParams(rows=16, logical_cols=8, wire_resistance=2.0), rng=0
        )
        rng = np.random.default_rng(0)
        core.program_weights(rng.uniform(-1, 1, (16, 8)))
        for _ in range(6):
            core.vmm(rng.uniform(0, 1, 16), noisy=False)
        assert core._ir_solver.factorizations == 1
        core.vmm_batch(rng.uniform(0, 1, (4, 16)), noisy=False)
        assert core._ir_solver.factorizations == 1

    def test_core_cache_invalidated_by_reprogramming(self):
        core = CIMCore(
            CIMCoreParams(rows=16, logical_cols=8, wire_resistance=2.0), rng=0
        )
        rng = np.random.default_rng(1)
        core.program_weights(rng.uniform(-1, 1, (16, 8)))
        core.vmm(rng.uniform(0, 1, 16), noisy=False)
        assert core._ir_solver.cache_len == 1
        core.program_weights(rng.uniform(-1, 1, (16, 8)))
        assert core._ir_solver.cache_len == 0
        core.vmm(rng.uniform(0, 1, 16), noisy=False)
        assert core._ir_solver.factorizations == 2


class TestCoreBatchVMM:
    def test_vmm_batch_matches_vmm_noiseless(self):
        core = CIMCore(
            CIMCoreParams(rows=16, logical_cols=8, wire_resistance=2.0), rng=0
        )
        rng = np.random.default_rng(2)
        core.program_weights(rng.uniform(-1, 1, (16, 8)))
        x = rng.uniform(0, 1, (5, 16))
        batched = core.vmm_batch(x, noisy=False)
        singles = np.stack([core.vmm(row, noisy=False) for row in x])
        assert np.allclose(batched, singles)

    def test_vmm_batch_matches_vmm_ideal_wires(self):
        core = CIMCore(CIMCoreParams(rows=16, logical_cols=8), rng=0)
        rng = np.random.default_rng(4)
        core.program_weights(rng.uniform(-1, 1, (16, 8)))
        x = rng.uniform(0, 1, (5, 16))
        batched = core.vmm_batch(x, noisy=False)
        singles = np.stack([core.vmm(row, noisy=False) for row in x])
        assert np.allclose(batched, singles)

    def test_vmm_batch_validates_shape(self):
        core = CIMCore(CIMCoreParams(rows=8, logical_cols=4), rng=0)
        core.program_weights(np.zeros((8, 4)))
        with pytest.raises(ValueError, match="shape"):
            core.vmm_batch(np.zeros((3, 7)))
        with pytest.raises(ValueError, match="batch"):
            core.vmm_batch(np.zeros((0, 8)))


class TestWorstCaseDropBugfix:
    def test_driver_droop_included(self):
        """Regression: with a stiff load and a resistive driver, most of
        the droop happens *across the driver* — the old metric referenced
        the post-driver node and reported nearly zero."""
        g = np.full((4, 4), 5e-3)  # stiff load draws real current
        v = np.full(4, 0.2)
        solver = NodalCrossbarSolver(wire_resistance=0.1, driver_resistance=50.0)
        result = solver.solve(g, v)
        post_driver_only = float(
            np.max(np.abs(result.row_node_voltages[:, 0:1] - result.row_node_voltages))
        )
        driver_droop = float(np.max(v - result.row_node_voltages[:, 0]))
        assert driver_droop > post_driver_only
        assert result.worst_case_drop >= driver_droop
        assert result.worst_case_drop > post_driver_only

    def test_ideal_driver_unchanged(self):
        g = np.full((4, 6), 5e-5)
        v = np.full(4, 0.2)
        result = NodalCrossbarSolver(wire_resistance=10.0).solve(g, v)
        direct = float(np.max(np.abs(v[:, None] - result.row_node_voltages)))
        assert result.worst_case_drop == pytest.approx(direct)

    def test_fallback_without_driven_voltages(self):
        row_v = np.array([[0.2, 0.18], [0.2, 0.19]])
        legacy = SolverResult(np.zeros(2), row_v, np.zeros((2, 2)))
        assert legacy.worst_case_drop == pytest.approx(0.02)


class TestRelativeErrorBugfix:
    def test_zero_ideal_column_does_not_explode(self):
        """Regression: a column with ~zero ideal current must not blow the
        metric up to ~1e30."""
        g = np.full((8, 8), 5e-5)
        g[:, 3] = 0.0  # ideal current exactly zero on column 3
        v = np.full(8, 0.2)
        err = NodalCrossbarSolver(wire_resistance=5.0).relative_error(g, v)
        assert err < 1.0

    def test_zero_input_vector(self):
        g = np.full((6, 6), 5e-5)
        v = np.zeros(6)
        err = NodalCrossbarSolver(wire_resistance=5.0).relative_error(g, v)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_uniform_case_matches_per_column_metric(self):
        """For uniform arrays every ideal entry equals the vector RMS, so
        the new normalization reproduces the old metric exactly."""
        g = np.full((8, 8), 5e-5)
        v = np.full(8, 0.2)
        solver = NodalCrossbarSolver(wire_resistance=5.0)
        ideal = v @ g
        actual = solver.solve(g, v).column_currents
        old_metric = float(
            np.sqrt(np.mean(((actual - ideal) / np.abs(ideal)) ** 2))
        )
        assert solver.relative_error(g, v) == pytest.approx(old_metric, rel=1e-9)


class TestSneakSchemeOrdering:
    def test_schemes_order_correctly(self):
        """Both biasing schemes over-read the selected cell; the v/2
        scheme adds the full deterministic half-select leakage of the
        selected column, so: ideal < floating < v/2."""
        for shape in [(4, 4), (8, 8), (16, 16)]:
            g = np.full(shape, 5e-5)
            floating, ideal = sneak_path_read_current(g, 1, 1, scheme="floating")
            half, ideal2 = sneak_path_read_current(g, 1, 1, scheme="v/2")
            assert ideal == ideal2
            assert ideal < floating < half

    def test_ordering_holds_on_random_arrays(self):
        rng = np.random.default_rng(29)
        for _ in range(3):
            g = rng.uniform(1e-6, 1e-4, (8, 8))
            floating, ideal = sneak_path_read_current(g, 2, 3, scheme="floating")
            half, _ = sneak_path_read_current(g, 2, 3, scheme="v/2")
            assert ideal < floating < half
