"""Circuit-accurate crossbar solvers: IR drop and sneak paths.

The ideal VMM of :class:`~repro.crossbar.array.CrossbarArray` assumes
perfect wires and fully clamped lines.  Real arrays suffer from two
parasitic effects the paper leans on:

* **wire resistance (IR drop)** — finite wordline/bitline segment
  resistance attenuates the voltage reaching far cells, degrading MAC
  accuracy as arrays grow (one reason CIM-A scalability is rated *Low* in
  Table I);
* **sneak paths** — unselected cells form parallel current paths through a
  selected cell's row and column.  Section III-B turns this bug into a
  feature: the sneak-path test method of [46] reads *groups* of cells at
  once through exactly these paths.

Both are computed here by sparse nodal analysis (Kirchhoff current law at
every row/column node, solved with SciPy).

The solver has a **fast path** designed around one observation: the nodal
matrix depends only on the conductance state and the parasitic parameters,
*not* on the applied input vector.  Inference workloads solve the same
array against thousands of inputs, so :class:`NodalCrossbarSolver`

* assembles the system with vectorized COO index arrays (no Python loop
  over cells),
* eliminates the Dirichlet (clamped) nodes exactly — known voltages move
  into the right-hand side instead of being penalty-pinned with a huge
  conductance, which kept the matrix well conditioned,
* caches the sparse LU factorization (``scipy.sparse.linalg.splu``) keyed
  on a fingerprint of the conductance matrix, and
* offers :meth:`NodalCrossbarSolver.solve_batch` — many input vectors
  against one factorization via multi-RHS back-substitution, or, with
  ``transfer=True``, the read path of a cached state.  For a fixed
  conductance state the read is a linear map from wordline voltages to
  column currents, so each cached factorization carries a transfer matrix
  ``T`` whose row ``i`` holds the column currents of a unit voltage on
  wordline ``i`` alone.  A row is back-substituted the first time a batch
  drives that wordline, one right-hand side per row (SuperLU's multi-RHS
  solve does not give column-independent bits), and a read is then
  ``einsum("bi,ij->bj", v, T)``.  A BLAS matmul gives a row other bits
  inside a batch than alone; the unoptimized ``einsum`` has given every
  row the same bits at every batch size tried with the NumPy this
  package runs on.  NumPy does not document that, so the tests of the
  transfer read pin it rather than assume it.

SciPy is imported inside the functions that assemble or solve a sparse
system, so importing this module (and :mod:`repro.crossbar`) stays cheap
for processes that never solve a parasitic network.

:meth:`NodalCrossbarSolver.solve_reference` keeps the original
cell-by-cell loop assembly as a slow, independently-written reference the
property tests compare against.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils import telemetry
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class SolverResult:
    """Output of a nodal crossbar solve."""

    column_currents: np.ndarray      # A, current into each bitline sense node
    row_node_voltages: np.ndarray    # V, (rows, cols) wordline node voltages
    col_node_voltages: np.ndarray    # V, (rows, cols) bitline node voltages
    driven_voltages: Optional[np.ndarray] = None  # V, (rows,) source voltages

    @property
    def worst_case_drop(self) -> float:
        """Largest wordline voltage droop relative to the *driven* value.

        The reference is the source voltage behind the driver, so droop
        across a resistive driver itself is included.  (Results built
        without ``driven_voltages`` fall back to the post-driver node.)
        """
        if self.driven_voltages is not None:
            driven = np.asarray(self.driven_voltages, dtype=float)
        else:
            driven = self.row_node_voltages[:, 0]
        drops = driven[:, None] - self.row_node_voltages
        return float(np.max(np.abs(drops)))


@dataclass
class BatchSolverResult:
    """Output of a batched nodal crossbar solve (one factorization, many
    right-hand sides).  A transfer-matrix read computes no node voltages;
    its node-voltage fields are ``None``."""

    column_currents: np.ndarray                 # (batch, cols)
    row_node_voltages: Optional[np.ndarray]     # (batch, rows, cols)
    col_node_voltages: Optional[np.ndarray]     # (batch, rows, cols)
    driven_voltages: np.ndarray                 # (batch, rows)

    def __len__(self) -> int:
        return self.column_currents.shape[0]

    def result(self, k: int) -> SolverResult:
        """The ``k``-th input's solve as a standalone :class:`SolverResult`."""
        return SolverResult(
            self.column_currents[k],
            self.row_node_voltages[k],
            self.col_node_voltages[k],
            self.driven_voltages[k],
        )


class _Factorization:
    """LU-factorized reduced nodal system for one conductance state.

    Holds everything needed to turn an input vector into node voltages:
    the SuperLU object over the free (non-clamped) nodes, a sparse map
    from driven voltages to the reduced right-hand side, and the
    free/fixed index sets for scattering solutions back to full node
    order; plus the transfer matrix that clean reads go through, filled
    one driven wordline at a time.
    """

    def __init__(
        self,
        g: np.ndarray,
        wire_resistance: float,
        driver_resistance: float,
    ) -> None:
        from scipy.sparse import coo_matrix, csr_matrix
        from scipy.sparse.linalg import splu

        rows, cols = g.shape
        self.g = g
        self.rows = rows
        self.cols = cols
        n = rows * cols
        total = 2 * n
        ideal_driver = driver_resistance == 0

        r_nodes = np.arange(n).reshape(rows, cols)
        c_nodes = r_nodes + n
        g_wire = 1.0 / max(wire_resistance, 1e-12)

        data, rr, cc = [], [], []

        def stamp(a: np.ndarray, b: np.ndarray, gv: np.ndarray) -> None:
            # Conductance gv between node sets a and b (symmetric stamp).
            data.extend((gv, gv, -gv, -gv))
            rr.extend((a, b, a, b))
            cc.extend((a, b, b, a))

        stamp(r_nodes.ravel(), c_nodes.ravel(), g.ravel())
        if cols > 1:
            a = r_nodes[:, :-1].ravel()
            b = r_nodes[:, 1:].ravel()
            stamp(a, b, np.full(a.size, g_wire))
        if rows > 1:
            a = c_nodes[:-1, :].ravel()
            b = c_nodes[1:, :].ravel()
            stamp(a, b, np.full(a.size, g_wire))
        if not ideal_driver:
            g_drv = 1.0 / driver_resistance
            d = r_nodes[:, 0]
            data.append(np.full(rows, g_drv))
            rr.append(d)
            cc.append(d)

        a_full = coo_matrix(
            (np.concatenate(data), (np.concatenate(rr), np.concatenate(cc))),
            shape=(total, total),
        ).tocsr()

        # Dirichlet nodes, eliminated exactly: the virtual-ground sense
        # nodes always, plus the driven wordline ends when the driver is
        # ideal.  With a resistive driver the source sits behind g_drv and
        # only shows up in the RHS.
        self.ground = c_nodes[rows - 1, :]
        self.driven = r_nodes[:, 0] if ideal_driver else None
        fixed = (
            np.concatenate([self.driven, self.ground])
            if ideal_driver
            else self.ground
        )
        free_mask = np.ones(total, dtype=bool)
        free_mask[fixed] = False
        self.free = np.nonzero(free_mask)[0]

        a_rows = a_full[self.free]
        if ideal_driver:
            # b_f = -A[free, driven] @ v  (ground nodes contribute 0).
            self.b_map = (-a_rows[:, self.driven]).tocsr()
        else:
            # b_f = g_drv on each driven node's row: b = b_map @ v.
            pos = np.full(total, -1, dtype=np.int64)
            pos[self.free] = np.arange(self.free.size)
            d = r_nodes[:, 0]
            self.b_map = csr_matrix(
                (np.full(rows, 1.0 / driver_resistance),
                 (pos[d], np.arange(rows))),
                shape=(self.free.size, rows),
            )

        self.lu = (
            splu(a_rows[:, self.free].tocsc()) if self.free.size else None
        )
        # Transfer matrix, filled row by row on first use; a row not yet
        # solved stays zero, which is exact for a wordline driven at 0 V.
        self.transfer = np.zeros((rows, cols))
        self.solved = np.zeros(rows, dtype=bool)

    def solve(
        self, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wordline and bitline node voltages, each ``(batch, rows, cols)``,
        and column currents ``(batch, cols)`` for driven voltages ``v`` of
        shape ``(batch, rows)``, in one multi-RHS back-substitution."""
        batch = v.shape[0]
        n = self.rows * self.cols
        full = np.zeros((2 * n, batch))
        if self.lu is not None:
            b = self.b_map @ v.T
            x = self.lu.solve(np.ascontiguousarray(b))
            full[self.free] = x.reshape(self.free.size, batch)
        if self.driven is not None:
            full[self.driven] = v.T
        solution = full.T
        row_v = solution[:, :n].reshape(batch, self.rows, self.cols)
        col_v = solution[:, n:].reshape(batch, self.rows, self.cols)
        # Column current = sum of currents flowing into each bitline.
        column_currents = ((row_v - col_v) * self.g).sum(axis=1)
        return row_v, col_v, column_currents

    def solve_transfer_rows(self, v: np.ndarray) -> int:
        """Solve the rows of :attr:`transfer` that ``v`` drives for the
        first time; return how many were solved.

        Each row is its own one-RHS solve, so its bits depend only on the
        conductance state, never on which rows earlier reads drove.
        """
        new = np.nonzero(np.any(v != 0, axis=0) & ~self.solved)[0]
        for i in new:
            self.transfer[i] = self.solve(np.eye(1, self.rows, i))[2][0]
        self.solved[new] = True
        return int(new.size)


class NodalCrossbarSolver:
    """Sparse nodal-analysis solver for a crossbar with wire parasitics.

    Topology: wordline ``i`` is driven at its left end through a driver of
    resistance ``driver_resistance``; bitline ``j`` is sensed at its bottom
    end by a virtual-ground transimpedance stage (node voltage 0).  Cell
    ``(i, j)`` connects wordline node ``(i, j)`` to bitline node ``(i, j)``;
    adjacent nodes along a line are joined by ``wire_resistance``.

    With ``wire_resistance == 0`` and ``driver_resistance == 0`` the result
    reduces exactly to the ideal ``I = V . G``.

    Factorizations, and the transfer rows that transfer reads
    (``solve_batch(..., transfer=True)``) solve against them, are cached
    across calls (see the module docstring); ``factorizations``, ``transfer_rows``, ``cache_hits`` and
    ``cache_misses`` count the solver's work for perf regression tests.
    """

    def __init__(
        self,
        wire_resistance: float = 1.0,
        driver_resistance: float = 0.0,
        cache_size: int = 8,
    ) -> None:
        check_non_negative("wire_resistance", wire_resistance)
        check_non_negative("driver_resistance", driver_resistance)
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.wire_resistance = wire_resistance
        self.driver_resistance = driver_resistance
        self.cache_size = cache_size
        self._cache: "OrderedDict[str, _Factorization]" = OrderedDict()
        self.factorizations = 0
        self.transfer_rows = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # ----------------------------------------------------------- cache layer
    def _fingerprint(self, g: np.ndarray) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(g).tobytes())
        h.update(
            f"{g.shape}|{self.wire_resistance}|{self.driver_resistance}".encode()
        )
        return h.hexdigest()

    def _factorize(self, g: np.ndarray) -> _Factorization:
        key = self._fingerprint(g)
        fact = self._cache.get(key)
        if fact is not None:
            self.cache_hits += 1
            telemetry.current().incr("solver.cache_hits")
            self._cache.move_to_end(key)
            return fact
        self.cache_misses += 1
        self.factorizations += 1
        telemetry.current().incr("solver.cache_misses")
        telemetry.current().incr("solver.factorizations")
        fact = _Factorization(
            g.copy(), self.wire_resistance, self.driver_resistance
        )
        self._cache[key] = fact
        # LRU bound.  Evictions used to be silent; a long-lived server
        # whose working set exceeds ``cache_size`` thrashes factorizations,
        # so every eviction is counted and mirrored into telemetry.
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.cache_evictions += 1
            telemetry.current().incr("solver.cache_evictions")
        return fact

    def invalidate_cache(self) -> None:
        """Drop all cached factorizations and their transfer rows (call
        after reprogramming or fault injection changes the conductance
        state)."""
        self._cache.clear()

    @property
    def cache_len(self) -> int:
        """Number of factorizations currently cached."""
        return len(self._cache)

    # ------------------------------------------------------------ validation
    def _check_inputs(
        self, conductances: np.ndarray, voltages: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        g = np.asarray(conductances, dtype=float)
        v = np.asarray(voltages, dtype=float)
        if g.ndim != 2:
            raise ValueError(f"conductances must be 2-D, got shape {g.shape}")
        rows = g.shape[0]
        if v.shape[-1:] != (rows,):
            raise ValueError(
                f"voltages must have shape ({rows},), got {v.shape}"
            )
        if np.any(g < 0):
            raise ValueError("conductances must be non-negative")
        return g, v

    # --------------------------------------------------------------- solving
    def solve(self, conductances: np.ndarray, voltages: np.ndarray) -> SolverResult:
        """Solve the crossbar for input ``voltages`` on the wordlines.

        Parameters
        ----------
        conductances:
            ``(rows, cols)`` cell conductance matrix in siemens.
        voltages:
            ``(rows,)`` driven wordline voltages.
        """
        g, v = self._check_inputs(conductances, voltages)
        if v.ndim != 1:
            raise ValueError(
                f"voltages must have shape ({g.shape[0]},), got {v.shape}"
            )
        batch = self.solve_batch(g, v[None, :])
        return batch.result(0)

    def solve_batch(
        self,
        conductances: np.ndarray,
        voltage_matrix: np.ndarray,
        *,
        transfer: bool = False,
    ) -> BatchSolverResult:
        """Solve many input vectors against one factorization.

        ``voltage_matrix`` has shape ``(batch, rows)``; the nodal matrix is
        assembled and LU-factorized once (or reused from the cache) and all
        inputs are back-substituted together as a multi-RHS solve.  That
        solve does not give each input the bits it would get alone.

        With ``transfer=True`` the call is a read of a state that later
        calls read again: wordlines this batch drives for the first time
        get their transfer row solved (counted in ``transfer_rows``), the
        currents are one ``einsum`` over the transfer matrix, and no node
        voltages are computed.  Row ``k`` of such a read has the bits of
        reading ``voltage_matrix[k]`` alone, on any solver, after any
        history (see the module docstring for what pins this).  Ideal
        wires have no factorization to amortize and ignore ``transfer``.
        """
        g, v = self._check_inputs(conductances, voltage_matrix)
        if v.ndim != 2:
            raise ValueError(
                f"voltage_matrix must have shape (batch, {g.shape[0]}), "
                f"got {v.shape}"
            )
        rows, cols = g.shape
        batch = v.shape[0]

        if self.wire_resistance == 0 and self.driver_resistance == 0:
            # Ideal wires: all wordline nodes sit at the driven voltage and
            # all bitline nodes at virtual ground.
            currents = v @ g
            row_v = np.broadcast_to(v[:, :, None], (batch, rows, cols)).copy()
            col_v = np.zeros((batch, rows, cols))
            return BatchSolverResult(currents, row_v, col_v, v.copy())

        fact = self._factorize(g)
        if not transfer:
            row_v, col_v, column_currents = fact.solve(v)
            return BatchSolverResult(column_currents, row_v, col_v, v.copy())
        solved = fact.solve_transfer_rows(v)
        if solved:
            self.transfer_rows += solved
            telemetry.current().incr("solver.transfer_rows", solved)
        currents = np.einsum("bi,ij->bj", v, fact.transfer)
        return BatchSolverResult(currents, None, None, v.copy())

    def solve_reference(
        self, conductances: np.ndarray, voltages: np.ndarray
    ) -> SolverResult:
        """Original cell-by-cell loop assembly, kept as the slow reference
        implementation the fast path is property-tested against.

        Boundary conditions are imposed exactly (Dirichlet row
        replacement), so this solves the same linear system as
        :meth:`solve` — just via an independent code path.
        """
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        g, v = self._check_inputs(conductances, voltages)
        if v.ndim != 1:
            raise ValueError(
                f"voltages must have shape ({g.shape[0]},), got {v.shape}"
            )
        rows, cols = g.shape

        if self.wire_resistance == 0 and self.driver_resistance == 0:
            currents = v @ g
            row_v = np.tile(v[:, None], (1, cols))
            col_v = np.zeros_like(g)
            return SolverResult(currents, row_v, col_v, v.copy())

        g_wire = 1.0 / max(self.wire_resistance, 1e-12)
        g_drv = (
            1.0 / self.driver_resistance if self.driver_resistance > 0 else None
        )

        n = rows * cols
        total = 2 * n  # wordline nodes then bitline nodes

        def r_idx(i: int, j: int) -> int:
            return i * cols + j

        def c_idx(i: int, j: int) -> int:
            return n + i * cols + j

        a = lil_matrix((total, total))
        b = np.zeros(total)

        for i in range(rows):
            for j in range(cols):
                ri, ci = r_idx(i, j), c_idx(i, j)
                gc = g[i, j]
                # Cell between wordline node and bitline node.
                a[ri, ri] += gc
                a[ri, ci] -= gc
                a[ci, ci] += gc
                a[ci, ri] -= gc
                # Wordline segments (horizontal neighbours).
                if j + 1 < cols:
                    rj = r_idx(i, j + 1)
                    a[ri, ri] += g_wire
                    a[ri, rj] -= g_wire
                    a[rj, rj] += g_wire
                    a[rj, ri] -= g_wire
                # Bitline segments (vertical neighbours).
                if i + 1 < rows:
                    cj = c_idx(i + 1, j)
                    a[ci, ci] += g_wire
                    a[ci, cj] -= g_wire
                    a[cj, cj] += g_wire
                    a[cj, ci] -= g_wire

        # Wordline drivers at the left end of each row.
        for i in range(rows):
            ri = r_idx(i, 0)
            if g_drv is None:
                # Ideal source: exact Dirichlet condition on the node.
                a[ri, :] = 0.0
                a[ri, ri] = 1.0
                b[ri] = v[i]
            else:
                a[ri, ri] += g_drv
                b[ri] += g_drv * v[i]

        # Virtual-ground sense at the bottom of each column.
        for j in range(cols):
            cj = c_idx(rows - 1, j)
            a[cj, :] = 0.0
            a[cj, cj] = 1.0
            b[cj] = 0.0

        solution = spsolve(a.tocsr(), b)
        row_v = solution[:n].reshape(rows, cols)
        col_v = solution[n:].reshape(rows, cols)

        cell_currents = (row_v - col_v) * g
        column_currents = cell_currents.sum(axis=0)
        return SolverResult(column_currents, row_v, col_v, v.copy())

    def relative_error(
        self, conductances: np.ndarray, voltages: np.ndarray
    ) -> float:
        """RMS deviation of the parasitic solve from the ideal VMM,
        normalized by the RMS of the ideal current vector.

        This is the quantity swept by the IR-drop ablation benchmark.
        Normalizing by the vector RMS (not per-column magnitudes) keeps
        columns whose ideal current is ~0 — balanced differential pairs,
        zero inputs — from dominating the metric.
        """
        ideal = np.asarray(voltages, dtype=float) @ np.asarray(
            conductances, dtype=float
        )
        actual = self.solve(conductances, voltages).column_currents
        scale = max(float(np.sqrt(np.mean(ideal**2))), 1e-30)
        return float(np.sqrt(np.mean((actual - ideal) ** 2)) / scale)


def sneak_path_read_current(
    conductances: np.ndarray,
    row: int,
    col: int,
    v_read: float = 0.2,
    scheme: str = "floating",
) -> Tuple[float, float]:
    """Read cell ``(row, col)`` and report (measured, ideal) currents.

    ``scheme`` selects the biasing of unselected lines:

    * ``"floating"`` — unselected wordlines/bitlines are left floating, so
      sneak paths through neighbouring cells contribute to the measured
      current.  This is the regime the sneak-path *test* method of [46]
      exploits: the measurement carries information about a whole
      neighbourhood of cells.
    * ``"v/2"`` — unselected lines clamped to ``v_read / 2``, the classic
      half-select write/read scheme that suppresses (most) sneak current.

    Ideal wires are assumed (each line is a single node); wire parasitics
    are the business of :class:`NodalCrossbarSolver`.
    """
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve

    g = np.asarray(conductances, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"conductances must be 2-D, got shape {g.shape}")
    rows, cols = g.shape
    if not (0 <= row < rows and 0 <= col < cols):
        raise IndexError(f"cell ({row}, {col}) outside array {rows}x{cols}")
    check_positive("v_read", v_read)
    if scheme not in ("floating", "v/2"):
        raise ValueError(f"unknown biasing scheme {scheme!r}")

    ideal = v_read * g[row, col]

    # Node ordering: wordlines 0..rows-1, then bitlines rows..rows+cols-1.
    total = rows + cols
    fixed = np.full(total, np.nan)
    fixed[row] = v_read
    fixed[rows + col] = 0.0
    if scheme == "v/2":
        for i in range(rows):
            if i != row:
                fixed[i] = v_read / 2
        for j in range(cols):
            if j != col:
                fixed[rows + j] = v_read / 2

    free = [k for k in range(total) if np.isnan(fixed[k])]
    index_of = {k: idx for idx, k in enumerate(free)}

    if free:
        a = lil_matrix((len(free), len(free)))
        b = np.zeros(len(free))
        for i in range(rows):
            for j in range(cols):
                gc = g[i, j]
                ni, nj = i, rows + j
                for this, other in ((ni, nj), (nj, ni)):
                    if this in index_of:
                        ti = index_of[this]
                        a[ti, ti] += gc
                        if other in index_of:
                            a[ti, index_of[other]] -= gc
                        else:
                            b[ti] += gc * fixed[other]
        solution = spsolve(a.tocsr(), b)
        node_v = fixed.copy()
        for k, idx in index_of.items():
            node_v[k] = solution[idx]
    else:
        node_v = fixed

    # Current into the selected (grounded) bitline from all wordlines.
    measured = float(
        sum(g[i, col] * (node_v[i] - node_v[rows + col]) for i in range(rows))
    )
    return measured, float(ideal)
