"""Stateful memristive crossbar array.

Orientation convention (matching Fig 4(a) of the paper): voltages are
applied to the **rows** (wordlines, index ``i``), currents are collected on
the **columns** (bitlines, index ``j``), and every column computes one MAC:

.. math::

    I_j = \\sum_i V_i \\, G_{ij}

The array is stored as a dense conductance matrix for efficiency, with a
stuck-fault overlay so the fault injector (:mod:`repro.faults.injection`)
can pin individual cells without losing the healthy values underneath —
which is exactly what repair/remapping schemes need to reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.devices.reram import ConductanceLevels
from repro.devices.variability import VariabilityStack
from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass
class CrossbarConfig:
    """Geometry and electrical configuration of a crossbar array."""

    rows: int = 64
    cols: int = 64
    levels: ConductanceLevels = field(default_factory=ConductanceLevels)
    read_voltage: float = 0.2       # V, applied per active wordline
    wire_resistance: float = 0.0    # ohm per segment; 0 = ideal wires

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"crossbar must have positive dimensions, got {self.rows}x{self.cols}"
            )
        check_positive("read_voltage", self.read_voltage)
        if self.wire_resistance < 0:
            raise ValueError(
                f"wire_resistance must be >= 0, got {self.wire_resistance}"
            )


class CrossbarArray:
    """A crossbar of programmable conductances with fault overlay.

    Examples
    --------
    >>> xbar = CrossbarArray(CrossbarConfig(rows=4, cols=3), rng=0)
    >>> g = np.full((4, 3), 5e-5)
    >>> _ = xbar.program(g)
    >>> currents = xbar.vmm(np.array([0.2, 0.2, 0.0, 0.0]))
    >>> np.allclose(currents, 2 * 0.2 * 5e-5)
    True
    """

    def __init__(
        self,
        config: Optional[CrossbarConfig] = None,
        variability: Optional[VariabilityStack] = None,
        rng: RNGLike = None,
    ) -> None:
        self.config = config or CrossbarConfig()
        self.variability = variability or VariabilityStack.ideal()
        self._rng = ensure_rng(rng)
        shape = (self.config.rows, self.config.cols)
        self._g = np.full(shape, self.config.levels.g_min, dtype=float)
        self._stuck_mask = np.zeros(shape, dtype=bool)
        self._stuck_values = np.zeros(shape, dtype=float)
        self._write_counts = np.zeros(shape, dtype=np.int64)
        self._read_ops = 0
        self._write_ops = 0

    # -------------------------------------------------------------- geometry
    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, cols) of the array."""
        return (self.config.rows, self.config.cols)

    @property
    def rows(self) -> int:
        """Number of wordlines."""
        return self.config.rows

    @property
    def cols(self) -> int:
        """Number of bitlines."""
        return self.config.cols

    # ------------------------------------------------------------ fault view
    @property
    def stuck_mask(self) -> np.ndarray:
        """Boolean mask of cells pinned by hard faults (copy)."""
        return self._stuck_mask.copy()

    def stick_cell(self, row: int, col: int, conductance: float) -> None:
        """Pin cell ``(row, col)`` to ``conductance`` (hard fault)."""
        self._check_cell(row, col)
        check_positive("conductance", conductance)
        self._stuck_mask[row, col] = True
        self._stuck_values[row, col] = conductance

    def release_cell(self, row: int, col: int) -> None:
        """Remove a stuck fault from cell ``(row, col)`` (repair model)."""
        self._check_cell(row, col)
        self._stuck_mask[row, col] = False

    def fault_count(self) -> int:
        """Number of stuck cells."""
        return int(self._stuck_mask.sum())

    # ------------------------------------------------------------- the state
    def conductances(self) -> np.ndarray:
        """Effective (fault-overlaid, noise-free) conductance matrix."""
        return np.where(self._stuck_mask, self._stuck_values, self._g)

    def healthy_conductances(self) -> np.ndarray:
        """Programmed conductances *ignoring* the fault overlay (copy)."""
        return self._g.copy()

    # ------------------------------------------------------------ operations
    def program(self, targets: np.ndarray) -> np.ndarray:
        """Program the whole array toward ``targets`` (one pulse per cell).

        Write variation applies; stuck cells silently retain their pinned
        value (the write succeeds electrically but has no effect, as for a
        real stuck-at cell).  Returns the landed healthy conductances.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.shape != self.shape:
            raise ValueError(
                f"targets shape {targets.shape} does not match array {self.shape}"
            )
        if np.any(targets < 0):
            raise ValueError("conductance targets must be non-negative")
        landed = self.variability.write.apply(targets, self._rng)
        lo = self.config.levels.g_min * 0.5
        hi = self.config.levels.g_max * 1.5
        self._g = np.clip(landed, lo, hi)
        self._write_counts += 1
        self._write_ops += 1
        telemetry.current().incr("crossbar.write_ops")
        telemetry.current().incr("crossbar.cells_written", targets.size)
        return self._g.copy()

    def program_row(self, row: int, targets: np.ndarray) -> np.ndarray:
        """Program a single wordline toward ``targets`` (one pulse per cell
        on that row), leaving every other row untouched.

        This is the physical operation behind bit-row writes: re-pulsing
        the rest of the array would both cost energy and re-draw write
        variation on cells nobody addressed.  Stuck cells on the row keep
        their pinned values.  Returns the row's landed healthy
        conductances.
        """
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} outside array with {self.rows} rows")
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (self.cols,):
            raise ValueError(
                f"targets must have shape ({self.cols},), got {targets.shape}"
            )
        if np.any(targets < 0):
            raise ValueError("conductance targets must be non-negative")
        landed = self.variability.write.apply(targets, self._rng)
        lo = self.config.levels.g_min * 0.5
        hi = self.config.levels.g_max * 1.5
        self._g[row] = np.clip(landed, lo, hi)
        self._write_counts[row] += 1
        self._write_ops += 1
        telemetry.current().incr("crossbar.write_ops")
        telemetry.current().incr("crossbar.cells_written", targets.size)
        return self._g[row].copy()

    def write_cell(self, row: int, col: int, target: float) -> float:
        """Program one cell toward ``target`` (single SET/RESET pulse).

        Write variation applies; a stuck cell keeps its pinned value (the
        pulse has no effect).  Returns the cell's effective conductance
        after the write.
        """
        self._check_cell(row, col)
        if target < 0:
            raise ValueError("conductance target must be non-negative")
        self._write_counts[row, col] += 1
        telemetry.current().incr("crossbar.cells_written")
        if not self._stuck_mask[row, col]:
            landed = float(self.variability.write.apply(target, self._rng))
            lo = self.config.levels.g_min * 0.5
            hi = self.config.levels.g_max * 1.5
            self._g[row, col] = float(np.clip(landed, lo, hi))
        return float(self.conductances()[row, col])

    def write_cells(self, mask: np.ndarray, targets: np.ndarray) -> None:
        """Program the masked subset of cells toward ``targets`` in one
        parallel pulse (cells outside ``mask`` are not addressed and keep
        their conductance and write counters).

        Unlike :meth:`program`/:meth:`write_cell` this does **not** apply
        the array's write-variation model: callers own the landed values
        (in-situ training draws its write noise from a dedicated stream so
        its fast path and test-only reference stay bit-identical).  Values are
        clipped to the physical range; stuck cells keep their pinned
        overlay but still count the pulse against endurance.
        """
        mask = np.asarray(mask, dtype=bool)
        targets = np.asarray(targets, dtype=float)
        if mask.shape != self.shape or targets.shape != self.shape:
            raise ValueError(
                f"mask/targets shape {mask.shape}/{targets.shape} does "
                f"not match array {self.shape}"
            )
        n = int(mask.sum())
        if n == 0:
            return
        if np.any(targets[mask] < 0):
            raise ValueError("conductance targets must be non-negative")
        lo = self.config.levels.g_min * 0.5
        hi = self.config.levels.g_max * 1.5
        landed = np.clip(targets, lo, hi)
        write_here = mask & ~self._stuck_mask
        self._g = np.where(write_here, landed, self._g)
        self._write_counts += mask.astype(np.int64)
        self._write_ops += 1
        telemetry.current().incr("crossbar.write_ops")
        telemetry.current().incr("crossbar.cells_written", n)

    def program_with_verify(
        self,
        targets: np.ndarray,
        tolerance: float = 0.02,
        max_iterations: int = 10,
    ) -> int:
        """Closed-loop programming: re-pulse cells whose read-back deviates
        from the target by more than ``tolerance`` (relative).

        Returns the number of full-array iterations used.  Stuck cells can
        never converge and are excluded from the convergence check.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.shape != self.shape:
            raise ValueError(
                f"targets shape {targets.shape} does not match array {self.shape}"
            )
        check_positive("tolerance", tolerance)
        check_positive("max_iterations", max_iterations)
        iterations = 0
        self.program(targets)
        iterations += 1
        for _ in range(max_iterations - 1):
            error = np.abs(self._g - targets) / np.maximum(targets, 1e-30)
            needs_work = (error > tolerance) & ~self._stuck_mask
            if not needs_work.any():
                break
            repulsed = self.variability.write.apply(targets, self._rng)
            self._g = np.where(needs_work, repulsed, self._g)
            lo = self.config.levels.g_min * 0.5
            hi = self.config.levels.g_max * 1.5
            self._g = np.clip(self._g, lo, hi)
            self._write_counts += needs_work.astype(np.int64)
            iterations += 1
        self._write_ops += iterations - 1
        return iterations

    def _observed_conductances(self, noisy: bool) -> np.ndarray:
        """Conductances as one analog evaluation sees them (no counter
        side effects; callers account for their own read operations)."""
        g = self.conductances()
        return self.variability.read.apply(g, self._rng) if noisy else g

    def read_conductances(self) -> np.ndarray:
        """One noisy observation of the full conductance matrix."""
        self._read_ops += 1
        telemetry.current().incr("crossbar.read_ops")
        return self._observed_conductances(True)

    def vmm(self, voltages: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Analog vector-matrix multiply: ``I_j = sum_i V_i G_ij`` (Fig 4a).

        With ``noisy=True`` the conductances seen by the operation carry
        read noise, modelling one analog evaluation.  Counts exactly one
        read operation either way.
        """
        voltages = np.asarray(voltages, dtype=float)
        if voltages.shape != (self.rows,):
            raise ValueError(
                f"voltage vector must have shape ({self.rows},), got {voltages.shape}"
            )
        g = self._observed_conductances(noisy)
        self._read_ops += 1
        telemetry.current().incr("crossbar.read_ops")
        return voltages @ g

    def mvm_batch(self, voltage_matrix: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Batched VMM: each row of ``voltage_matrix`` is one input vector.

        Counts one read operation per input vector.
        """
        voltage_matrix = np.asarray(voltage_matrix, dtype=float)
        if voltage_matrix.ndim != 2 or voltage_matrix.shape[1] != self.rows:
            raise ValueError(
                f"voltage matrix must have shape (batch, {self.rows}), "
                f"got {voltage_matrix.shape}"
            )
        g = self._observed_conductances(noisy)
        self._read_ops += voltage_matrix.shape[0]
        telemetry.current().incr("crossbar.read_ops", voltage_matrix.shape[0])
        return voltage_matrix @ g

    def relax(self, elapsed: float) -> None:
        """Apply conductance drift to all healthy cells."""
        drifted = self.variability.drift.apply(self._g, elapsed)
        self._g = np.where(self._stuck_mask, self._g, drifted)

    # ------------------------------------------------------------ statistics
    @property
    def read_operations(self) -> int:
        """Total analog read/VMM operations performed."""
        return self._read_ops

    @property
    def write_operations(self) -> int:
        """Total full-array program operations performed."""
        return self._write_ops

    def write_counts(self) -> np.ndarray:
        """Per-cell write counters (endurance accounting, copy)."""
        return self._write_counts.copy()

    def dynamic_read_power(self, voltages: np.ndarray) -> Union[float, np.ndarray]:
        """Instantaneous power dissipated in the array for input
        ``voltages``: ``P = sum_ij V_i^2 G_ij``.

        This is the observable that the online changepoint detector of
        [52] (Fig 7) monitors — stuck faults change column conductance and
        therefore shift this power signature.

        ``voltages`` of shape ``(rows,)`` gives one float; ``(batch,
        rows)`` gives the ``(batch,)`` powers of its rows, each bit-equal
        to the 1-D call on that row.  The per-row dot product is a stacked
        matmul (one BLAS dot per row, the same kernel as the 1-D ``@``);
        a single matrix-vector product would round differently.
        """
        voltages = np.asarray(voltages, dtype=float)
        if voltages.ndim not in (1, 2) or voltages.shape[-1] != self.rows:
            raise ValueError(
                f"voltages must have shape ({self.rows},) or "
                f"(batch, {self.rows}), got {voltages.shape}"
            )
        row_sums = self.conductances().sum(axis=1)
        squared = voltages**2
        if squared.ndim == 1:
            return float(squared @ row_sums)
        return (squared[:, None, :] @ row_sums[:, None])[:, 0, 0]

    def _check_cell(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(
                f"cell ({row}, {col}) outside array {self.rows}x{self.cols}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossbarArray({self.rows}x{self.cols}, "
            f"faults={self.fault_count()})"
        )
