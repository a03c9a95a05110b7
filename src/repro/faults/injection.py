"""Fault injection into crossbar arrays.

The injector turns fault *populations* (rates or yield figures) into
concrete pinned cells on a :class:`~repro.crossbar.array.CrossbarArray`,
keeping a ground-truth :class:`FaultMap` so that test methods
(:mod:`repro.testing`) can be scored for coverage, and fault-tolerance
schemes for recovery quality.

The paper's headline reliability number — "classification accuracy ...
with random stuck-at-0 faults is reduced by 35% when the yield drops to
80%" [38] — is driven through :func:`yield_to_fault_rate` plus
:meth:`FaultInjector.inject_stuck_at`.

Populations are pinned in bulk: the stuck-at, exact-count and endurance
wear-out paths draw their random numbers as whole arrays and pin every
hit cell in one :meth:`~repro.crossbar.array.CrossbarArray.stick_cells`
call.  The generator stream, the fault order (row-major for rate-driven
populations) and the ``faults.injected_cells`` counter are the same as
injecting the cells one at a time.  :meth:`FaultInjector.inject_fault`
stays the path for single faults and for soft faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.faults.defects import Defect, defect_to_fault
from repro.faults.models import Fault, FaultType
from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_probability


#: Fault types that pin their cell to a fixed conductance (the crossbar's
#: stuck overlay).  Every other type is only recorded, except
#: FABRICATION_VARIATION, which also shifts the cell's conductance.
_PINNING = frozenset(
    {
        FaultType.STUCK_AT_0,
        FaultType.STUCK_AT_1,
        FaultType.OVER_FORMING,
        FaultType.ENDURANCE_WEAROUT,
    }
)


def yield_to_fault_rate(cell_yield: float) -> float:
    """Convert cell yield (fraction of good cells) to a fault rate."""
    check_probability("cell_yield", cell_yield)
    return 1.0 - cell_yield


@dataclass
class FaultMap:
    """Ground truth of the injected fault population."""

    shape: Tuple[int, int]
    faults: List[Fault] = field(default_factory=list)

    def check_inside(self, fault: Fault) -> None:
        """Raise ``ValueError`` unless ``fault`` sits on a cell of the map."""
        rows, cols = self.shape
        if not (0 <= fault.row < rows and 0 <= fault.col < cols):
            raise ValueError(
                f"fault at ({fault.row}, {fault.col}) outside {rows}x{cols}"
            )

    def add(self, fault: Fault) -> None:
        """Record one injected fault."""
        self.check_inside(fault)
        self.faults.append(fault)

    @property
    def count(self) -> int:
        """Number of recorded faults."""
        return len(self.faults)

    @property
    def fault_rate(self) -> float:
        """Faulty-cell fraction (distinct cells / array size)."""
        rows, cols = self.shape
        return len(self.cells()) / (rows * cols)

    def cells(self) -> set:
        """Set of distinct faulty cell coordinates."""
        return {(f.row, f.col) for f in self.faults}

    def by_type(self) -> Dict[FaultType, List[Fault]]:
        """Faults grouped by mechanism."""
        groups: Dict[FaultType, List[Fault]] = {}
        for fault in self.faults:
            groups.setdefault(fault.fault_type, []).append(fault)
        return groups

    def mask(self) -> np.ndarray:
        """Boolean (rows, cols) array flagging faulty cells."""
        out = np.zeros(self.shape, dtype=bool)
        for f in self.faults:
            out[f.row, f.col] = True
        return out


class FaultInjector:
    """Injects fault populations into a crossbar and records ground truth."""

    def __init__(self, array: CrossbarArray, rng: RNGLike = None) -> None:
        self.array = array
        self._rng = ensure_rng(rng)
        self.fault_map = FaultMap(shape=array.shape)

    # ------------------------------------------------------------ primitives
    def inject_fault(self, fault: Fault) -> None:
        """Apply one fault to the array (hard faults pin the cell).

        A fault outside the array raises ``ValueError`` before anything
        changes: the array, the fault map and the random stream."""
        self.fault_map.check_inside(fault)
        if fault.fault_type in _PINNING:
            (value,) = self._pinned_values(
                fault.fault_type, [fault.row], [fault.col]
            )
            self.array.stick_cell(fault.row, fault.col, value)
        elif fault.fault_type is FaultType.FABRICATION_VARIATION:
            # Static soft fault: a one-off multiplicative parameter shift.
            factor = float(np.exp(0.3 * self._rng.standard_normal()))
            self.array._g[fault.row, fault.col] *= factor
        # TRANSITION / disturb / coupling faults are behavioural; recording
        # them in the map is enough — test engines query the map for truth
        # and the behavioural processes in faults.models emulate dynamics.
        self.fault_map.add(fault)
        telemetry.current().incr("faults.injected_cells")

    def inject_cells(
        self, fault_type: FaultType, rows: np.ndarray, cols: np.ndarray
    ) -> List[Fault]:
        """Inject ``fault_type`` at the distinct cells ``(rows[i], cols[i])``
        in one bulk pin; returns the recorded faults, in the given order.

        The same outcome as :meth:`inject_fault` cell by cell: a wear-out
        cell sticks at the extreme nearest its conductance, read from one
        snapshot (each pin touches only its own cell).  Only the pinning
        types (stuck-at, over-forming, wear-out) are accepted; soft faults
        go through :meth:`inject_fault`.
        """
        if fault_type not in _PINNING:
            raise ValueError(f"{fault_type} does not pin a cell")
        if len(rows) == 0:
            return []
        return self._pin(
            [fault_type] * len(rows),
            rows,
            cols,
            self._pinned_values(fault_type, rows, cols),
        )

    def _pinned_values(self, fault_type: FaultType, rows, cols) -> np.ndarray:
        """The conductances a :data:`_PINNING` ``fault_type`` pins the
        cells to: the low or high level, or for wear-out the extreme
        nearest each cell's present conductance."""
        levels = self.array.config.levels
        if fault_type is FaultType.STUCK_AT_0:
            return np.full(len(rows), levels.g_min)
        if fault_type is FaultType.ENDURANCE_WEAROUT:
            g = self.array.conductances()[rows, cols]
            midpoint = 0.5 * (levels.g_min + levels.g_max)
            return np.where(g >= midpoint, levels.g_max, levels.g_min)
        return np.full(len(rows), levels.g_max)

    def _pin(
        self,
        fault_types: List[FaultType],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> List[Fault]:
        """Pin distinct cells in one :meth:`CrossbarArray.stick_cells` call,
        record their faults in the given order and count them once."""
        self.array.stick_cells(rows, cols, values)
        faults = list(map(Fault, fault_types, rows.tolist(), cols.tolist()))
        self.fault_map.faults.extend(faults)
        if faults:
            telemetry.current().incr("faults.injected_cells", len(faults))
        return faults

    # ------------------------------------------------------------ populations
    def inject_stuck_at(
        self,
        fault_rate: float,
        sa1_fraction: float = 0.0,
    ) -> FaultMap:
        """Inject random stuck-at faults at ``fault_rate``.

        ``sa1_fraction`` splits the population between SA1 (stuck LRS) and
        SA0 (stuck HRS); the default all-SA0 matches the [38] experiment
        the paper quotes.  The hit cells are drawn as one uniform per
        cell, then one uniform per hit cell picks its polarity, and all
        of them are pinned in one call, recorded in row-major order.
        """
        check_probability("fault_rate", fault_rate)
        check_probability("sa1_fraction", sa1_fraction)
        hit_rows, hit_cols = np.nonzero(
            self._rng.random(self.array.shape) < fault_rate
        )
        is_sa1 = self._rng.random(len(hit_rows)) < sa1_fraction
        levels = self.array.config.levels
        self._pin(
            [
                FaultType.STUCK_AT_1 if sa1 else FaultType.STUCK_AT_0
                for sa1 in is_sa1.tolist()
            ],
            hit_rows,
            hit_cols,
            np.where(is_sa1, levels.g_max, levels.g_min),
        )
        return self.fault_map

    def inject_for_yield(self, cell_yield: float, sa1_fraction: float = 0.0) -> FaultMap:
        """Inject the stuck-at population implied by ``cell_yield``."""
        return self.inject_stuck_at(yield_to_fault_rate(cell_yield), sa1_fraction)

    def inject_exact_count(
        self,
        count: int,
        fault_type: FaultType = FaultType.STUCK_AT_0,
    ) -> FaultMap:
        """Inject exactly ``count`` faults of ``fault_type`` at distinct
        random cells (deterministic population size for benchmarks)."""
        rows, cols = self.array.shape
        if not 0 <= count <= rows * cols:
            raise ValueError(
                f"count must be in [0, {rows * cols}], got {count}"
            )
        flat_rows, flat_cols = np.divmod(
            self._rng.choice(rows * cols, size=count, replace=False), cols
        )
        if fault_type in _PINNING:
            self.inject_cells(fault_type, flat_rows, flat_cols)
        else:
            for r, c in zip(flat_rows.tolist(), flat_cols.tolist()):
                self.inject_fault(Fault(fault_type, r, c))
        return self.fault_map

    def inject_defects(self, defects: List[Defect]) -> FaultMap:
        """Expand physical defects to faults ([45] mapping) and inject."""
        rows, cols = self.array.shape
        for defect in defects:
            for fault in defect_to_fault(defect, rows, cols):
                self.inject_fault(fault)
        return self.fault_map
