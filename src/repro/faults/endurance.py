"""Endurance wear-out over write cycling.

Section III-C: "due to the limited endurance, more devices will be worn
out over time and eventually the number of hard faults will exceed the
ECCs correction capability".  Cell lifetimes are Weibull-distributed
(the standard wear-out statistic); the simulator advances write cycles and
reports the accumulating hard-fault population, which the ECC benchmark
then compares against correction capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import repro.costs.models as energy_models
from repro.crossbar.array import CrossbarArray
from repro.faults.injection import FaultInjector
from repro.faults.models import Fault, FaultType
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass
class EnduranceModel:
    """Weibull cell-lifetime model.

    ``characteristic_life`` is the 63.2%-failure write count; ``shape > 1``
    gives wear-out behaviour (failure rate rising with age).
    """

    characteristic_life: float = 1e7
    shape: float = 2.0

    def __post_init__(self) -> None:
        check_positive("characteristic_life", self.characteristic_life)
        check_positive("shape", self.shape)

    def sample_lifetimes(self, size, rng: RNGLike = None) -> np.ndarray:
        """Draw per-cell lifetimes (in write cycles)."""
        gen = ensure_rng(rng)
        return self.characteristic_life * gen.weibull(self.shape, size=size)

    def failure_probability(self, writes: float) -> float:
        """CDF: probability a cell has failed after ``writes`` cycles.

        Computed as ``-expm1(-x)``: the ``1 - exp(-x)`` form cancels for
        small ``x`` (early life) and returns 0 below ``x ~ 1e-16``."""
        if writes < 0:
            raise ValueError(f"writes must be >= 0, got {writes}")
        return float(-np.expm1(-((writes / self.characteristic_life) ** self.shape)))


class EnduranceSimulator:
    """Advances write cycling on a crossbar and kills expired cells.

    Cells whose cumulative write count crosses their sampled lifetime
    become stuck at the extreme nearest their last conductance — the
    dynamic-hard quadrant of Fig 6.
    """

    def __init__(
        self,
        array: CrossbarArray,
        model: Optional[EnduranceModel] = None,
        rng: RNGLike = None,
    ) -> None:
        self.array = array
        self.model = model or EnduranceModel()
        self._rng = ensure_rng(rng)
        self._lifetimes = self.model.sample_lifetimes(array.shape, self._rng)
        self._writes = np.zeros(array.shape, dtype=float)
        self.injector = FaultInjector(array, rng=self._rng)

    @property
    def write_cycles(self) -> np.ndarray:
        """Per-cell accumulated write cycles (copy)."""
        return self._writes.copy()

    @property
    def dead_cell_count(self) -> int:
        """Cells stuck so far."""
        return self.array.fault_count()

    def cycle(self, writes_per_cell: float = 1.0) -> List[Fault]:
        """Apply ``writes_per_cell`` uniform write cycles; returns the
        newly expired cells' faults.  The write pulses are priced by the
        active energy model and charged to the current telemetry scope."""
        check_positive("writes_per_cell", writes_per_cell)
        rows, cols = self.array.shape
        levels = self.array.config.levels
        model = energy_models.active_model()
        model.charge_programming(
            n_cells=rows * cols,
            iterations=writes_per_cell,
            targets=self.array.conductances() if model.needs_values else None,
            g_min=levels.g_min,
            g_max=levels.g_max,
        )
        return self._advance(np.full(self.array.shape, writes_per_cell))

    def wear(self, writes: np.ndarray) -> List[Fault]:
        """Apply a *per-cell* write-count increment (non-uniform cycling —
        the shape in-situ training produces, where each update pulses only
        the cells whose target moved); returns the newly expired cells'
        faults.  Charges the total pulse count through the active energy
        model, like :meth:`cycle`.
        """
        writes = np.asarray(writes, dtype=float)
        if writes.shape != self.array.shape:
            raise ValueError(
                f"writes shape {writes.shape} does not match array "
                f"{self.array.shape}"
            )
        if writes.min() < 0:
            raise ValueError("per-cell writes must be >= 0")
        total = float(writes.sum())
        if total == 0:
            return []
        rows, cols = self.array.shape
        levels = self.array.config.levels
        model = energy_models.active_model()
        model.charge_programming(
            n_cells=rows * cols,
            iterations=total / (rows * cols),
            targets=self.array.conductances() if model.needs_values else None,
            g_min=levels.g_min,
            g_max=levels.g_max,
        )
        return self._advance(writes)

    def _advance(self, writes: np.ndarray) -> List[Fault]:
        """Advance per-cell write counters and kill expired cells."""
        before = self._writes < self._lifetimes
        self._writes += writes
        now_dead = (self._writes >= self._lifetimes) & before
        now_dead &= ~self.array._stuck_mask
        return self.injector.inject_cells(
            FaultType.ENDURANCE_WEAROUT, *np.nonzero(now_dead)
        )

    def run_until(self, total_writes: float, step: float) -> List[dict]:
        """Cycle in ``step`` increments up to ``total_writes``; returns a
        time series of ``{"writes", "dead_cells", "dead_fraction"}`` rows
        (the curve the ECC-exhaustion benchmark plots)."""
        check_positive("total_writes", total_writes)
        check_positive("step", step)
        rows, cols = self.array.shape
        series = []
        done = 0.0
        while done < total_writes:
            increment = min(step, total_writes - done)
            self.cycle(increment)
            done += increment
            dead = self.dead_cell_count
            series.append(
                {
                    "writes": done,
                    "dead_cells": dead,
                    "dead_fraction": dead / (rows * cols),
                }
            )
        return series
