"""Multilevel ReRAM cell model.

The paper (Section II-B1) describes the ReRAM cell as a programmable
resistance that "is typically quantized into N levels.  Noise margin and
guard bands are added to each level" [30].  This module provides:

* :class:`ConductanceLevels` — the level ladder with noise margins and
  guard bands;
* :class:`ReRAMCell` — a single cell with forming, program (SET/RESET to a
  level), read, endurance wear-out, and hooks for the variability stack.

Cells degrade realistically: after the endurance budget is exhausted a cell
becomes *stuck* at an extreme conductance — exactly the hard-fault behaviour
Section III attributes to "limited endurance" [44].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.devices.variability import VariabilityStack
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


@dataclass
class ConductanceLevels:
    """Quantized conductance ladder with noise margins and guard bands.

    Levels are evenly spaced in conductance between ``g_min`` (level 0, the
    high-resistive state) and ``g_max`` (level ``n_levels - 1``, the
    low-resistive state).  Each level owns a *noise margin*: the band
    ``[target - nm, target + nm]`` inside which a read-back value is
    accepted as that level.  The remaining space between adjacent noise
    margins is the *guard band*; values landing there are ambiguous.
    """

    g_min: float = 1e-6          # siemens, HRS (1 Mohm)
    g_max: float = 1e-4          # siemens, LRS (10 kohm)
    n_levels: int = 2
    noise_margin_fraction: float = 0.35   # fraction of level spacing on each side

    def __post_init__(self) -> None:
        check_positive("g_min", self.g_min)
        check_positive("g_max", self.g_max)
        if self.g_max <= self.g_min:
            raise ValueError(
                f"g_max ({self.g_max}) must exceed g_min ({self.g_min})"
            )
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        check_in_range(
            "noise_margin_fraction", self.noise_margin_fraction, 0.0, 0.5
        )

    @property
    def spacing(self) -> float:
        """Conductance distance between adjacent level targets."""
        return (self.g_max - self.g_min) / (self.n_levels - 1)

    @property
    def noise_margin(self) -> float:
        """Half-width of the acceptance band around each level target."""
        return self.noise_margin_fraction * self.spacing

    def targets(self) -> np.ndarray:
        """Target conductance of every level, ascending."""
        return np.linspace(self.g_min, self.g_max, self.n_levels)

    def target(self, level: int) -> float:
        """Target conductance of ``level``."""
        self._check_level(level)
        return float(self.g_min + level * self.spacing)

    def quantize(self, conductance: float) -> int:
        """Nearest level to ``conductance`` (what an ideal ADC would output)."""
        level = int(round((conductance - self.g_min) / self.spacing))
        return int(np.clip(level, 0, self.n_levels - 1))

    def in_noise_margin(self, conductance: float, level: int) -> bool:
        """Whether ``conductance`` reads back unambiguously as ``level``."""
        self._check_level(level)
        return abs(conductance - self.target(level)) <= self.noise_margin

    def in_guard_band(self, conductance: float) -> bool:
        """Whether ``conductance`` falls between noise margins (ambiguous)."""
        if conductance < self.g_min - self.noise_margin:
            return False
        if conductance > self.g_max + self.noise_margin:
            return False
        nearest = self.quantize(conductance)
        return not self.in_noise_margin(conductance, nearest)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.n_levels:
            raise ValueError(
                f"level must be in [0, {self.n_levels - 1}], got {level}"
            )


@dataclass
class ReRAMCellParams:
    """Electrical and lifetime parameters of one ReRAM cell."""

    levels: ConductanceLevels = field(default_factory=ConductanceLevels)
    set_voltage: float = 2.0        # V, SET (toward LRS)
    reset_voltage: float = -2.0     # V, RESET (toward HRS)
    read_voltage: float = 0.2       # V, non-destructive read
    forming_voltage: float = 3.5    # V, one-time forming
    endurance: int = 10**7          # write cycles before hard wear-out
    over_forming_probability: float = 0.0  # chance forming leaves cell stuck

    def __post_init__(self) -> None:
        check_positive("set_voltage", self.set_voltage)
        if self.reset_voltage >= 0:
            raise ValueError(
                f"reset_voltage must be negative, got {self.reset_voltage}"
            )
        check_positive("read_voltage", self.read_voltage)
        check_positive("forming_voltage", self.forming_voltage)
        if self.endurance < 1:
            raise ValueError(f"endurance must be >= 1, got {self.endurance}")
        check_probability(
            "over_forming_probability", self.over_forming_probability
        )
        if self.read_voltage >= self.set_voltage:
            raise ValueError(
                "read_voltage must be below set_voltage for non-destructive reads"
            )


class CellError(RuntimeError):
    """Raised on illegal cell operations (e.g. programming before forming)."""


class ReRAMCell:
    """One multilevel ReRAM cell with forming, endurance and stuck faults.

    The cell starts unformed (pristine, very high resistance).  After
    :meth:`form` it can be programmed to any of ``n_levels`` conductance
    levels and read back.  Exceeding the endurance budget, or an unlucky
    forming step, leaves the cell *stuck* at an extreme level — matching
    the paper's observation that "ReRAM cells with stuck-at faults tend to
    get stuck at the highest and lowest value, i.e., SA0 or SA1".
    """

    #: Conductance of a pristine (unformed) cell: essentially open.
    PRISTINE_CONDUCTANCE = 1e-9

    def __init__(
        self,
        params: Optional[ReRAMCellParams] = None,
        variability: Optional[VariabilityStack] = None,
        rng: RNGLike = None,
    ) -> None:
        self.params = params or ReRAMCellParams()
        self.variability = variability or VariabilityStack.ideal()
        self._rng = ensure_rng(rng)
        self._formed = False
        self._stuck_level: Optional[int] = None
        self._conductance = self.PRISTINE_CONDUCTANCE
        self._write_count = 0
        self._read_count = 0

    # ------------------------------------------------------------------ state
    @property
    def formed(self) -> bool:
        """Whether the one-time forming step has been performed."""
        return self._formed

    @property
    def stuck(self) -> bool:
        """Whether the cell has a hard stuck-at fault."""
        return self._stuck_level is not None

    @property
    def stuck_level(self) -> Optional[int]:
        """The level the cell is stuck at, or ``None`` if healthy."""
        return self._stuck_level

    @property
    def conductance(self) -> float:
        """True (noise-free) conductance; use :meth:`read` for observations."""
        return self._conductance

    @property
    def write_count(self) -> int:
        """Number of program operations performed so far."""
        return self._write_count

    @property
    def read_count(self) -> int:
        """Number of read operations performed so far."""
        return self._read_count

    @property
    def writes_remaining(self) -> int:
        """Write cycles left before endurance wear-out."""
        return max(0, self.params.endurance - self._write_count)

    # ------------------------------------------------------------- operations
    def form(self) -> None:
        """Perform the one-time forming step (pristine -> LRS).

        With probability ``over_forming_probability`` the filament
        over-forms and the cell is permanently stuck at the highest level —
        the "over-forming defect" of Section III-A.
        """
        if self._formed:
            raise CellError("cell is already formed")
        self._formed = True
        top = self.params.levels.n_levels - 1
        if self._rng.random() < self.params.over_forming_probability:
            self._stuck_level = top
            self._conductance = self.params.levels.target(top)
        else:
            self._conductance = self.params.levels.target(top)

    def program(self, level: int) -> float:
        """Program the cell to ``level`` with write variation; returns the
        actually landed conductance.

        Counts against the endurance budget.  When the budget is exhausted
        the cell wears out and sticks at the extreme level nearest its
        current conductance.
        """
        if not self._formed:
            raise CellError("cell must be formed before programming")
        self.params.levels._check_level(level)
        self._write_count += 1
        if self.stuck:
            return self._conductance
        if self._write_count > self.params.endurance:
            self._wear_out()
            return self._conductance
        target = self.params.levels.target(level)
        landed = float(self.variability.write.apply(target, self._rng))
        self._conductance = float(
            np.clip(landed, self.params.levels.g_min * 0.5,
                    self.params.levels.g_max * 1.5)
        )
        return self._conductance

    def program_with_verify(self, level: int, max_iterations: int = 10) -> int:
        """Program-and-verify loop: reprogram until the read-back lands in
        the level's noise margin or ``max_iterations`` is hit.

        Returns the number of program pulses used.  This is the standard
        closed-loop tuning scheme that trades write energy/latency for
        precision.

        The level target, clip bounds and noise margin are hoisted out of
        the iteration and the per-pulse program step is inlined, drawing
        from ``self._rng`` one variation at a time exactly as
        :meth:`program` does — so the pulse count, landed conductance,
        write counter, wear-out behaviour *and the generator state
        afterwards* are all bit-identical to
        :meth:`_program_with_verify_stepped`.
        """
        check_positive("max_iterations", max_iterations)
        if not self._formed:
            raise CellError("cell must be formed before programming")
        levels = self.params.levels
        levels._check_level(level)
        target = levels.target(level)
        margin = levels.noise_margin
        g_lo, g_hi = levels.g_min * 0.5, levels.g_max * 1.5
        endurance = self.params.endurance
        write = self.variability.write
        rng = self._rng
        pulses = 0
        for _ in range(max_iterations):
            self._write_count += 1
            pulses += 1
            if self.stuck:
                break
            if self._write_count > endurance:
                self._wear_out()
                break
            landed = float(write.apply(target, rng))
            g = landed if g_lo <= landed <= g_hi else (
                g_lo if landed < g_lo else g_hi
            )
            self._conductance = g
            if abs(g - target) <= margin:
                break
        return pulses

    def _program_with_verify_stepped(
        self, level: int, max_iterations: int = 10
    ) -> int:
        """Reference write-verify loop: one :meth:`program` call per
        pulse."""
        check_positive("max_iterations", max_iterations)
        pulses = 0
        for _ in range(max_iterations):
            self.program(level)
            pulses += 1
            if self.stuck:
                break
            if self.params.levels.in_noise_margin(self._conductance, level):
                break
        return pulses

    def read(self) -> float:
        """One noisy conductance observation."""
        if not self._formed:
            raise CellError("cell must be formed before reading")
        self._read_count += 1
        return float(self.variability.read.apply(self._conductance, self._rng))

    def read_level(self) -> int:
        """Read and quantize to the nearest level."""
        return self.params.levels.quantize(self.read())

    def relax(self, elapsed: float) -> None:
        """Apply conductance drift over ``elapsed`` seconds of idle time."""
        if self.stuck:
            return
        self._conductance = float(
            self.variability.drift.apply(self._conductance, elapsed)
        )

    def force_stuck(self, level: int) -> None:
        """Inject a hard stuck-at fault (used by the fault injector)."""
        self.params.levels._check_level(level)
        self._formed = True
        self._stuck_level = level
        self._conductance = self.params.levels.target(level)

    # -------------------------------------------------------------- internals
    def _wear_out(self) -> None:
        levels = self.params.levels
        midpoint = 0.5 * (levels.g_min + levels.g_max)
        level = levels.n_levels - 1 if self._conductance >= midpoint else 0
        self._stuck_level = level
        self._conductance = levels.target(level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "stuck" if self.stuck else ("formed" if self._formed else "pristine")
        return (
            f"ReRAMCell(g={self._conductance:.3e} S, {status}, "
            f"writes={self._write_count})"
        )
