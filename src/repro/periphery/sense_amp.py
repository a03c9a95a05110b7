"""Sense-amplifier model.

CIM-P designs (Table I) compute in "special circuits in the peripheral
circuit such as customized sense amplifiers" ([20] Scouting Logic, [21]
Pinatubo): instead of a full ADC, a comparator with a programmable
reference discriminates the bitline current, directly yielding OR/AND/XOR
of the activated rows.  The model includes input-referred offset so the
noise-margin discussion of Section II-E is quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class SenseAmpConfig:
    """Comparator parameters (offset in amps, referred to bitline current)."""

    offset_sigma: float = 0.0        # A, Gaussian input-referred offset
    energy_per_sense: float = 2e-15  # J
    area: float = 9.0e-7             # mm^2
    latency: float = 1e-9            # s

    def __post_init__(self) -> None:
        check_non_negative("offset_sigma", self.offset_sigma)
        check_positive("energy_per_sense", self.energy_per_sense)
        check_positive("area", self.area)
        check_positive("latency", self.latency)


class SenseAmplifier:
    """Current comparator with static random offset.

    The offset is drawn once at construction (it is a mismatch property of
    the fabricated instance, not per-operation noise).
    """

    def __init__(self, config: SenseAmpConfig = None, rng: RNGLike = None) -> None:
        self.config = config or SenseAmpConfig()
        gen = ensure_rng(rng)
        self._offset = (
            float(gen.normal(0.0, self.config.offset_sigma))
            if self.config.offset_sigma > 0
            else 0.0
        )
        self._sense_count = 0

    @property
    def offset(self) -> float:
        """This instance's input-referred offset in amps."""
        return self._offset

    @property
    def sense_count(self) -> int:
        """Number of comparisons performed."""
        return self._sense_count

    def compare(self, current: float, reference: float) -> bool:
        """``True`` iff ``current + offset > reference``."""
        self._sense_count += 1
        telemetry.current().incr("sense_amp.compares")
        return (current + self._offset) > reference

    # ------------------------------------------------- scouting-logic senses
    def sense_or(self, currents: Iterable[float], i_lrs: float) -> bool:
        """Scouting-logic OR: any activated cell in LRS pulls the summed
        bitline current above ``i_lrs / 2``."""
        total = float(np.sum(list(currents)))
        return self.compare(total, i_lrs / 2)

    def sense_and(self, currents: Iterable[float], i_lrs: float, n: int) -> bool:
        """Scouting-logic AND over ``n`` activated cells: all must be LRS,
        so the threshold sits between ``(n-1)`` and ``n`` LRS currents."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        total = float(np.sum(list(currents)))
        return self.compare(total, (n - 0.5) * i_lrs)

    def sense_xor2(self, currents: Iterable[float], i_lrs: float) -> bool:
        """Two-input XOR: exactly one of two activated cells in LRS, i.e.
        the current lies in the window ``(0.5, 1.5) * i_lrs``."""
        total = float(np.sum(list(currents)))
        above_half = self.compare(total, 0.5 * i_lrs)
        below_three_halves = not self.compare(total, 1.5 * i_lrs)
        return above_half and below_three_halves
