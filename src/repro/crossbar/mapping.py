"""Weight-to-conductance mapping schemes and input encodings.

Crossbar conductances are physically non-negative and bounded
(``[g_min, g_max]``), while neural-network weights are signed reals.  This
module implements the three standard encodings used by CIM accelerators
(ISAAC [32], PRIME [12]):

* :class:`DifferentialPairMapping` — two columns per logical output,
  ``w = (g+ - g-)``; robust, 2x column cost;
* :class:`OffsetColumnMapping` — one shared reference column per array,
  ``w = g - g_ref``; cheap, but the reference must track variation;
* :class:`BitSlicedMapping` — weights quantized to ``B`` bits and spread
  over ``B / bits_per_cell`` column slices, recombined digitally with
  shift-and-add (the scheme that lets 2-level cells implement multi-bit
  weights).

:class:`InputEncoder` provides the matching input-side encodings: analog
amplitude and bit-serial pulse trains (DAC-free operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.devices.reram import ConductanceLevels
from repro.utils.validation import check_positive


@dataclass
class DifferentialPairMapping:
    """Signed weights as conductance *pairs*: ``w ~ g_pos - g_neg``.

    Positive weights raise ``g_pos`` above ``g_min``; negative weights
    raise ``g_neg``.  Decoding subtracts paired column currents.
    """

    levels: ConductanceLevels = field(default_factory=ConductanceLevels)
    w_max: float = 1.0

    def __post_init__(self) -> None:
        check_positive("w_max", self.w_max)

    @property
    def columns_per_weight(self) -> int:
        """Physical columns consumed per logical output column."""
        return 2

    @property
    def _g_span(self) -> float:
        return self.levels.g_max - self.levels.g_min

    def map(self, weights: np.ndarray) -> np.ndarray:
        """Map ``(rows, cols)`` signed weights to ``(rows, 2*cols)``
        conductance targets, positive column first in each pair."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if np.max(np.abs(w)) > self.w_max * (1 + 1e-9):
            raise ValueError(
                f"weights exceed w_max={self.w_max}; rescale before mapping"
            )
        scale = self._g_span / self.w_max
        g_pos = self.levels.g_min + np.clip(w, 0, None) * scale
        g_neg = self.levels.g_min + np.clip(-w, 0, None) * scale
        rows, cols = w.shape
        out = np.empty((rows, 2 * cols))
        out[:, 0::2] = g_pos
        out[:, 1::2] = g_neg
        return out

    def decode(self, currents: np.ndarray, voltages: np.ndarray,
               v_scale: float = 1.0) -> np.ndarray:
        """Recover ``x @ W`` from physical column currents.

        ``voltages`` is accepted for interface uniformity (the differential
        scheme does not need the input sum); ``v_scale`` is the volts-per-
        unit-input factor of the input encoder.
        """
        currents = np.asarray(currents, dtype=float)
        if currents.shape[-1] % 2 != 0:
            raise ValueError("differential decode needs an even column count")
        diff = currents[..., 0::2] - currents[..., 1::2]
        return diff * self.w_max / (self._g_span * v_scale)


@dataclass
class OffsetColumnMapping:
    """Signed weights via a global offset and one reference column.

    Every weight maps to ``g = g_min + (w + w_max) / (2 w_max) * span``;
    a single extra column holds the ``w = 0`` conductance and its current
    is subtracted from every logical column at decode time.
    """

    levels: ConductanceLevels = field(default_factory=ConductanceLevels)
    w_max: float = 1.0

    def __post_init__(self) -> None:
        check_positive("w_max", self.w_max)

    @property
    def columns_per_weight(self) -> int:
        """Amortized physical columns per logical column (excludes the one
        shared reference column)."""
        return 1

    @property
    def _g_span(self) -> float:
        return self.levels.g_max - self.levels.g_min

    @property
    def reference_conductance(self) -> float:
        """Conductance representing weight zero."""
        return self.levels.g_min + 0.5 * self._g_span

    def map(self, weights: np.ndarray) -> np.ndarray:
        """Map ``(rows, cols)`` weights to ``(rows, cols + 1)`` targets;
        the final column is the reference."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if np.max(np.abs(w)) > self.w_max * (1 + 1e-9):
            raise ValueError(
                f"weights exceed w_max={self.w_max}; rescale before mapping"
            )
        g = self.levels.g_min + (w + self.w_max) / (2 * self.w_max) * self._g_span
        ref = np.full((w.shape[0], 1), self.reference_conductance)
        return np.hstack([g, ref])

    def decode(self, currents: np.ndarray, voltages: np.ndarray,
               v_scale: float = 1.0) -> np.ndarray:
        """Recover ``x @ W``; the last physical column is the reference."""
        currents = np.asarray(currents, dtype=float)
        ref = currents[..., -1:]
        diff = currents[..., :-1] - ref
        return diff * 2 * self.w_max / (self._g_span * v_scale)


@dataclass
class BitSlicedMapping:
    """Multi-bit weights spread over binary-significance column slices.

    Weights are quantized to ``weight_bits`` (offset-binary) and split into
    ``weight_bits / bits_per_cell`` digits; each digit occupies one column
    slice using a ``2**bits_per_cell``-level cell.  Decoding performs the
    digital shift-and-add and removes the offset using the input sum —
    this is the ISAAC [32] arrangement.
    """

    levels: ConductanceLevels = field(default_factory=ConductanceLevels)
    w_max: float = 1.0
    weight_bits: int = 8
    bits_per_cell: int = 2

    def __post_init__(self) -> None:
        check_positive("w_max", self.w_max)
        if self.weight_bits < 2:
            raise ValueError(f"weight_bits must be >= 2, got {self.weight_bits}")
        if self.bits_per_cell < 1:
            raise ValueError(
                f"bits_per_cell must be >= 1, got {self.bits_per_cell}"
            )
        if self.weight_bits % self.bits_per_cell != 0:
            raise ValueError(
                f"weight_bits ({self.weight_bits}) must be divisible by "
                f"bits_per_cell ({self.bits_per_cell})"
            )
        required_levels = 2**self.bits_per_cell
        if self.levels.n_levels < required_levels:
            raise ValueError(
                f"cell ladder has {self.levels.n_levels} levels but "
                f"{self.bits_per_cell} bits/cell needs {required_levels}"
            )

    @property
    def n_slices(self) -> int:
        """Column slices per logical column."""
        return self.weight_bits // self.bits_per_cell

    @property
    def columns_per_weight(self) -> int:
        """Physical columns per logical output column."""
        return self.n_slices

    @property
    def _digit_base(self) -> int:
        return 2**self.bits_per_cell

    @property
    def _q_max(self) -> int:
        return 2 ** (self.weight_bits - 1) - 1

    def quantize(self, weights: np.ndarray) -> np.ndarray:
        """Quantize weights to signed integers in ``[-q_max, q_max]``."""
        w = np.asarray(weights, dtype=float)
        q = np.round(w / self.w_max * self._q_max)
        return np.clip(q, -self._q_max, self._q_max).astype(np.int64)

    def map(self, weights: np.ndarray) -> np.ndarray:
        """Map ``(rows, cols)`` weights to ``(rows, cols * n_slices)``
        conductance targets; slices ordered most-significant first."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if np.max(np.abs(w)) > self.w_max * (1 + 1e-9):
            raise ValueError(
                f"weights exceed w_max={self.w_max}; rescale before mapping"
            )
        q = self.quantize(w)
        offset = 2 ** (self.weight_bits - 1)
        u = q + offset  # offset binary, in [1, 2**weight_bits - 1]
        rows, cols = w.shape
        base = self._digit_base
        level_span = self.levels.g_max - self.levels.g_min
        digit_max = base - 1
        out = np.empty((rows, cols * self.n_slices))
        remaining = u.copy()
        for s in range(self.n_slices - 1, -1, -1):
            digit = remaining % base
            remaining //= base
            g = self.levels.g_min + digit / digit_max * level_span
            out[:, s::self.n_slices] = g
        return out

    def decode(self, currents: np.ndarray, voltages: np.ndarray,
               v_scale: float = 1.0) -> np.ndarray:
        """Recover ``x @ W`` via digital shift-and-add over slices.

        Needs ``voltages`` to cancel both the ``g_min`` floor and the
        offset-binary bias (each contributes ``sum(V)``-proportional
        current).
        """
        currents = np.asarray(currents, dtype=float)
        voltages = np.asarray(voltages, dtype=float)
        v_sum = voltages.sum(axis=-1) if voltages.ndim > 1 else voltages.sum()
        if currents.shape[-1] % self.n_slices != 0:
            raise ValueError(
                f"column count {currents.shape[-1]} is not a multiple of "
                f"n_slices={self.n_slices}"
            )
        base = self._digit_base
        digit_max = base - 1
        level_span = self.levels.g_max - self.levels.g_min
        v_sum_arr = np.asarray(v_sum)[..., None]
        acc = 0.0
        for s in range(self.n_slices):
            slice_currents = currents[..., s::self.n_slices]
            digit_dot = (
                (slice_currents - self.levels.g_min * v_sum_arr)
                * digit_max / level_span
            )
            acc = acc * base + digit_dot
        offset = 2 ** (self.weight_bits - 1)
        q_dot = acc - offset * v_sum_arr
        return q_dot * self.w_max / (self._q_max * v_scale)


class InputEncoder:
    """Input-side encodings for crossbar VMM.

    * ``amplitude`` — a DAC drives each wordline with ``x_i * v_read``
      (one analog step);
    * ``bit-serial`` — inputs quantized to ``input_bits`` and applied one
      bit-plane at a time with binary voltages, results combined digitally
      (``input_bits`` steps, but only a 1-bit driver is needed — the DAC
      simplification discussed with Fig 4(b)).
    """

    def __init__(self, v_read: float = 0.2, input_bits: int = 8) -> None:
        check_positive("v_read", v_read)
        if input_bits < 1:
            raise ValueError(f"input_bits must be >= 1, got {input_bits}")
        self.v_read = v_read
        self.input_bits = input_bits

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        """Analog amplitude encoding of inputs in ``[0, 1]`` (elementwise,
        so one call encodes a whole ``(batch, rows)`` input matrix)."""
        x = np.asarray(x, dtype=float)
        if np.any((x < 0) | (x > 1)):
            raise ValueError("amplitude encoding requires inputs in [0, 1]")
        return x * self.v_read

    def bit_serial_planes(self, x: np.ndarray) -> List[Tuple[float, np.ndarray]]:
        """Decompose inputs in ``[0, 1]`` into ``input_bits`` binary
        voltage planes.

        Returns ``[(scale, plane_voltages), ...]`` most-significant first;
        the reconstructed dot product is ``sum(scale * dot(plane))``.
        """
        x = np.asarray(x, dtype=float)
        if np.any((x < 0) | (x > 1)):
            raise ValueError("bit-serial encoding requires inputs in [0, 1]")
        q_max = 2**self.input_bits - 1
        q = np.clip(np.round(x * q_max), 0, q_max).astype(np.int64)
        planes = []
        for b in range(self.input_bits - 1, -1, -1):
            bit = ((q >> b) & 1).astype(float)
            scale = 2**b / q_max
            planes.append((scale, bit * self.v_read))
        return planes

    def bit_serial_combine(self, plane_currents: List[Tuple[float, np.ndarray]]) -> np.ndarray:
        """Digitally recombine per-plane column currents."""
        total = None
        for scale, currents in plane_currents:
            term = scale * np.asarray(currents, dtype=float)
            total = term if total is None else total + term
        if total is None:
            raise ValueError("no planes supplied")
        return total
