"""Multi-tile CIM accelerator.

Large weight matrices do not fit one crossbar, and Table I rates CIM-A
scalability *Low* for good reasons (IR drop, ADC cost).  The accelerator
answers with tiling: the matrix is split into ``rows x cols`` blocks, each
block lives on one :class:`~repro.core.cim_core.CIMCore`, partial sums
along the row dimension are accumulated digitally, and column blocks are
concatenated.  This is the standard ISAAC/PRIME organization and the
substrate :mod:`repro.apps.nn` runs DNN layers on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.devices.variability import VariabilityStack
from repro.utils.rng import RNGLike, spawn_rngs

#: A 2-D ``(row_slice, col_slice)`` index.
_Index = Tuple[slice, slice]


@dataclass
class AcceleratorParams:
    """Tiling configuration.

    ``wire_resistance > 0`` makes every tile IR-drop-aware: tile VMMs go
    through the circuit-accurate nodal solver and its fingerprint-keyed
    LU cache (:mod:`repro.crossbar.solver`) instead of the ideal-wire
    matrix product.
    """

    tile_rows: int = 64
    tile_cols: int = 32
    adc_bits: int = 8
    wire_resistance: float = 0.0

    def __post_init__(self) -> None:
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ValueError("tile dimensions must be >= 1")
        if self.adc_bits < 1:
            raise ValueError(f"adc_bits must be >= 1, got {self.adc_bits}")
        if self.wire_resistance < 0:
            raise ValueError(
                f"wire_resistance must be >= 0, got {self.wire_resistance}"
            )


class CIMAccelerator:
    """A grid of CIM cores executing arbitrary-size VMMs."""

    def __init__(
        self,
        weights: np.ndarray,
        params: Optional[AcceleratorParams] = None,
        variability: Optional[VariabilityStack] = None,
        rng: RNGLike = None,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        self.params = params or AcceleratorParams()
        self.weights = weights
        p = self.params
        rows, cols = weights.shape
        self.n_row_blocks = (rows + p.tile_rows - 1) // p.tile_rows
        self.n_col_blocks = (cols + p.tile_cols - 1) // p.tile_cols
        rngs = spawn_rngs(rng, self.n_row_blocks * self.n_col_blocks)
        self.tiles: List[List[CIMCore]] = [
            [
                CIMCore(
                    CIMCoreParams(
                        rows=p.tile_rows,
                        logical_cols=p.tile_cols,
                        adc_bits=p.adc_bits,
                        wire_resistance=p.wire_resistance,
                    ),
                    variability=variability,
                    rng=rngs[bi * self.n_col_blocks + bj],
                )
                for bj in range(self.n_col_blocks)
            ]
            for bi in range(self.n_row_blocks)
        ]
        self.program_weights(weights)

    @property
    def n_tiles(self) -> int:
        """Number of CIM cores in the grid."""
        return self.n_row_blocks * self.n_col_blocks

    def program_weights(self, weights: np.ndarray) -> None:
        """Reprogram the whole tile grid with a new same-shape matrix.

        Every tile re-runs its program-with-verify cycle, so write energy
        and latency are charged exactly as at construction — this is the
        path data-dependent stages (attention's QK^T / AV operands) pay
        per micro-batch.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.weights.shape:
            raise ValueError(
                f"weights shape {weights.shape} does not match the "
                f"allocated grid {self.weights.shape}"
            )
        if np.max(np.abs(weights)) > 1.0 + 1e-9:
            raise ValueError("weights must be pre-scaled to [-1, 1]")
        p = self.params
        for core, window, corner in self.blocks():
            block = np.zeros((p.tile_rows, p.tile_cols))
            block[corner] = weights[window]
            core.program_weights(block)
        self.weights = weights

    def blocks(self) -> Iterator[Tuple[CIMCore, _Index, _Index]]:
        """Every tile in grid order as ``(core, window, corner)``:
        ``window`` indexes the block of the logical matrix the tile holds,
        ``corner`` the same-shape top-left corner of the tile (the rest of
        the tile is zero padding)."""
        p = self.params
        rows, cols = self.weights.shape
        for bi, tile_row in enumerate(self.tiles):
            r0 = bi * p.tile_rows
            r1 = min(r0 + p.tile_rows, rows)
            for bj, core in enumerate(tile_row):
                c0 = bj * p.tile_cols
                c1 = min(c0 + p.tile_cols, cols)
                yield core, np.s_[r0:r1, c0:c1], np.s_[: r1 - r0, : c1 - c0]

    def vmm(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """``y ~ x @ W`` over the tile grid with digital accumulation."""
        x = np.asarray(x, dtype=float)
        rows, cols = self.weights.shape
        if x.shape != (rows,):
            raise ValueError(f"x must have shape ({rows},), got {x.shape}")
        return self.vmm_batch(x[None], noisy)[0]

    def vmm_batch(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Batched ``y ~ x @ W``: each row of ``x`` is one input vector.

        Every tile evaluates its whole batch in one pass
        (:meth:`CIMCore.vmm_batch`), so IR-drop-aware tiles factorize
        their nodal system once per batch instead of once per sample.
        """
        x = np.asarray(x, dtype=float)
        rows, cols = self.weights.shape
        if x.ndim != 2 or x.shape[1] != rows:
            raise ValueError(
                f"x must have shape (batch, {rows}), got {x.shape}"
            )
        if np.any((x < 0) | (x > 1)):
            raise ValueError("inputs must be in [0, 1]")
        p = self.params
        batch = x.shape[0]
        y = np.zeros((batch, self.n_col_blocks * p.tile_cols))
        for bi in range(self.n_row_blocks):
            r0 = bi * p.tile_rows
            r1 = min(r0 + p.tile_rows, rows)
            x_block = np.zeros((batch, p.tile_rows))
            x_block[:, : r1 - r0] = x[:, r0:r1]
            for bj in range(self.n_col_blocks):
                c0 = bj * p.tile_cols
                partial = self.tiles[bi][bj].vmm_batch(x_block, noisy=noisy)
                y[:, c0 : c0 + p.tile_cols] += partial
        return y[:, :cols]

    def inject_yield_faults(self, cell_yield: float, rng: RNGLike = None) -> float:
        """Inject stuck-at-0 faults on every tile for ``cell_yield``;
        returns the realized overall fault rate.  This is the hook the
        accuracy-vs-yield benchmark drives."""
        from repro.faults.injection import FaultInjector

        rngs = spawn_rngs(rng, self.n_tiles)
        total_cells = 0
        total_faults = 0
        k = 0
        for tile_row in self.tiles:
            for core in tile_row:
                injector = FaultInjector(core.array, rng=rngs[k])
                fault_map = injector.inject_for_yield(cell_yield)
                core.invalidate_solver_cache()
                total_faults += fault_map.count
                total_cells += core.array.rows * core.array.cols
                k += 1
        return total_faults / total_cells
