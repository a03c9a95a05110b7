"""Von-Neumann reference machine (Fig 1a).

"The existing AI processing architectures based on the conventional
von-Neumann architecture ... spend excessive time and energy in moving
massive amount of data between the memory and data paths."  This machine
model makes that quantitative: every VMM operand is fetched over the
memory bus, every result written back, and the charges split
energy/time between *compute* and *data movement* — the Fig 1 bottleneck
(read them from the :func:`~repro.utils.telemetry.scoped` block the
workload ran in).

Default parameters are representative of a DDR-class system: ~10 pJ/bit
off-chip transfer versus ~1 pJ per 8-bit MAC, so movement dominates —
which is exactly the comparison the Fig 1 benchmark prints against the
CIM machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.costs.models as energy_models
from repro.utils import telemetry
from repro.utils.validation import check_positive


@dataclass
class VonNeumannParams:
    """Energy/latency parameters of the memory-bus-coupled machine."""

    bus_energy_per_bit: float = 10e-12      # J/bit, off-chip DRAM access
    bus_bandwidth: float = 25.6e9           # bytes/s
    mac_energy: float = 1e-12               # J per 8-bit MAC in the ALU
    mac_latency: float = 0.5e-9             # s per MAC (scalar core)
    alu_parallelism: int = 16               # MACs per cycle (SIMD width)
    word_bytes: int = 1                     # operand size (8-bit)

    def __post_init__(self) -> None:
        check_positive("bus_energy_per_bit", self.bus_energy_per_bit)
        check_positive("bus_bandwidth", self.bus_bandwidth)
        check_positive("mac_energy", self.mac_energy)
        check_positive("mac_latency", self.mac_latency)
        if self.alu_parallelism < 1:
            raise ValueError(
                f"alu_parallelism must be >= 1, got {self.alu_parallelism}"
            )
        if self.word_bytes < 1:
            raise ValueError(f"word_bytes must be >= 1, got {self.word_bytes}")


class VonNeumannMachine:
    """Executes VMM workloads, charging every operand to the bus."""

    def __init__(self, params: Optional[VonNeumannParams] = None) -> None:
        self.params = params or VonNeumannParams()

    def vmm(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Compute ``x @ w``, accounting movement of x, w and the result
        plus the ALU MAC work."""
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        if x.ndim != 1 or w.ndim != 2 or x.shape[0] != w.shape[0]:
            raise ValueError(
                f"shape mismatch: x {x.shape} vs w {w.shape}"
            )
        p = self.params
        rows, cols = w.shape
        model = energy_models.active_model()
        # Fetch the full weight matrix and input vector; write the result.
        # The weight block dominates the payload, so value-aware wire
        # pricing keys on its density.
        model.charge_movement(
            p,
            n_bytes=(rows * cols + rows + cols) * p.word_bytes,
            values=w,
        )
        macs = rows * cols
        model.charge_compute(p, macs=macs)
        telemetry.current().incr("vonneumann.vmm_calls")
        telemetry.current().incr("vonneumann.macs", macs)
        return x @ w

    def run_workload(
        self, batch: np.ndarray, w: np.ndarray, weights_resident: bool = False
    ) -> np.ndarray:
        """A batch of VMMs against one weight matrix.

        ``weights_resident=True`` models an on-chip weight cache: the
        matrix crosses the bus once instead of per-vector (this is what
        COM-N effectively buys; COM-F refetches under cache pressure).
        """
        batch = np.asarray(batch, dtype=float)
        w = np.asarray(w, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != w.shape[0]:
            raise ValueError(
                f"shape mismatch: batch {batch.shape} vs w {w.shape}"
            )
        p = self.params
        rows, cols = w.shape
        outputs = np.empty((batch.shape[0], cols))
        model = energy_models.active_model()
        if weights_resident:
            model.charge_movement(
                p, n_bytes=rows * cols * p.word_bytes, values=w
            )
        for i, x in enumerate(batch):
            if weights_resident:
                model.charge_movement(
                    p,
                    n_bytes=(rows + cols) * p.word_bytes,
                    values=x,
                )
                macs = rows * cols
                model.charge_compute(p, macs=macs)
                telemetry.current().incr("vonneumann.vmm_calls")
                telemetry.current().incr("vonneumann.macs", macs)
                outputs[i] = x @ w
            else:
                outputs[i] = self.vmm(x, w)
        return outputs
