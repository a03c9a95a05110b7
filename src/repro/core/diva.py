"""DIVA-style processing-in-memory offload ([33, 34], Section II-C).

"Data-intensive Architecture (DIVA) is one of the earliest CIM
architecture prototypes ...  The architecture consists of a host
processor, host memory interface and multiple CIM blocks as
co-processors."

The model captures DIVA's economics: a host executes kernels by hauling
operands over the memory bus (the Fig 1 bottleneck), or *offloads* them to
PIM blocks that compute beside the data, paying only a command/result
round trip.  Data-parallel kernels shard across blocks; the offload win
grows with the data-to-result ratio, and kernels with poor locality or
tiny footprints stay on the host — the classic PIM partitioning decision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.utils.validation import check_positive


class Kernel(enum.Enum):
    """Data-parallel kernels DIVA-class systems offload."""

    VECTOR_ADD = "vector_add"        # c[i] = a[i] + b[i]
    REDUCTION = "reduction"          # sum(a)
    VMM = "vmm"                      # y = x @ W
    POINTER_CHASE = "pointer_chase"  # serial dependent loads (PIM-hostile)


@dataclass(frozen=True)
class KernelShape:
    """Problem size of one kernel invocation."""

    elements: int                 # data elements touched
    result_elements: int          # elements returned to the host

    def __post_init__(self) -> None:
        if self.elements < 1 or self.result_elements < 0:
            raise ValueError("invalid kernel shape")


@dataclass
class DIVAParams:
    """Cost parameters of the host/PIM system."""

    host_bus_energy_per_byte: float = 80e-12   # J (off-chip round trip)
    host_bus_bandwidth: float = 25.6e9         # bytes/s
    host_op_energy: float = 1e-12              # J per element operation
    host_op_rate: float = 4e9                  # element ops/s
    pim_op_energy: float = 0.3e-12             # J (short wires)
    pim_op_rate: float = 1e9                   # per block (slower logic)
    pim_blocks: int = 8
    command_bytes: int = 64                    # offload descriptor
    element_bytes: int = 4

    def __post_init__(self) -> None:
        for name in (
            "host_bus_energy_per_byte",
            "host_bus_bandwidth",
            "host_op_energy",
            "host_op_rate",
            "pim_op_energy",
            "pim_op_rate",
        ):
            check_positive(name, getattr(self, name))
        if self.pim_blocks < 1:
            raise ValueError("pim_blocks must be >= 1")


@dataclass
class ExecutionEstimate:
    """Cost of one kernel on one execution target."""

    target: str
    energy: float
    latency: float
    bytes_moved: float


class DIVASystem:
    """Host + PIM co-processors with an offload decision model."""

    def __init__(self, params: Optional[DIVAParams] = None) -> None:
        self.params = params or DIVAParams()

    # ------------------------------------------------------------ estimates
    def host_estimate(self, kernel: Kernel, shape: KernelShape) -> ExecutionEstimate:
        """Run on the host: all operands cross the memory bus."""
        p = self.params
        operand_bytes = shape.elements * p.element_bytes
        result_bytes = shape.result_elements * p.element_bytes
        moved = operand_bytes + result_bytes
        ops = self._op_count(kernel, shape)
        return ExecutionEstimate(
            target="host",
            energy=moved * p.host_bus_energy_per_byte + ops * p.host_op_energy,
            latency=moved / p.host_bus_bandwidth + ops / p.host_op_rate,
            bytes_moved=moved,
        )

    def pim_estimate(self, kernel: Kernel, shape: KernelShape) -> ExecutionEstimate:
        """Offload: only the command and the result cross the bus.

        Data-parallel kernels shard over the blocks; the pointer chase is
        serial and lands on one block.
        """
        p = self.params
        moved = p.command_bytes + shape.result_elements * p.element_bytes
        ops = self._op_count(kernel, shape)
        parallelism = 1 if kernel is Kernel.POINTER_CHASE else p.pim_blocks
        return ExecutionEstimate(
            target="pim",
            energy=moved * p.host_bus_energy_per_byte + ops * p.pim_op_energy,
            latency=moved / p.host_bus_bandwidth
            + ops / (p.pim_op_rate * parallelism),
            bytes_moved=moved,
        )

    @staticmethod
    def _op_count(kernel: Kernel, shape: KernelShape) -> float:
        if kernel is Kernel.VECTOR_ADD:
            return shape.elements / 2          # one add per output element
        if kernel is Kernel.REDUCTION:
            return shape.elements
        if kernel is Kernel.VMM:
            return shape.elements              # one MAC per weight element
        return shape.elements                  # pointer chase: one load each

    # -------------------------------------------------------------- decision
    def should_offload(self, kernel: Kernel, shape: KernelShape) -> bool:
        """Offload iff PIM wins on latency."""
        return (
            self.pim_estimate(kernel, shape).latency
            < self.host_estimate(kernel, shape).latency
        )

    def speedup(self, kernel: Kernel, shape: KernelShape) -> float:
        """Host latency / PIM latency (> 1 means offloading wins)."""
        return (
            self.host_estimate(kernel, shape).latency
            / self.pim_estimate(kernel, shape).latency
        )

    def energy_ratio(self, kernel: Kernel, shape: KernelShape) -> float:
        """Host energy / PIM energy."""
        return (
            self.host_estimate(kernel, shape).energy
            / self.pim_estimate(kernel, shape).energy
        )

    def workload_report(
        self, sizes: List[int]
    ) -> List[Dict[str, float]]:
        """Sweep kernel sizes; one row per (kernel, size)."""
        rows = []
        for kernel in Kernel:
            for n in sizes:
                result = 1 if kernel is Kernel.REDUCTION else n
                if kernel is Kernel.VMM:
                    result = max(1, int(np.sqrt(n)))
                shape = KernelShape(elements=n, result_elements=result)
                rows.append(
                    {
                        "kernel": kernel.value,
                        "elements": n,
                        "speedup": self.speedup(kernel, shape),
                        "energy_ratio": self.energy_ratio(kernel, shape),
                        "offload": self.should_offload(kernel, shape),
                    }
                )
        return rows
