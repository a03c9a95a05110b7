"""Quantitative re-derivation of Table I from the machine models.

Table I is qualitative ("Max", "High", "Low" ...).  This module runs the
same VMM workload through analytical models of all four architecture
classes and measures the orderable columns — data moved outside the
memory core, available bandwidth — then checks that the measured ordering
matches the paper's ratings.  The non-measurable columns (design effort,
scalability, alignment) are carried over from the encoded Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.classification import (
    TABLE_I,
    ArchitectureClass,
    Rating,
)
import repro.costs.models as energy_models
from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.vonneumann import VonNeumannMachine, VonNeumannParams
from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.telemetry import RunReport
from repro.utils.validation import check_positive


@dataclass
class WorkloadSpec:
    """The VMM workload all four machines execute."""

    matrix_rows: int = 64
    matrix_cols: int = 32
    batch: int = 16

    def __post_init__(self) -> None:
        if min(self.matrix_rows, self.matrix_cols, self.batch) < 1:
            raise ValueError("workload dimensions must be >= 1")

    @property
    def macs(self) -> int:
        """Total multiply-accumulates in the workload."""
        return self.matrix_rows * self.matrix_cols * self.batch


@dataclass
class ArchitectureMeasurement:
    """Measured workload metrics for one architecture class."""

    architecture: ArchitectureClass
    data_moved_bytes: float
    energy: float
    latency: float
    macs: float = 0.0

    @property
    def effective_bandwidth(self) -> float:
        """Operand throughput the compute engine *sees* (bytes/s): operands
        consumed per second, whether they crossed a bus (COM) or were read
        in place inside the array (CIM)."""
        return np.inf if self.latency == 0 else self._operands / self.latency

    _operands: float = 0.0

    @property
    def energy_per_mac(self) -> float:
        """Average energy per MAC (J): total energy divided by the
        workload's multiply-accumulate count."""
        return self.energy / self.macs if self.macs > 0 else 0.0

    def row(self) -> Dict[str, float]:
        """Printable summary."""
        return {
            "architecture": self.architecture.value,
            "data_moved_bytes": self.data_moved_bytes,
            "effective_bandwidth_GBps": self.effective_bandwidth / 1e9,
            "energy_uJ": self.energy * 1e6,
            "energy_per_mac_pJ": self.energy_per_mac * 1e12,
            "latency_us": self.latency * 1e6,
        }


class ArchitectureComparator:
    """Runs the workload on CIM-A, CIM-P, COM-N and COM-F models."""

    def __init__(self, workload: Optional[WorkloadSpec] = None, rng: RNGLike = None) -> None:
        self.workload = workload or WorkloadSpec()
        self._rng = ensure_rng(rng)

    def _workload_data(self):
        w = self.workload
        gen = self._rng
        weights = gen.uniform(-1, 1, (w.matrix_rows, w.matrix_cols))
        batch = gen.uniform(0, 1, (w.batch, w.matrix_rows))
        return weights, batch

    def measure_cim_a(self) -> ArchitectureMeasurement:
        """CIM-A: analog VMM in the crossbar; only I/O vectors move."""
        w = self.workload
        weights, batch = self._workload_data()
        core = CIMCore(
            CIMCoreParams(rows=w.matrix_rows, logical_cols=w.matrix_cols),
            rng=self._rng,
        )
        with telemetry.nested() as scope:
            core.program_weights(weights)
            for x in batch:
                core.vmm(x, noisy=False)
        report = RunReport.from_counters(scope.counters)
        moved = (w.matrix_rows + w.matrix_cols) * w.batch  # vectors only
        m = ArchitectureMeasurement(
            architecture=ArchitectureClass.CIM_A,
            data_moved_bytes=float(moved),
            energy=report.total_energy,
            latency=report.total_latency,
            macs=float(w.macs),
        )
        # All operands (weights + inputs) are touched in place each VMM.
        m._operands = float(
            (w.matrix_rows * w.matrix_cols + w.matrix_rows) * w.batch
        )
        return m

    def measure_cim_p(self) -> ArchitectureMeasurement:
        """CIM-P: bit-serial VMM using sense-amplifier logic — higher per-
        result cost ("High cost" complex functions) but near-array
        bandwidth."""
        w = self.workload
        weights, batch = self._workload_data()
        core = CIMCore(
            CIMCoreParams(rows=w.matrix_rows, logical_cols=w.matrix_cols),
            rng=self._rng,
        )
        # Bit-serial: 8 input bit-planes per VMM, each a separate analog
        # evaluation sensed in the periphery, plus digital shift-add.
        model = energy_models.active_model()
        with telemetry.nested() as scope:
            core.program_weights(weights)
            for x in batch:
                for _, plane in core.encoder.bit_serial_planes(x):
                    core.array.vmm(plane)
                    model.charge_sense(
                        core.sense_amp.config, n_senses=core.array.cols
                    )
        report = RunReport.from_counters(scope.counters)
        moved = (w.matrix_rows + w.matrix_cols) * w.batch
        m = ArchitectureMeasurement(
            architecture=ArchitectureClass.CIM_P,
            data_moved_bytes=float(moved),
            energy=report.total_energy,
            latency=report.total_latency,
            macs=float(w.macs),
        )
        m._operands = float(
            (w.matrix_rows * w.matrix_cols + w.matrix_rows) * w.batch
        )
        return m

    def measure_com_n(self) -> ArchitectureMeasurement:
        """COM-N: near-memory logic (HBM-style) — weights cross the in-
        package link once; high link bandwidth and low transfer energy."""
        w = self.workload
        weights, batch = self._workload_data()
        machine = VonNeumannMachine(
            VonNeumannParams(
                bus_energy_per_bit=1e-12,    # in-package link
                bus_bandwidth=100e9,
                alu_parallelism=32,
            )
        )
        with telemetry.nested() as scope:
            machine.run_workload(batch, weights, weights_resident=True)
        report = RunReport.from_counters(scope.counters)
        m = ArchitectureMeasurement(
            architecture=ArchitectureClass.COM_N,
            data_moved_bytes=report.total_data_moved,
            energy=report.total_energy,
            latency=report.total_latency,
            macs=float(w.macs),
        )
        # The ALU consumes every operand per VMM even when the weight
        # block is resident near memory (reuse does not reduce demand).
        m._operands = float(
            (w.matrix_rows * w.matrix_cols + w.matrix_rows) * w.batch
        )
        return m

    def measure_com_f(self) -> ArchitectureMeasurement:
        """COM-F: conventional CPU/GPU behind an off-chip bus; the weight
        matrix is re-fetched per vector (cache-thrashing regime)."""
        w = self.workload
        weights, batch = self._workload_data()
        machine = VonNeumannMachine()
        with telemetry.nested() as scope:
            machine.run_workload(batch, weights, weights_resident=False)
        report = RunReport.from_counters(scope.counters)
        m = ArchitectureMeasurement(
            architecture=ArchitectureClass.COM_F,
            data_moved_bytes=report.total_data_moved,
            energy=report.total_energy,
            latency=report.total_latency,
            macs=float(w.macs),
        )
        m._operands = float(
            (w.matrix_rows * w.matrix_cols + w.matrix_rows) * w.batch
        )
        return m

    def measure_all(self) -> Dict[ArchitectureClass, ArchitectureMeasurement]:
        """Workload measurements for all four classes."""
        return {
            ArchitectureClass.CIM_A: self.measure_cim_a(),
            ArchitectureClass.CIM_P: self.measure_cim_p(),
            ArchitectureClass.COM_N: self.measure_com_n(),
            ArchitectureClass.COM_F: self.measure_com_f(),
        }

    def ordering_consistent_with_table_i(
        self,
        measurements: Optional[Dict[ArchitectureClass, ArchitectureMeasurement]] = None,
    ) -> Dict[str, bool]:
        """Check the measured orderings against the paper's ratings:

        * CIM classes move (much) less data outside the core than COM;
        * bandwidth ordering CIM-A >= CIM-P > COM-N > COM-F.
        """
        m = measurements or self.measure_all()
        a, p = m[ArchitectureClass.CIM_A], m[ArchitectureClass.CIM_P]
        n, f = m[ArchitectureClass.COM_N], m[ArchitectureClass.COM_F]
        return {
            "cim_moves_less_data": (
                max(a.data_moved_bytes, p.data_moved_bytes)
                < min(n.data_moved_bytes, f.data_moved_bytes)
            ),
            "bandwidth_order": (
                a.effective_bandwidth
                >= p.effective_bandwidth
                > n.effective_bandwidth
                > f.effective_bandwidth
            ),
        }


def quantitative_table_i(rng: RNGLike = 0) -> List[Dict[str, object]]:
    """Table I with measured columns attached to the qualitative ratings."""
    comparator = ArchitectureComparator(rng=rng)
    measurements = comparator.measure_all()
    rows: List[Dict[str, object]] = []
    for arch, attrs in TABLE_I.items():
        measured = measurements[arch]
        rows.append(
            {
                "architecture": arch.value,
                "data_movement_outside_core": attrs.data_movement_outside_core.value,
                "measured_data_moved_bytes": measured.data_moved_bytes,
                "bandwidth_rating": attrs.available_bandwidth.value,
                "measured_bandwidth_GBps": measured.effective_bandwidth / 1e9,
                "scalability": attrs.scalability.value,
                "design_effort_cells": attrs.design_effort_cells_array.value,
                "design_effort_periphery": attrs.design_effort_periphery.value,
                "design_effort_controller": attrs.design_effort_controller.value,
            }
        )
    return rows
