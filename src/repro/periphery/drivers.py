"""Row decoder and wordline driver models.

Section II-B2: in a CIM core the "row-decoder becomes complex as it
involves enabling several rows in parallel".  The decoder here supports
multi-row activation masks and carries the hook through which *address
decoder faults* (ADF, Section III-A) are injected: a faulty decoder maps an
address to the wrong wordline, to no wordline, or to multiple wordlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.utils import telemetry
from repro.utils.validation import check_positive


@dataclass
class DriverConfig:
    """Cost parameters for decoder + driver stack."""

    energy_per_activation: float = 5e-15   # J per driven wordline event
    area_per_row: float = 2.4e-7           # mm^2 per wordline driver
    latency: float = 0.5e-9                # s decode + drive settle

    def __post_init__(self) -> None:
        check_positive("energy_per_activation", self.energy_per_activation)
        check_positive("area_per_row", self.area_per_row)
        check_positive("latency", self.latency)


class RowDecoder:
    """Address decoder with optional injected address-decoder faults.

    ``fault_map`` remaps an input address to a (possibly empty or
    multi-element) set of actually activated rows, implementing the four
    classic ADF types: no access, wrong row, multiple rows, shared row.
    """

    def __init__(self, n_rows: int, config: Optional[DriverConfig] = None) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.n_rows = n_rows
        self.config = config or DriverConfig()
        self._fault_map: Dict[int, Sequence[int]] = {}

    def inject_fault(self, address: int, actual_rows: Sequence[int]) -> None:
        """Make ``address`` activate ``actual_rows`` instead of itself."""
        self._check_address(address)
        for row in actual_rows:
            self._check_address(row)
        self._fault_map[address] = tuple(actual_rows)

    def clear_faults(self) -> None:
        """Remove all injected decoder faults."""
        self._fault_map.clear()

    @property
    def has_faults(self) -> bool:
        """Whether any decoder fault is injected."""
        return bool(self._fault_map)

    def decode(self, address: int) -> np.ndarray:
        """One-hot (or faulty multi/zero-hot) activation vector."""
        self._check_address(address)
        rows = self._fault_map.get(address, (address,))
        mask = np.zeros(self.n_rows, dtype=bool)
        for row in rows:
            mask[row] = True
        return mask

    def decode_many(self, addresses: Sequence[int]) -> np.ndarray:
        """Union of activations for a parallel multi-row access."""
        mask = np.zeros(self.n_rows, dtype=bool)
        for address in addresses:
            mask |= self.decode(address)
        telemetry.current().incr("decoder.decodes", len(addresses))
        return mask

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.n_rows:
            raise ValueError(
                f"address must be in [0, {self.n_rows - 1}], got {address}"
            )


class WordlineDriver:
    """Applies voltages to the activated wordlines and counts activations
    (the energy model prices them)."""

    def __init__(self, n_rows: int, config: Optional[DriverConfig] = None) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.n_rows = n_rows
        self.config = config or DriverConfig()
        self._activations = 0

    @property
    def area(self) -> float:
        """Total driver area (mm^2)."""
        return self.config.area_per_row * self.n_rows

    @property
    def activations(self) -> int:
        """Total wordline activation events so far."""
        return self._activations

    def drive(self, mask: np.ndarray, voltage: float) -> np.ndarray:
        """Voltage vector for the array: ``voltage`` on active rows, 0
        elsewhere."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise ValueError(
                f"mask must have shape ({self.n_rows},), got {mask.shape}"
            )
        active = int(mask.sum())
        self._activations += active
        telemetry.current().incr("driver.activations", active)
        return np.where(mask, voltage, 0.0)

    def drive_analog(self, voltages: np.ndarray) -> np.ndarray:
        """Arbitrary per-row analog voltages (DAC-driven mode).

        ``voltages`` is one wordline vector ``(rows,)`` or a batch of them
        ``(batch, rows)``; a batch counts the same activations as driving
        its vectors one at a time.
        """
        voltages = np.asarray(voltages, dtype=float)
        if voltages.ndim not in (1, 2) or voltages.shape[-1] != self.n_rows:
            raise ValueError(
                f"voltages must have shape ({self.n_rows},) or "
                f"(batch, {self.n_rows}), got {voltages.shape}"
            )
        active = int(np.count_nonzero(voltages))
        self._activations += active
        telemetry.current().incr("driver.activations", active)
        return voltages.copy()
