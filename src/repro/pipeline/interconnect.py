"""Inter-tile transfer model: a shared bus / simple NoC.

Pipelining moves activations *between* tiles, and the paper's Table I
rates exactly this data movement as the scalability limiter — so the
scheduler must charge it, not assume it free.  The model is deliberately
simple (CiMLoop-style first-order): every stage-to-stage hop ships the
micro-batch's activation payload over a link with a fixed per-transfer
setup latency, a finite bandwidth, and a per-byte energy.  Every charge
goes through the active energy model into the current telemetry scope
under the ``interconnect`` category, so pipeline run reports conserve
exactly like every other machine model, and a ``pipeline.transfer.bytes``
side counter records the payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro.costs.models as energy_models
from repro.utils import telemetry
from repro.utils.validation import check_positive

__all__ = ["InterconnectParams", "Interconnect"]


@dataclass
class InterconnectParams:
    """First-order link model (defaults sized for an on-chip bus).

    ``bandwidth`` is bytes/second, ``energy_per_byte`` joules, and
    ``hop_latency`` the fixed per-transfer setup cost (arbitration +
    routing).  ``bytes_per_value`` is the activation word width on the
    wire — 2 bytes matches ISAAC's 16-bit inter-tile payloads.
    """

    bandwidth: float = 100e9        # B/s (on-chip bus)
    energy_per_byte: float = 1e-12  # J/B (~1 pJ/B on-chip)
    hop_latency: float = 1e-9       # s per transfer (on-chip hop setup)
    bytes_per_value: int = 2        # 16-bit activations

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_positive("energy_per_byte", self.energy_per_byte)
        check_positive("hop_latency", self.hop_latency)
        if self.bytes_per_value < 1:
            raise ValueError(
                f"bytes_per_value must be >= 1, got {self.bytes_per_value}"
            )


class Interconnect:
    """A cost-accounted activation link between pipeline stages."""

    def __init__(self, params: InterconnectParams = None) -> None:
        self.params = params or InterconnectParams()

    def transfer_latency(self, n_values: int) -> float:
        """Wire time for ``n_values`` activations (setup + serialization)."""
        payload = n_values * self.params.bytes_per_value
        return self.params.hop_latency + payload / self.params.bandwidth

    def transfer(
        self,
        n_values: int,
        hops: int = 1,
        values: Optional[np.ndarray] = None,
    ) -> float:
        """Ship ``n_values`` activations over ``hops`` links; returns the
        transfer latency (s) and charges energy/latency/data-movement to
        the current telemetry scope.

        ``values`` — the actual activation payload — lets a value-aware
        energy model price the wire by switching activity (ReLU sparsity
        makes inter-stage traffic cheaper than the static constant).
        """
        if n_values < 0:
            raise ValueError(f"n_values must be >= 0, got {n_values}")
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        if n_values == 0:
            return 0.0
        payload = n_values * self.params.bytes_per_value * hops
        latency = hops * self.transfer_latency(n_values)
        energy_models.active_model().charge_transfer(
            self.params,
            payload=payload,
            latency=latency,
            values=values,
        )
        telemetry.current().incr("pipeline.transfer.bytes", payload)
        telemetry.current().incr("pipeline.transfers")
        return latency
