"""Simulation-as-a-service: async job server over the CIM backend.

The serving layer turns the one-shot simulation library into a
long-lived service that amortizes work across requests:

* :mod:`~repro.serve.batcher` coalesces concurrent small inference
  requests into single ``forward_batch`` calls (flushed at the next
  event-loop turn, or inline at ``max_batch``) and demuxes per-request
  outputs.
* :mod:`~repro.serve.cache` holds cross-request artifacts (deployed
  models with their tiles' LU caches, traced layer graphs, tile
  allocations) and whole results (canonical-JSON responses keyed on task
  kind + config fingerprint) in bounded LRU caches with full telemetry.
* :mod:`~repro.serve.service` is the in-process async API — admission
  control, request dispatch, per-request conservation-validated run
  reports merged into a server-lifetime report.
* :mod:`~repro.serve.server` is the stdlib JSON-lines socket front-end
  (``cimflow serve`` / ``cimflow submit``).
"""

from repro.serve.batcher import BatcherStats, RequestBatcher
from repro.serve.cache import (
    ArtifactCache,
    ResultsCache,
    canonical_json,
    config_fingerprint,
)
from repro.serve.server import ServeClient, SimulationServer, serve_forever
from repro.serve.service import (
    BadRequestError,
    QueueFullError,
    REQUEST_KINDS,
    ServeError,
    ServiceConfig,
    SimulationService,
)

__all__ = [
    "BatcherStats",
    "RequestBatcher",
    "ArtifactCache",
    "ResultsCache",
    "canonical_json",
    "config_fingerprint",
    "ServeClient",
    "SimulationServer",
    "serve_forever",
    "ServeError",
    "BadRequestError",
    "QueueFullError",
    "REQUEST_KINDS",
    "ServiceConfig",
    "SimulationService",
]
