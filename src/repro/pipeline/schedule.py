"""Event-driven pipelined schedule simulation over an allocated model.

This is the tier that turns "a bag of programmed tiles" into "a machine
serving batches": micro-batches stream through the stage chain, every
stage runs on its replica accelerators, activations ship over the
:mod:`~repro.pipeline.interconnect` links, and the simulator tracks what
the paper's system-level claims are made of — per-tile busy/idle time,
inter-stage buffer occupancy, and end-to-end makespan.

Two schedule modes share one functional execution:

* ``"sequential"`` — the layer-at-a-time baseline every single-layer stack
  implies (:mod:`repro.apps.nn` runs layers back to back): stage ``s+1``
  starts only after stage ``s`` has finished the *whole* batch.
* ``"pipelined"`` — ISAAC-style layer pipelining: stage ``s+1`` starts a
  micro-batch as soon as it arrives, so all stages overlap in steady
  state and throughput approaches ``1 / max_stage_service``.

A run is two passes.  :meth:`PipelineScheduler.execute` is the
*functional* pass: it runs every (stage, micro-batch) once and records
an :class:`ExecutionTrace` — outputs, per-stage service times, per-edge
transfer latencies, transfer bytes and charged cost categories.
:meth:`ExecutionTrace.schedule` is the *timing* pass: it propagates
event times over the recorded latencies (arrival -> server-free ->
finish) under one mode, and runs no VMMs.  :meth:`PipelineScheduler.run`
is ``execute(x, noisy).schedule(mode)``; callers comparing modes execute
once and schedule each mode.

**Numerics are schedule-invariant by construction.**  Functional results
are computed per (stage, micro-batch) with a *static* round-robin
replica assignment (:meth:`StageAllocation.replica_for`), and every
replica sees its micro-batches in index order — so each tile's RNG
stream, and therefore the output, does not depend on the schedule mode.

**Costs are charged into per-run accumulators.**  For the length of the
functional pass every tile's and the interconnect's
:class:`~repro.core.metrics.CostAccumulator` is swapped for a fresh one
(and merged back afterwards), so a result is a pure function of
(allocation, input, micro_batch, noisy): it does not depend on what ran
on the allocation before.  Functional counters (VMMs, conversions,
``pipeline.transfers``, cost charges) are counted once per ``execute``;
timing counters (``pipeline.makespan_s``, busy seconds) once per
``schedule``.  A :class:`~repro.utils.telemetry.RunReport` built from a
result conserves: fractions sum to 1 and nothing is charged twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import CostAccumulator
from repro.pipeline.allocate import Allocation, StageAllocation
from repro.pipeline.interconnect import Interconnect, InterconnectParams
from repro.pipeline.ir import GRAPH_INPUT
from repro.utils import telemetry
from repro.utils.telemetry import RunReport

#: Pseudo-consumer name for the sink -> host output edge.
_HOST = "@host"

__all__ = [
    "ScheduleParams",
    "ScheduleResult",
    "ExecutionTrace",
    "PipelineScheduler",
]

_MODES = ("pipelined", "sequential")


@dataclass
class ScheduleParams:
    """Schedule configuration.

    ``micro_batch`` is the pipelining granule: smaller granules fill the
    pipeline faster (less ramp-up) but pay the per-transfer setup latency
    more often.  It is part of the experiment configuration — results are
    a pure function of (allocation seed, input, micro_batch).
    """

    micro_batch: int = 8

    def __post_init__(self) -> None:
        if self.micro_batch < 1:
            raise ValueError(
                f"micro_batch must be >= 1, got {self.micro_batch}"
            )


def _peak_overlap(intervals: List[Tuple[float, float]]) -> int:
    """Peak number of simultaneously open ``[start, end)`` intervals."""
    events: List[Tuple[float, int]] = []
    for lo, hi in intervals:
        events.append((lo, 1))
        events.append((hi, -1))
    # Ends sort before starts at equal timestamps: a handed-off buffer
    # slot frees before the next micro-batch lands.
    events.sort(key=lambda e: (e[0], e[1]))
    peak = depth = 0
    for _, delta in events:
        depth += delta
        peak = max(peak, depth)
    return peak


@dataclass
class ScheduleResult:
    """Everything one schedule run produced: outputs, timeline, costs."""

    mode: str
    outputs: np.ndarray
    makespan: float
    n_samples: int
    micro_batch: int
    stage_names: List[str]
    replica_counts: List[int]
    stage_tiles: List[int]
    service_times: List[List[float]]     # [stage][microbatch] seconds
    stage_busy_s: List[float]            # server-seconds per stage
    buffer_peaks: List[int]              # per-stage input-buffer peak depth
    transfer_bytes: float
    categories: Dict[str, Dict[str, float]]   # this run's charged costs
    area: Dict[str, float]

    # -------------------------------------------------------------- metrics
    @property
    def n_microbatches(self) -> int:
        """Micro-batches the batch was split into."""
        return len(self.service_times[0]) if self.service_times else 0

    @property
    def throughput(self) -> float:
        """End-to-end samples/second of simulated machine time."""
        if self.makespan <= 0:
            return 0.0
        return self.n_samples / self.makespan

    @property
    def bottleneck_service(self) -> float:
        """Steady-state seconds per micro-batch of the slowest stage,
        accounting for replication (the pipeline's rate limiter)."""
        worst = 0.0
        for serv, replicas in zip(self.service_times, self.replica_counts):
            if serv:
                worst = max(worst, float(np.mean(serv)) / replicas)
        return worst

    @property
    def steady_state_throughput(self) -> float:
        """Samples/second once the pipeline is full (ramp-up excluded)."""
        if self.bottleneck_service <= 0:
            return 0.0
        return self.micro_batch / self.bottleneck_service

    @property
    def tile_busy_s(self) -> float:
        """Total tile-seconds of busy time across the machine."""
        return sum(
            busy / max(replicas, 1) * tiles
            for busy, replicas, tiles in zip(
                self.stage_busy_s, self.replica_counts, self.stage_tiles
            )
        )

    @property
    def total_tiles(self) -> int:
        """Tiles allocated across all stages."""
        return sum(self.stage_tiles)

    def utilization(self) -> float:
        """Machine-wide tile utilization: busy tile-seconds over
        ``total_tiles * makespan``."""
        denom = self.total_tiles * self.makespan
        if denom <= 0:
            return 0.0
        return self.tile_busy_s / denom

    def stage_utilization(self) -> List[float]:
        """Per-stage replica utilization (busy / replica-seconds)."""
        out = []
        for busy, replicas in zip(self.stage_busy_s, self.replica_counts):
            denom = replicas * self.makespan
            out.append(busy / denom if denom > 0 else 0.0)
        return out

    @property
    def total_energy(self) -> float:
        """Energy charged during this run (J), all categories."""
        return sum(c.get("energy", 0.0) for c in self.categories.values())

    @property
    def energy_per_sample(self) -> float:
        """Joules per inference sample for this run."""
        if self.n_samples == 0:
            return 0.0
        return self.total_energy / self.n_samples

    # -------------------------------------------------------------- display
    def stage_table(self) -> List[Dict[str, object]]:
        """Row-per-stage summary (replicas, tiles, busy, util, buffers)."""
        utils = self.stage_utilization()
        return [
            {
                "stage": name,
                "replicas": replicas,
                "tiles": tiles,
                "busy_s": busy,
                "utilization": util,
                "buffer_peak": peak,
            }
            for name, replicas, tiles, busy, util, peak in zip(
                self.stage_names,
                self.replica_counts,
                self.stage_tiles,
                self.stage_busy_s,
                self.stage_utilization(),
                self.buffer_peaks,
            )
        ]

    def side_counters(self) -> Dict[str, float]:
        """Additive side counters describing this run (telemetry names)."""
        counters = {
            "pipeline.samples": float(self.n_samples),
            "pipeline.microbatches": float(self.n_microbatches),
            "pipeline.makespan_s": self.makespan,
            "pipeline.tile_busy_s": self.tile_busy_s,
            "pipeline.tile_seconds": self.total_tiles * self.makespan,
            "pipeline.transfer.bytes": self.transfer_bytes,
        }
        for name, busy in zip(self.stage_names, self.stage_busy_s):
            counters[f"pipeline.stage.{name}.busy_s"] = busy
        return counters

    def report(self, label: Optional[str] = None) -> RunReport:
        """Structured :class:`RunReport` for this run: the run's charged
        costs (compute + interconnect, nothing double-charged), the
        pipeline side counters, and the allocated-machine area."""
        return RunReport(
            label=label or f"pipeline_{self.mode}",
            categories={k: dict(v) for k, v in self.categories.items()},
            counters=self.side_counters(),
            area=dict(self.area),
        )


@dataclass
class ExecutionTrace:
    """One functional pass of a batch, ready to be timed under any mode.

    Holds what :meth:`PipelineScheduler.execute` recorded: the outputs,
    per-(stage, micro-batch) service times, per-(edge, micro-batch)
    transfer latencies, transfer bytes and the charged cost categories.
    :meth:`schedule` turns it into a :class:`ScheduleResult` without
    running a single VMM, so any number of schedule modes share one
    functional execution.
    """

    allocation: Allocation
    outputs: np.ndarray
    micro_batch: int
    service_times: List[List[float]]         # [stage][microbatch] seconds
    transfer_latencies: List[List[float]]    # [edge][microbatch] seconds
    edge_list: List[Tuple[str, str]]         # (producer, consumer) pairs
    transfer_bytes: float
    categories: Dict[str, Dict[str, float]]  # this pass's charged costs
    area: Dict[str, float]

    def schedule(self, mode: str = "pipelined") -> ScheduleResult:
        """Time the recorded pass under ``mode`` and build its result.

        Each call adds the result's timing side counters to the current
        telemetry scope; the functional counters (transfers, cost
        charges) were counted once, by :meth:`PipelineScheduler.execute`.
        """
        _check_mode(mode)
        stages = self.allocation.stages
        makespan, busy, buffer_peaks = _propagate(
            stages,
            self.service_times,
            self.transfer_latencies,
            self.edge_list,
            mode,
        )
        result = ScheduleResult(
            mode=mode,
            outputs=self.outputs.copy(),
            makespan=makespan,
            n_samples=self.outputs.shape[0],
            micro_batch=self.micro_batch,
            stage_names=[s.name for s in stages],
            replica_counts=[s.n_replicas for s in stages],
            stage_tiles=[s.n_tiles for s in stages],
            service_times=[list(row) for row in self.service_times],
            stage_busy_s=busy,
            buffer_peaks=buffer_peaks,
            transfer_bytes=self.transfer_bytes,
            categories={k: dict(v) for k, v in self.categories.items()},
            area=dict(self.area),
        )
        # Surface the run's utilization/transfer story into the current
        # telemetry scope so sweep-engine captures carry it.
        scope = telemetry.current()
        for name, value in result.side_counters().items():
            if not name.startswith("pipeline.transfer"):
                scope.incr(name, value)  # transfers were counted at charge
        return result


class PipelineScheduler:
    """Streams batches through an :class:`~repro.pipeline.allocate.Allocation`."""

    def __init__(
        self,
        allocation: Allocation,
        params: Optional[ScheduleParams] = None,
        interconnect: Optional[Interconnect] = None,
    ) -> None:
        self.allocation = allocation
        self.params = params or ScheduleParams()
        self.interconnect = interconnect or Interconnect()

    # ----------------------------------------------------------- accounting
    def _merged_categories(self) -> Dict[str, Dict[str, float]]:
        acc = self.allocation.total_costs()
        merged = acc.as_dict()
        for name, entry in self.interconnect.costs.as_dict().items():
            into = merged.setdefault(
                name, {"energy": 0.0, "latency": 0.0, "data_moved": 0.0}
            )
            for key, value in entry.items():
                into[key] = into.get(key, 0.0) + value
        return merged

    # ------------------------------------------------------------ execution
    def run(
        self,
        x: np.ndarray,
        mode: str = "pipelined",
        noisy: bool = False,
    ) -> ScheduleResult:
        """Run one batch through the machine under ``mode`` timing.

        Shorthand for ``execute(x, noisy).schedule(mode)``.  To time one
        batch under several modes, call :meth:`execute` once and
        :meth:`ExecutionTrace.schedule` per mode.
        """
        _check_mode(mode)
        return self.execute(x, noisy=noisy).schedule(mode)

    def execute(self, x: np.ndarray, noisy: bool = False) -> ExecutionTrace:
        """Functional pass: run every (stage, micro-batch) once.

        Every tile's and the interconnect's :class:`CostAccumulator` is
        swapped for a fresh one for the length of the pass, so the
        recorded latencies and categories are this pass's charges alone
        — a pure function of (allocation, input, micro_batch, noisy),
        independent of whatever ran on the allocation before.  The
        pass's charges are merged back into the long-lived accumulators
        afterwards, so lifetime totals still cover every run.
        """
        graph = self.allocation.graph
        x = graph.validate_input(x)
        if x.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        cores = [
            core
            for stage in self.allocation.stages
            for accel in stage.replicas
            for tile_row in accel.tiles
            for core in tile_row
        ]
        lifetime = [core.costs for core in cores]
        link_lifetime = self.interconnect.costs
        for core in cores:
            core.costs = CostAccumulator()
        self.interconnect.costs = CostAccumulator()
        try:
            return self._functional_pass(x, noisy)
        finally:
            for core, acc in zip(cores, lifetime):
                acc.merge(core.costs)
                core.costs = acc
            link_lifetime.merge(self.interconnect.costs)
            self.interconnect.costs = link_lifetime

    def _functional_pass(self, x: np.ndarray, noisy: bool) -> ExecutionTrace:
        graph = self.allocation.graph
        stages = self.allocation.stages
        mb = self.params.micro_batch
        chunks: List[np.ndarray] = [
            x[lo : lo + mb] for lo in range(0, x.shape[0], mb)
        ]
        n_mb = len(chunks)

        # Topological stage-major order, so every replica consumes its
        # micro-batches in index order and every producer's payload
        # exists when its consumer runs (stages are stored in topo order).
        service: List[List[float]] = []
        payloads: Dict[str, List[np.ndarray]] = {GRAPH_INPUT: chunks}
        for stage in stages:
            srcs = graph.producers(stage.name)
            in_rows = [payloads[src] for src in srcs]
            serv_row: List[float] = []
            outs: List[np.ndarray] = []
            for m in range(n_mb):
                h = (
                    tuple(row[m] for row in in_rows)
                    if len(in_rows) > 1
                    else in_rows[0][m]
                )
                replica = stage.replicas[stage.replica_for(m)]
                lat0 = replica.accumulated_latency()
                outs.append(stage.apply(h, m, noisy=noisy))
                lat1 = replica.accumulated_latency()
                # Tiles within a replica evaluate in parallel; the model
                # charges each tile's latency, so wall time is the sum
                # divided by the tile count.
                serv_row.append((lat1 - lat0) / replica.n_tiles)
            service.append(serv_row)
            payloads[stage.name] = outs

        # Transfer charging: one payload per edge per micro-batch.  The
        # edge list covers every producer -> consumer pair (so a fork
        # charges each branch edge separately), the host -> entry edges
        # and the sink -> host edge.  The actual activation chunks ride
        # along so a value-aware energy model can price each wire by its
        # payload's switching activity.
        edge_list: List[Tuple[str, str]] = [
            (src, stage.name)
            for stage in stages
            for src in graph.producers(stage.name)
        ]
        edge_list.append((graph.sink_name, _HOST))
        out_widths = {s.name: s.node.out_features for s in stages}
        out_widths[GRAPH_INPUT] = graph.in_features
        transfer_lat = [
            [
                self.interconnect.transfer(
                    out_widths[src] * chunk.shape[0], values=chunk
                )
                for chunk in payloads[src]
            ]
            for src, _ in edge_list
        ]

        return ExecutionTrace(
            allocation=self.allocation,
            outputs=np.concatenate(payloads[graph.sink_name], axis=0),
            micro_batch=mb,
            service_times=service,
            transfer_latencies=transfer_lat,
            edge_list=edge_list,
            transfer_bytes=self.interconnect.costs.total.data_moved,
            categories=self._merged_categories(),
            area=self.allocation.area_breakdown(),
        )


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


# -------------------------------------------------------------------- timing
def _propagate(
    stages: List[StageAllocation],
    service: List[List[float]],
    transfer_lat: List[List[float]],
    edge_list: List[Tuple[str, str]],
    mode: str,
) -> Tuple[float, List[float], List[int]]:
    """Propagate ready events through the stage DAG.

    Links carry one micro-batch at a time (serialized per edge); every
    replica is one server.  A join stage's micro-batch is ready only when
    *every* in-edge has delivered it.  ``sequential`` adds a barrier: a
    stage's first start waits for its whole input layer.
    """
    n_mb = len(service[0]) if service else 0

    link_free = [0.0] * len(edge_list)
    done: Dict[str, List[float]] = {
        GRAPH_INPUT: [0.0] * n_mb  # host data is resident at t=0
    }
    busy = [0.0] * len(stages)
    buffer_peaks: List[int] = []

    in_edges: Dict[str, List[int]] = {s.name: [] for s in stages}
    for e, (_, dst) in enumerate(edge_list):
        if dst in in_edges:
            in_edges[dst].append(e)

    for s, stage in enumerate(stages):
        # Every in-edge ships micro-batch m once its producer finished
        # it; the stage sees m when the slowest in-edge delivers.
        arrival = [0.0] * n_mb
        for e in in_edges[stage.name]:
            src_done = done[edge_list[e][0]]
            for m in range(n_mb):
                start_x = max(src_done[m], link_free[e])
                link_free[e] = start_x + transfer_lat[e][m]
                arrival[m] = max(arrival[m], link_free[e])
        barrier = max(arrival) if (mode == "sequential" and arrival) else 0.0

        server_free = [0.0] * stage.n_replicas
        starts = [0.0] * n_mb
        finishes = [0.0] * n_mb
        for m in range(n_mb):
            r = stage.replica_for(m)
            ready = max(arrival[m], barrier)
            start = max(ready, server_free[r])
            finishes[m] = start + service[s][m]
            server_free[r] = finishes[m]
            starts[m] = start
            busy[s] += service[s][m]
        buffer_peaks.append(
            _peak_overlap(
                [(arrival[m], max(starts[m], arrival[m])) for m in range(n_mb)]
            )
        )
        done[stage.name] = finishes

    # Output edge back to the host (last entry of the edge list).
    out_edge = len(edge_list) - 1
    sink_done = done[edge_list[out_edge][0]]
    end = 0.0
    for m in range(n_mb):
        start_x = max(sink_done[m], link_free[out_edge])
        link_free[out_edge] = start_x + transfer_lat[out_edge][m]
        end = max(end, link_free[out_edge])
    return end, busy, buffer_peaks
