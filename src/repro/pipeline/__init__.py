"""Graph compiler and pipelined multi-tile scheduler.

Turns a whole model into a machine: :mod:`~repro.pipeline.ir` extracts a
validated layer-graph DAG from trained models (or builds one by hand —
chains, forks and joins, e.g. the attention block in
:mod:`repro.workloads.attention`),
:mod:`~repro.pipeline.allocate` partitions every layer over a fixed
crossbar-tile inventory (with ISAAC-style weight duplication for
bottleneck layers), :mod:`~repro.pipeline.schedule` streams micro-batched
inference through the stage chain under layer-sequential or pipelined
timing — charging inter-stage traffic through the
:mod:`~repro.pipeline.interconnect` model — and
:mod:`~repro.pipeline.explore` sweeps tile count x duplication x batch
size to regenerate the throughput/efficiency-vs-tiles system curve.

Pipelined and layer-sequential runs are numerically bit-identical by
construction (static round-robin replica assignment, order-preserving
functional execution), so the schedule simulator only ever changes
*time*, never *answers*.
"""

from repro.pipeline.allocate import (
    Allocation,
    AllocationError,
    StageAllocation,
    TileInventory,
    allocate,
    deploy,
    tiles_required,
)
from repro.pipeline.explore import (
    DEFAULT_LAYER_SIZES,
    DEFAULT_OBJECTIVES,
    DEFAULT_TILE_COUNTS,
    DSE_PARAMETERS,
    explore_pipeline,
    pareto_analysis,
    reference_conv_graph,
    reference_graph,
)
from repro.pipeline.interconnect import Interconnect, InterconnectParams
from repro.pipeline.ir import (
    GRAPH_INPUT,
    GraphBuilder,
    LayerGraph,
    LayerNode,
    trace_cnn,
    trace_mlp,
)
from repro.pipeline.schedule import (
    ExecutionTrace,
    PipelineScheduler,
    ScheduleParams,
    ScheduleResult,
)

__all__ = [
    "GRAPH_INPUT",
    "LayerNode",
    "LayerGraph",
    "GraphBuilder",
    "trace_mlp",
    "trace_cnn",
    "TileInventory",
    "AllocationError",
    "StageAllocation",
    "Allocation",
    "tiles_required",
    "deploy",
    "allocate",
    "InterconnectParams",
    "Interconnect",
    "ScheduleParams",
    "ScheduleResult",
    "ExecutionTrace",
    "PipelineScheduler",
    "DEFAULT_TILE_COUNTS",
    "DEFAULT_LAYER_SIZES",
    "DEFAULT_OBJECTIVES",
    "DSE_PARAMETERS",
    "reference_graph",
    "reference_conv_graph",
    "explore_pipeline",
    "pareto_analysis",
]
