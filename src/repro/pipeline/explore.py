"""Design-space exploration over the pipeline compiler.

Regenerates the ISAAC-shaped system curve the paper's architecture
section leans on: throughput and energy efficiency versus tile count,
with and without weight duplication.  Each grid point compiles a fixed
reference model onto a different tile inventory, runs one batch under
both schedule modes, and reports throughput, utilization, speedup over
the layer-sequential baseline, and energy per sample.

The sweep runs on the deterministic engine
(:func:`repro.utils.parallel.run_grid`): the trial function below is
module-level (picklable), the reference model's weights come from a
dedicated ``model_seed`` (identical at every grid point, so the curve
varies only the machine), and the per-job ``rng`` drives programming
variation — so serial and multi-worker explorations are bit-identical.

Beyond the throughput curve, the sweep is a *multi-objective* DSE: every
feasible row also measures accuracy (argmax agreement with the float
reference forward pass — ADC resolution is a sweepable axis, so the
accuracy/energy trade-off is real) and total die area, and
:func:`pareto_analysis` reduces the grid to a non-dominated front with a
knee point and per-parameter sensitivities
(:mod:`repro.costs.pareto`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.costs.pareto import (
    knee_point,
    parameter_sensitivity,
    pareto_front,
)
from repro.pipeline.allocate import AllocationError, TileInventory, allocate
from repro.pipeline.ir import GraphBuilder, LayerGraph
from repro.pipeline.schedule import PipelineScheduler, ScheduleParams
from repro.utils.parallel import run_grid
from repro.utils.rng import RNGLike

__all__ = [
    "DEFAULT_TILE_COUNTS",
    "DEFAULT_LAYER_SIZES",
    "DEFAULT_OBJECTIVES",
    "DSE_PARAMETERS",
    "reference_graph",
    "reference_conv_graph",
    "explore_pipeline",
    "pareto_analysis",
]

#: Tile inventories swept by default (the x-axis of the ISAAC curve).
DEFAULT_TILE_COUNTS: Tuple[int, ...] = (4, 8, 16, 32)

#: Reference 4-layer MLP; every layer fits one default 64x32 tile, so the
#: model needs exactly 4 tiles at one replica per stage.
DEFAULT_LAYER_SIZES: Tuple[int, ...] = (32, 32, 32, 32, 10)

#: Objectives the multi-objective analysis optimizes by default.
DEFAULT_OBJECTIVES: Tuple[str, ...] = (
    "accuracy", "energy", "area", "throughput",
)

#: Swept parameters whose main effects :func:`pareto_analysis` scores.
DSE_PARAMETERS: Tuple[str, ...] = (
    "tiles", "duplication", "batch", "adc_bits",
)


def reference_graph(
    layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES,
    model_seed: int = 1234,
) -> LayerGraph:
    """The fixed random-weight MLP graph every grid point compiles.

    Weights depend only on ``model_seed`` — the exploration varies the
    machine, never the workload.
    """
    rng = np.random.default_rng(model_seed)
    builder = GraphBuilder()
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 layer sizes, got {sizes}")
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        last = k == len(sizes) - 2
        builder.dense(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
            rng.normal(0.0, 0.01, size=fan_out),
            activation="none" if last else "relu",
            name=f"fc{k}",
        )
    return builder.build()


def reference_conv_graph(
    model_seed: int = 1234,
    image_size: int = 8,
    kernel: int = 3,
    filters: int = 4,
    hidden: int = 24,
    n_classes: int = 10,
) -> LayerGraph:
    """A conv -> dense -> dense graph with a deliberate bottleneck.

    The conv entry stage sees ``(image_size - kernel + 1)^2`` crossbar
    inputs per sample (36 at the defaults) while the dense stages see one
    — the load imbalance ISAAC's weight duplication exists to fix, and
    the workload that gives the throughput-vs-tiles curve its shape.
    """
    rng = np.random.default_rng(model_seed)
    flat = (image_size - kernel + 1) ** 2 * filters
    return (
        GraphBuilder()
        .conv2d(
            rng.normal(0.0, 1.0 / kernel, size=(kernel * kernel, filters)),
            rng.normal(0.0, 0.01, size=filters),
            image_size=image_size,
            name="conv0",
        )
        .dense(
            rng.normal(0.0, 1.0 / np.sqrt(flat), size=(flat, hidden)),
            rng.normal(0.0, 0.01, size=hidden),
            name="fc0",
        )
        .dense(
            rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, n_classes)),
            rng.normal(0.0, 0.01, size=n_classes),
            activation="none",
            name="fc1",
        )
        .build()
    )


def _workload_graph(
    workload: str, layer_sizes: Sequence[int], model_seed: int
) -> LayerGraph:
    if workload == "cnn":
        return reference_conv_graph(model_seed)
    if workload == "mlp":
        return reference_graph(layer_sizes, model_seed)
    raise ValueError(f"workload must be 'mlp' or 'cnn', got {workload!r}")


def _pipeline_point(
    point: Tuple[int, str, int, int],
    trial: int,
    rng: np.random.Generator,
    workload: str,
    layer_sizes: Sequence[int],
    micro_batch: int,
    model_seed: int,
    noisy: bool,
) -> Dict[str, object]:
    """One grid job: compile, run both schedule modes, return the row."""
    n_tiles, duplication, batch, adc_bits = point
    row: Dict[str, object] = {
        "workload": workload,
        "tiles": int(n_tiles),
        "duplication": duplication,
        "batch": int(batch),
        "adc_bits": int(adc_bits),
        "micro_batch": int(micro_batch),
        "trial": int(trial),
    }
    graph = _workload_graph(workload, layer_sizes, model_seed)
    try:
        alloc = allocate(
            graph,
            TileInventory(n_tiles=n_tiles, adc_bits=adc_bits),
            duplication=duplication,
            rng=rng,
        )
    except AllocationError as exc:
        row.update({"feasible": False, "reason": str(exc)})
        return row
    input_rng = np.random.default_rng(model_seed + 1)
    if graph.input_is_image:
        edge = graph.nodes[0].image_size
        x = input_rng.uniform(0.0, 1.0, size=(batch, edge, edge))
    else:
        x = input_rng.uniform(0.0, 1.0, size=(batch, graph.in_features))
    sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=micro_batch))
    trace = sched.execute(x, noisy=noisy)
    seq = trace.schedule("sequential")
    pipe = trace.schedule("pipelined")
    # Accuracy: fraction of samples whose argmax matches the float
    # reference forward pass — the fidelity the ADC-resolution axis
    # trades against energy/area.
    reference = graph.reference_forward(x)
    accuracy = float(
        np.mean(
            np.argmax(np.asarray(pipe.outputs), axis=-1)
            == np.argmax(reference, axis=-1)
        )
    )
    row.update(
        {
            "feasible": True,
            "tiles_used": alloc.tiles_used,
            "replicas": alloc.replica_counts(),
            "throughput": pipe.throughput,
            "steady_state_throughput": pipe.steady_state_throughput,
            "sequential_throughput": seq.throughput,
            "speedup": (
                pipe.throughput / seq.throughput
                if seq.throughput > 0
                else 0.0
            ),
            "utilization": pipe.utilization(),
            "energy_per_sample": pipe.energy_per_sample,
            "transfer_bytes": pipe.transfer_bytes,
            "makespan_s": pipe.makespan,
            "accuracy": accuracy,
            "area_mm2": float(sum(pipe.area.values())),
        }
    )
    return row


def explore_pipeline(
    tile_counts: Sequence[int] = DEFAULT_TILE_COUNTS,
    duplication_modes: Sequence[str] = ("none", "auto"),
    batch_sizes: Sequence[int] = (64,),
    *,
    adc_bits: Sequence[int] = (8,),
    workload: str = "cnn",
    layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES,
    micro_batch: int = 8,
    model_seed: int = 1234,
    noisy: bool = False,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Sweep tile count x duplication x batch size x ADC bits; one row
    per point.

    ``workload`` picks the reference model: ``"cnn"`` (default) is the
    conv-bottlenecked graph whose curve shows the duplication payoff,
    ``"mlp"`` the balanced 4-layer perceptron (``layer_sizes``).  Rows
    arrive in point-major grid order and are bit-identical for a given
    ``seed`` at any ``workers`` setting.  Infeasible points (model does
    not fit the inventory) come back with ``feasible=False`` instead of
    raising, so a sweep can include inventories below the model's
    footprint.

    Each feasible row carries the four DSE objectives — ``accuracy``,
    ``energy_per_sample``, ``area_mm2``, ``throughput`` — ready for
    :func:`pareto_analysis`.  ``adc_bits`` is the axis that makes the
    accuracy trade-off real: fewer bits shrink the (exponentially
    ADC-dominated) tile area and conversion energy but quantize harder.
    """
    points = [
        (int(t), str(d), int(b), int(a))
        for t in tile_counts
        for d in duplication_modes
        for b in batch_sizes
        for a in adc_bits
    ]
    if not points:
        return []
    nested = run_grid(
        _pipeline_point,
        points,
        trials=1,
        seed=seed,
        workers=workers,
        task_args=(
            str(workload),
            tuple(layer_sizes),
            int(micro_batch),
            int(model_seed),
            bool(noisy),
        ),
    )
    return [row for per_point in nested for row in per_point]


def pareto_analysis(
    rows: Sequence[Dict[str, object]],
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    parameters: Sequence[str] = DSE_PARAMETERS,
) -> Dict[str, object]:
    """Reduce an :func:`explore_pipeline` grid to its decision surface.

    Filters to feasible rows, computes the non-dominated front over
    ``objectives``, picks the knee (balanced-compromise) point, and
    scores each swept parameter's main effect on each objective.  Pure
    post-processing of the rows — deterministic given the row order, so
    fronts from parallel sweeps match serial ones bit-for-bit.

    Returns ``{"objectives", "feasible_points", "front", "knee",
    "sensitivity"}`` where ``front`` rows gain a ``knee`` boolean.
    """
    feasible = [r for r in rows if r.get("feasible")]
    if not feasible:
        return {
            "objectives": list(objectives),
            "feasible_points": 0,
            "front": [],
            "knee": None,
            "sensitivity": {},
        }
    front_idx = pareto_front(feasible, objectives)
    knee_idx = knee_point(feasible, objectives, front=front_idx)
    front = [dict(feasible[i], knee=(i == knee_idx)) for i in front_idx]
    return {
        "objectives": list(objectives),
        "feasible_points": len(feasible),
        "front": front,
        "knee": dict(feasible[knee_idx]) if knee_idx is not None else None,
        "sensitivity": parameter_sensitivity(
            feasible, parameters, objectives
        ),
    }
