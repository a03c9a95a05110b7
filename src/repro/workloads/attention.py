"""Single-head attention traced through the DAG pipeline IR.

The paper's workload-diversity argument (and ROADMAP item 5) needs more
than MLP/CNN chains: attention is the first genuinely *fork-join* model —
the input fans out into Q/K/V projections, QK^T joins two branches, and
softmax runs in the digital periphery.  This module traces that block
into the :mod:`repro.pipeline.ir` DAG so the existing allocator,
scheduler and interconnect model execute it unchanged:

* ``wq``/``wk``/``wv`` — per-token dense projections (the fork; each
  branch edge is charged separately by the interconnect);
* ``scores`` — a ``matmul`` stage computing ``softmax(Q K^T / sqrt(d))``
  with K programmed into the crossbar per sample (CiMLoop's point: the
  score distribution is data, so it must flow through the cost model);
* ``attend`` — a ``matmul`` stage computing ``scores @ V`` (the join);
* ``wo`` — the per-token output projection (logit head over mean-pooled
  tokens happens digitally in the consumer).

:func:`explore_attention` is the deterministic sweep-engine consumer
behind ``cimflow attention`` and the serve layer's ``"attention"`` kind:
rows are bit-identical for a given seed at any worker count, and every
point checks that the pipelined schedule reproduces the layer-sequential
outputs bit-for-bit (the DAG generalization's acceptance criterion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.datasets import token_sequences
from repro.pipeline.allocate import (
    AllocationError,
    TileInventory,
    allocate,
)
from repro.pipeline.ir import GRAPH_INPUT, GraphBuilder, LayerGraph
from repro.pipeline.schedule import PipelineScheduler, ScheduleParams
from repro.utils import telemetry
from repro.utils.parallel import run_grid
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "AttentionParams",
    "attention_graph",
    "run_attention",
    "explore_attention",
]


@dataclass
class AttentionParams:
    """Geometry of the single-head block.

    ``seq`` tokens of width ``d_model`` enter; Q/K/V project each token
    to ``d_head``; the output projection returns to ``d_model``.
    """

    seq: int = 8
    d_model: int = 16
    d_head: int = 8

    def __post_init__(self) -> None:
        check_positive("seq", self.seq)
        check_positive("d_model", self.d_model)
        check_positive("d_head", self.d_head)


def attention_graph(
    params: Optional[AttentionParams] = None,
    calibration: Optional[np.ndarray] = None,
    *,
    model_seed: int = 2024,
) -> LayerGraph:
    """Trace a single-head attention block into the DAG IR.

    Weights depend only on ``model_seed``.  ``calibration`` — a
    ``(n, seq, d_model)`` or ``(n, seq * d_model)`` token batch — sets
    the per-stage ``input_scale`` from reference activations, exactly as
    :func:`~repro.pipeline.ir.trace_mlp` calibrates its layers; without
    it a deterministic :func:`token_sequences` batch is used.
    """
    params = params or AttentionParams()
    seq, d_model, d_head = params.seq, params.d_model, params.d_head
    rng = np.random.default_rng(model_seed)
    wq = rng.normal(0.0, 1.0 / np.sqrt(d_model), size=(d_model, d_head))
    wk = rng.normal(0.0, 1.0 / np.sqrt(d_model), size=(d_model, d_head))
    wv = rng.normal(0.0, 1.0 / np.sqrt(d_model), size=(d_model, d_head))
    wo = rng.normal(0.0, 1.0 / np.sqrt(d_head), size=(d_head, d_model))

    if calibration is None:
        calibration, _ = token_sequences(
            n_samples=32, seq=seq, d_model=d_model, rng=model_seed + 1
        )
    calib = np.asarray(calibration, dtype=float).reshape(-1, seq, d_model)

    # Reference activations for input-scale calibration.
    q = np.maximum(calib @ wq, 0.0)            # wq has relu: Q >= 0
    scores_ref = q @ (calib @ wk).transpose(0, 2, 1) / np.sqrt(d_head)
    shifted = scores_ref - scores_ref.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    att = np.maximum(probs @ (calib @ wv), 0.0)

    x_scale = float(max(calib.max(), 1e-12))
    q_scale = float(max(q.max(), 1e-12))
    att_scale = float(max(att.max(), 1e-12))

    return (
        GraphBuilder()
        .dense(wq, tokens=seq, name="wq", inputs=(GRAPH_INPUT,),
               activation="relu", input_scale=x_scale)
        .dense(wk, tokens=seq, name="wk", inputs=(GRAPH_INPUT,),
               activation="none", input_scale=x_scale)
        .dense(wv, tokens=seq, name="wv", inputs=(GRAPH_INPUT,),
               activation="none", input_scale=x_scale)
        .matmul(d_head, seq, tokens=seq, inputs=("wq", "wk"),
                transpose_right=True, scale=1.0 / np.sqrt(d_head),
                activation="softmax", input_scale=q_scale, name="scores")
        .matmul(seq, d_head, tokens=seq, inputs=("scores", "wv"),
                activation="relu", input_scale=1.0, name="attend")
        .dense(wo, tokens=seq, name="wo", inputs=("attend",),
               activation="none", input_scale=att_scale)
        .build()
    )


def run_attention(
    params: Optional[AttentionParams] = None,
    *,
    batch: int = 32,
    micro_batch: int = 8,
    inventory: Optional[TileInventory] = None,
    duplication="none",
    model_seed: int = 2024,
    noisy: bool = False,
    rng: RNGLike = 0,
) -> Dict[str, object]:
    """Compile and run one attention batch under both schedule modes.

    Returns the row ``explore_attention`` sweeps produce for one point:
    makespans, speedup, energy, transfer telemetry, the pipelined-vs-
    sequential bit-identity flag and the max deviation from the float
    reference forward pass.
    """
    params = params or AttentionParams()
    graph = attention_graph(params, model_seed=model_seed)
    x, _ = token_sequences(
        n_samples=batch,
        seq=params.seq,
        d_model=params.d_model,
        rng=model_seed + 1,
    )
    flat = x.reshape(batch, -1)
    alloc = allocate(
        graph,
        inventory or TileInventory(n_tiles=16),
        duplication=duplication,
        rng=ensure_rng(rng),
    )
    sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=micro_batch))
    with telemetry.scoped() as scope:
        trace = sched.execute(flat, noisy=noisy)
        seq_run = trace.schedule("sequential")
        pipe_run = trace.schedule("pipelined")
        counters = scope.snapshot(include_timers=False)["counters"]
    reference = graph.reference_forward(flat)
    n_edges = len(graph.edges()) + len(graph.entry_names) + 1
    return {
        "seq": params.seq,
        "d_model": params.d_model,
        "d_head": params.d_head,
        "batch": int(batch),
        "micro_batch": int(micro_batch),
        "tiles_used": alloc.tiles_used,
        "makespan_sequential_s": seq_run.makespan,
        "makespan_pipelined_s": pipe_run.makespan,
        "speedup": (
            seq_run.makespan / pipe_run.makespan
            if pipe_run.makespan > 0
            else 0.0
        ),
        "throughput": pipe_run.throughput,
        "energy_per_sample": pipe_run.energy_per_sample,
        "transfer_bytes": pipe_run.transfer_bytes,
        "graph_edges": n_edges,
        "transfers": float(counters.get("pipeline.transfers", 0.0)),
        "bit_identical": bool(
            np.array_equal(pipe_run.outputs, seq_run.outputs)
        ),
        "max_ref_error": float(
            np.max(np.abs(pipe_run.outputs - reference))
        ),
    }


def _attention_point(
    point: Tuple[int, int, int],
    trial: int,
    rng: np.random.Generator,
    d_model: int,
    batch: int,
    n_tiles: int,
    model_seed: int,
    noisy: bool,
) -> Dict[str, object]:
    """One grid job: one (seq, d_head, micro_batch) attention point."""
    seq, d_head, micro_batch = point
    row: Dict[str, object] = {"trial": int(trial)}
    try:
        result = run_attention(
            AttentionParams(seq=seq, d_model=d_model, d_head=d_head),
            batch=batch,
            micro_batch=micro_batch,
            inventory=TileInventory(n_tiles=n_tiles),
            model_seed=model_seed,
            noisy=noisy,
            rng=rng,
        )
    except AllocationError as exc:
        row.update(
            {
                "seq": int(seq),
                "d_head": int(d_head),
                "micro_batch": int(micro_batch),
                "feasible": False,
                "reason": str(exc),
            }
        )
        return row
    row.update(result)
    row["feasible"] = True
    return row


def explore_attention(
    seqs: Sequence[int] = (4, 8),
    d_heads: Sequence[int] = (4, 8),
    micro_batches: Sequence[int] = (4,),
    *,
    d_model: int = 16,
    batch: int = 16,
    n_tiles: int = 16,
    model_seed: int = 2024,
    noisy: bool = False,
    trials: int = 1,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Sweep sequence length x head width x micro-batch; one row per
    (point, trial).

    Runs on the deterministic engine: rows arrive in point-major order
    and are bit-identical for a given ``seed`` at any ``workers``
    setting.  Infeasible points (block does not fit ``n_tiles``) come
    back with ``feasible=False`` instead of raising.
    """
    points = [
        (int(s), int(d), int(m))
        for s in seqs
        for d in d_heads
        for m in micro_batches
    ]
    if not points:
        return []
    nested = run_grid(
        _attention_point,
        points,
        trials=trials,
        seed=seed,
        workers=workers,
        task_args=(
            int(d_model),
            int(batch),
            int(n_tiles),
            int(model_seed),
            bool(noisy),
        ),
    )
    return [row for per_point in nested for row in per_point]
