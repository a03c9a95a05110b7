"""Benchmarks: the attention and in-situ-training workloads.

Gates the two workload claims on their performance half: the fork-join
attention block must actually pipeline (pipelined makespan beats the
sequential schedule by ``>= ATTENTION_SPEEDUP_GATE`` while staying
bit-identical), and the vectorized outer-product gradient must beat the
scalar reference loop (``>= OUTER_PRODUCT_SPEEDUP_GATE``) with the same
bits.  Writes the numbers to ``BENCH_workloads.json`` (via
:func:`conftest.record_workloads_metrics`) so the workload-throughput
trajectory is tracked across PRs.
"""

import time

import numpy as np

from conftest import print_table, record_workloads_metrics

#: A 5-stage fork-join graph on a 4-deep micro-batch stream must overlap
#: stages; anything under 1.5x means the DAG scheduler serialized it.
ATTENTION_SPEEDUP_GATE = 1.5

#: The outer-product update is the training inner loop; the vectorized
#: path must clearly beat the per-element scalar reference.
OUTER_PRODUCT_SPEEDUP_GATE = 3.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_attention_pipeline_speedup(run_once):
    """Traced attention (QK^T / softmax / AV as crossbar stages) must win
    from pipelining while the pipelined outputs stay bit-identical to the
    sequential schedule."""
    from repro.workloads.attention import AttentionParams, run_attention

    params = AttentionParams(seq=8, d_model=16, d_head=8)

    def experiment():
        return run_attention(params, batch=32, micro_batch=4)

    row = run_once(experiment)
    assert row["bit_identical"] is True
    print_table(
        "attention fork-join pipeline (seq=8, d_model=16, d_head=8)",
        [
            {
                "mode": "sequential",
                "makespan_s": row["makespan_sequential_s"],
            },
            {
                "mode": "pipelined",
                "makespan_s": row["makespan_pipelined_s"],
            },
        ],
    )
    print(
        f"pipeline speedup: {row['speedup']:.2f}x "
        f"(gate {ATTENTION_SPEEDUP_GATE}x); bit-identical: True"
    )
    record_workloads_metrics(
        "attention_pipeline",
        {
            "seq": params.seq,
            "d_model": params.d_model,
            "d_head": params.d_head,
            "graph_edges": row["graph_edges"],
            "makespan_sequential_s": row["makespan_sequential_s"],
            "makespan_pipelined_s": row["makespan_pipelined_s"],
            "speedup_pipelined_vs_sequential": row["speedup"],
            "bit_identical": row["bit_identical"],
            "energy_per_sample_j": row["energy_per_sample"],
        },
    )
    assert row["speedup"] >= ATTENTION_SPEEDUP_GATE


def test_outer_product_fast_path_beats_scalar(run_once):
    """The vectorized gradient accumulation must beat the scalar triple
    loop bit-for-bit — same summation order, same result, much faster."""
    from repro.workloads.training import (
        _outer_product_delta_scalar,
        outer_product_delta,
    )

    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (512, 64))
    delta = rng.normal(size=(512, 16))

    def experiment():
        fast, t_fast = _timed(outer_product_delta, x, delta)
        scalar, t_scalar = _timed(_outer_product_delta_scalar, x, delta)
        return fast, scalar, t_fast, t_scalar

    fast, scalar, t_fast, t_scalar = run_once(experiment)
    assert np.array_equal(fast, scalar)
    speedup = t_scalar / t_fast
    print_table(
        "outer-product gradient (batch=512, 64x16)",
        [
            {"path": "scalar reference", "seconds": t_scalar},
            {"path": "vectorized", "seconds": t_fast},
        ],
    )
    print(
        f"outer-product speedup: {speedup:.1f}x "
        f"(gate {OUTER_PRODUCT_SPEEDUP_GATE}x); bit-identical: True"
    )
    record_workloads_metrics(
        "outer_product_update",
        {
            "batch": 512,
            "rows": 64,
            "cols": 16,
            "scalar_seconds": t_scalar,
            "fast_seconds": t_fast,
            "speedup_fast_vs_scalar": speedup,
            "bit_identical": True,
        },
    )
    assert speedup >= OUTER_PRODUCT_SPEEDUP_GATE


def test_insitu_training_backends_bit_identical(run_once):
    """Full training runs (write-verify, endurance wear, drift) must be
    byte-for-byte identical between the fast path and the private
    references patched in, so the fast path is always safe to ship."""
    import json
    from unittest import mock

    from repro.workloads import training
    from repro.workloads.training import TrainingParams, train_insitu

    params = TrainingParams(epochs=3)

    def experiment():
        fast, t_fast = _timed(train_insitu, params, rng=7)
        with mock.patch.object(
            training, "outer_product_delta",
            training._outer_product_delta_scalar,
        ), mock.patch.object(
            training, "_write_noise", training._write_noise_scalar
        ):
            scalar, t_scalar = _timed(train_insitu, params, rng=7)
        return fast, scalar, t_fast, t_scalar

    fast, scalar, t_fast, t_scalar = run_once(experiment)
    assert json.dumps(fast, sort_keys=True) == json.dumps(
        scalar, sort_keys=True
    )
    print_table(
        "in-situ training, 3 epochs (16 features, 4 classes)",
        [
            {"path": "scalar reference", "seconds": t_scalar},
            {"path": "fast", "seconds": t_fast},
        ],
    )
    print(
        f"bit-identical: True; final accuracy {fast['final_accuracy']:.3f}, "
        f"dead cells {fast['dead_cells']}, "
        f"write energy {fast['write_energy_j']:.3e} J"
    )
    record_workloads_metrics(
        "insitu_training",
        {
            "epochs": params.epochs,
            "scalar_seconds": t_scalar,
            "fast_seconds": t_fast,
            # Determinism record plus the throughput ratio of the shipped
            # fast path over the references.
            "speedup_fast_vs_scalar": t_scalar / t_fast,
            "bit_identical": True,
            "final_accuracy": fast["final_accuracy"],
            "dead_cells": fast["dead_cells"],
            "total_pulses": fast["total_pulses"],
            "write_energy_j": fast["write_energy_j"],
        },
    )
