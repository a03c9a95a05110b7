"""Benchmarks: the pipelined multi-tile scheduler (repro.pipeline).

Regenerates the ISAAC-style system claim: pipelining a spatially-mapped
model across tiles multiplies steady-state throughput over running it
layer by layer.  Gates:

* simulated pipelined throughput >= 2x the layer-sequential baseline on
  the 4-layer reference MLP at batch 64 (micro-batch 8 -> 8 in-flight
  micro-batches over 4 stages, ideal overlap ~2.9x);
* pipelined and sequential outputs bit-identical (the schedule changes
  time, never answers);
* the DSE grid is bit-identical between serial and 2-worker runs;
* timing one batch under both schedule modes from one functional pass
  (``execute`` + two ``schedule`` calls) is >= 1.4x faster in host wall
  time than two ``run`` calls, on one DSE and one attention point.

Metrics land in ``BENCH_pipeline.json`` via
:func:`conftest.record_pipeline_metrics` so the speedup trajectory is
tracked across PRs.
"""

import time

import numpy as np

from conftest import print_table, record_pipeline_metrics

PIPELINE_SPEEDUP_GATE = 2.0
#: Host-time gate for running the numerics once per batch.
FUNCTIONAL_ONCE_GATE = 1.4
FUNCTIONAL_ONCE_REPEATS = 5


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_pipelined_vs_sequential_throughput(run_once):
    """The tentpole gate: >= 2x simulated steady-state throughput from
    pipelining the 4-layer reference MLP at batch 64."""
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
        reference_graph,
    )

    graph = reference_graph()
    batch, micro_batch = 64, 8

    def experiment():
        alloc = allocate(
            graph, TileInventory(n_tiles=4), duplication="none", rng=0
        )
        x = np.random.default_rng(1).uniform(
            0, 1, (batch, graph.in_features)
        )
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch))
        trace, t_exec = _timed(sched.execute, x)
        seq, t_seq = _timed(trace.schedule, "sequential")
        pipe, t_pipe = _timed(trace.schedule, "pipelined")
        return seq, pipe, t_exec, t_seq, t_pipe

    seq, pipe, t_exec, t_seq, t_pipe = run_once(experiment)
    speedup = pipe.throughput / seq.throughput

    rows = [
        {
            "schedule": "layer-sequential",
            "makespan_s": seq.makespan,
            "samples_per_s": seq.throughput,
            "tile_utilization": seq.utilization(),
            "schedule_wall_s": t_seq,
        },
        {
            "schedule": "pipelined",
            "makespan_s": pipe.makespan,
            "samples_per_s": pipe.throughput,
            "tile_utilization": pipe.utilization(),
            "schedule_wall_s": t_pipe,
        },
    ]
    print_table(
        f"4-layer MLP on 4 tiles, batch {batch} (micro-batch {micro_batch}; "
        f"one functional pass, {t_exec:.3g} s host time)",
        rows,
    )
    record_pipeline_metrics(
        "pipelined_vs_sequential",
        {
            "batch": batch,
            "micro_batch": micro_batch,
            "stages": len(graph),
            "sequential_samples_per_s": seq.throughput,
            "pipelined_samples_per_s": pipe.throughput,
            "speedup": speedup,
            "sequential_utilization": seq.utilization(),
            "pipelined_utilization": pipe.utilization(),
            "transfer_bytes": pipe.transfer_bytes,
        },
    )

    # Numerics are schedule-invariant — bit for bit.
    assert np.array_equal(seq.outputs, pipe.outputs)
    # Energy is schedule-invariant too: both modes time one functional
    # pass, so the charged categories are exactly equal.
    assert pipe.categories == seq.categories
    assert pipe.total_energy == seq.total_energy
    # The throughput gate.
    assert speedup >= PIPELINE_SPEEDUP_GATE, (
        f"pipelined speedup {speedup:.2f}x below the "
        f"{PIPELINE_SPEEDUP_GATE}x gate"
    )


def test_duplication_curve_shape(run_once):
    """Weight duplication must lift the conv-bottlenecked workload's
    throughput monotonically with the tile budget (the ISAAC curve)."""
    from repro.pipeline import explore_pipeline

    def experiment():
        # micro_batch=1 keeps 16 micro-batches in flight so replica
        # counts up to the batch size stay usable (no saturation).
        rows, t = _timed(
            explore_pipeline,
            tile_counts=(8, 16, 32),
            duplication_modes=("auto",),
            batch_sizes=(16,),
            micro_batch=1,
            seed=0,
            workers=0,
        )
        return rows, t

    rows, t = run_once(experiment)
    print_table(
        "throughput vs tiles (conv workload, auto duplication)",
        [
            {
                "tiles": r["tiles"],
                "replicas": "x".join(str(c) for c in r["replicas"]),
                "samples_per_s": r["throughput"],
                "utilization": r["utilization"],
            }
            for r in rows
        ],
    )
    throughputs = [r["throughput"] for r in rows]
    record_pipeline_metrics(
        "duplication_curve",
        {
            "tiles": [r["tiles"] for r in rows],
            "samples_per_s": throughputs,
            "gain_8_to_32_tiles": throughputs[-1] / throughputs[0],
            "sim_wall_s": t,
        },
    )
    assert all(
        b >= a for a, b in zip(throughputs, throughputs[1:])
    ), "throughput-vs-tiles curve is not monotone"
    assert throughputs[-1] > 1.5 * throughputs[0], (
        "duplication failed to lift the bottlenecked workload"
    )


def test_exploration_grid_deterministic(run_once):
    """Serial and 2-worker DSE grids must be bit-identical (sweep-engine
    contract holds through the whole pipeline stack)."""
    from repro.pipeline import explore_pipeline

    kw = dict(
        tile_counts=(8, 16),
        duplication_modes=("none", "auto"),
        batch_sizes=(16,),
        micro_batch=4,
        seed=7,
    )

    def experiment():
        serial, t_serial = _timed(explore_pipeline, workers=0, **kw)
        parallel, t_par = _timed(explore_pipeline, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    n_points = len(serial)
    print_table(
        "DSE grid backends",
        [
            {
                "backend": "serial (workers=0)",
                "seconds": t_serial,
                "points_per_sec": n_points / t_serial,
            },
            {
                "backend": "parallel (workers=2)",
                "seconds": t_par,
                "points_per_sec": n_points / t_par,
            },
        ],
    )
    record_pipeline_metrics(
        "exploration_determinism",
        {
            "grid_points": n_points,
            "points_per_sec_serial": n_points / t_serial,
            "points_per_sec_parallel": n_points / t_par,
            "bit_identical": serial == parallel,
        },
    )
    assert serial == parallel, "DSE grid must be worker-count invariant"


def test_functional_pass_runs_once(run_once):
    """Host wall time to time one batch under both schedule modes: two
    ``run`` calls (two functional passes) against one ``execute`` and two
    ``schedule`` calls.  Measured on the 16-tile auto-duplication point
    of the served ``dse`` defaults and on the default attention point.
    This is host time, not the simulated samples/s recorded above."""
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
        reference_conv_graph,
    )
    from repro.workloads.attention import (
        AttentionParams,
        attention_graph,
        token_sequences,
    )

    batch, micro_batch = 32, 8
    conv = reference_conv_graph(1234)
    edge = conv.nodes[0].image_size
    images = np.random.default_rng(1235).uniform(0, 1, (batch, edge, edge))
    params = AttentionParams()
    attention = attention_graph(params, model_seed=2024)
    tokens, _ = token_sequences(
        n_samples=batch, seq=params.seq, d_model=params.d_model, rng=2025
    )
    cases = {
        "dse": (conv, "auto", images),
        "attention": (attention, "none", tokens.reshape(batch, -1)),
    }

    def two_runs(sched, x):
        return sched.run(x, "sequential"), sched.run(x, "pipelined")

    def execute_once(sched, x):
        trace = sched.execute(x)
        return trace.schedule("sequential"), trace.schedule("pipelined")

    def experiment():
        times = {}
        for name, (graph, duplication, x) in cases.items():
            samples = {two_runs: [], execute_once: []}
            outputs = {}
            for _ in range(FUNCTIONAL_ONCE_REPEATS):
                for fn in (two_runs, execute_once):
                    # A fresh allocation per call, built outside the
                    # timed region, so both sides start from one state.
                    alloc = allocate(
                        graph,
                        TileInventory(n_tiles=16),
                        duplication=duplication,
                        rng=0,
                    )
                    sched = PipelineScheduler(
                        alloc, ScheduleParams(micro_batch)
                    )
                    outputs[fn], t = _timed(fn, sched, x)
                    samples[fn].append(t)
            times[name] = (
                float(np.median(samples[two_runs])),
                float(np.median(samples[execute_once])),
                outputs[two_runs],
                outputs[execute_once],
            )
        return times

    times = run_once(experiment)
    record = {
        "clock": "host wall time (s), median of repeats",
        "repeats": FUNCTIONAL_ONCE_REPEATS,
        "batch": batch,
        "micro_batch": micro_batch,
    }
    rows = []
    for name, (t_two, t_once, _, _) in times.items():
        record[f"{name}_two_runs_s"] = t_two
        record[f"{name}_execute_once_s"] = t_once
        record[f"{name}_speedup"] = t_two / t_once
        rows.append(
            {
                "point": name,
                "two_runs_s": t_two,
                "execute_once_s": t_once,
                "speedup": t_two / t_once,
            }
        )
    print_table("one functional pass per batch (host wall time)", rows)
    record_pipeline_metrics("functional_once", record)

    for name, (t_two, t_once, by_runs, by_trace) in times.items():
        # Two runs on fresh allocations are the oracle for one trace.
        for ran, traced in zip(by_runs, by_trace):
            assert np.array_equal(ran.outputs, traced.outputs)
            assert ran.makespan == traced.makespan
            assert ran.categories == traced.categories
        assert t_two / t_once >= FUNCTIONAL_ONCE_GATE, (
            f"{name}: one functional pass is only {t_two / t_once:.2f}x "
            f"faster than two runs (gate {FUNCTIONAL_ONCE_GATE}x)"
        )
