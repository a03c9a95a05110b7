#!/usr/bin/env python3
"""Host wall-clock benchmark of ``cimflow serve``.

    python3 bench/run.py --workload infer-open --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1                # every workload in turn
    python3 bench/run.py --seed 1 --trace        # per-layer metrics instead
    python3 bench/run.py --seed 1 --repeat 5     # spread of repeated sets

Each run starts the real server as a subprocess and drives it over its
JSON-lines socket.  Every number is host wall-clock (or host CPU/memory)
time; no simulated metric is reported.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print every metric with its unit and sample count.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import analysis
import workloads
from harness import OUT_DIR, ROOT, TIMEOUT_S, BenchError, Launch, launch
from traced_server import LAYERS

GEN_LAG_LIMIT_MS = 5.0
REFERENCE_ROWS = 128           # infer outputs re-computed in-process per run

E2E_UNITS = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "server_cpu_ms_per_req": "ms",
}

LAYER_UNITS = {"calls": "count", "self_ms_per_req": "ms/req", "self_share": "fraction"}
EXTRA_LAYER_UNITS = {
    "serve.wait_ms_p50": "ms",
    "serve.wait_ms_tail": "ms",
    "serve.requests_per_flush": "req/flush",
    "serve.results_hit_ratio": "fraction",
    "serve.artifact_hit_ratio": "fraction",
    "crossbar.lu_hit_ratio": "fraction",
    "core.rows_per_call": "rows/call",
    "trace.overhead": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in LAYER_UNITS.items()},
    **EXTRA_LAYER_UNITS,
}

_JOB = ["SimulationService.submit", "ResultsCache.get", "ResultsCache.put"]
_READ = ["CIMAccelerator.vmm_batch", "CIMCore.vmm_batch", "CrossbarArray.mvm_batch",
         "ADC.quantize_array", "ADC.reconstruct", "EnergyModel.charge_adc",
         "EnergyModel.charge_array", "EnergyModel.charge_dac",
         "EnergyModel.charge_driver"]
_INFER = _JOB + _READ + ["ArtifactCache.get_or_create", "RequestBatcher.submit",
                         "CrossbarMLP.forward_batch", "NodalCrossbarSolver.solve_batch"]
_GRID = ["run_grid", "run_trials"]
_DEPLOY = ["CIMCore.program_weights", "CrossbarArray.program",
           "EnergyModel.charge_programming", "CrossbarMLP.forward_batch",
           "accuracy_vs_yield", "allocate", "PipelineScheduler.run",
           "EnergyModel.charge_transfer", "explore_attention"]
#: Wrapper targets (``Class.method`` or function) each workload must call
#: at least once.  No served request reaches the remaining three targets,
#: ``EnergyModel.charge_{compute,decoder,movement}`` (von Neumann baseline
#: and scouting-logic writes).
EXERCISED = {
    "infer-open": _INFER,
    "explore-closed": _JOB + _READ + _GRID + _DEPLOY + [
        "ArtifactCache.get_or_create", "EnergyModel.charge_sense",
        "explore_pipeline", "pareto_analysis", "advise_ecc",
        "ecc_advisor_analysis"],
    "train-closed": _JOB + _GRID + [
        "CrossbarArray.mvm_batch", "CrossbarArray.write_cells",
        "CrossbarArray.program", "EnergyModel.charge_programming",
        "explore_training", "EnduranceSimulator.wear"],
    "mixed-shared": _INFER + _GRID + _DEPLOY,
}


@dataclass
class Result:
    """One workload run: its metrics plus what backs them."""

    workload: str
    metrics: Dict[str, float]
    units: Dict[str, str]
    counts: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    health: Dict[str, Any]
    streams: Dict[str, Any] = field(default_factory=dict)
    target_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


# ------------------------------------------------------------------ metrics
def _latencies_ms(records, grp: str) -> List[float]:
    """Latency of each request of group ``grp``; a failed request counts
    as the timeout, i.e. as missing any latency limit.

    Next to a closed-loop stream, open-loop requests count only while that
    stream still runs.  Otherwise the share of inferences that meet no
    job contention would grow whenever the jobs finish early, which turns
    host-speed drift into large swings of the contended latency."""
    closed_end = max((r.recv or r.sent for r in records if not r.open_loop), default=math.inf)
    return [
        1e3 * (TIMEOUT_S if r.failed else r.latency)
        for r in records
        if workloads.group(r.request, r.open_loop) == grp
        and (not r.open_loop or r.ref <= closed_end)
    ]


def _stream_summary(records, grp: str, tail_q: float) -> Dict[str, Any]:
    """Median and tail latency of one request group, where the sample
    supports them, plus job throughput for closed-loop jobs."""
    lat = _latencies_ms(records, grp)
    if not lat:
        return {}
    out: Dict[str, Any] = {"n": len(lat)}
    try:
        out["p50_ms"] = analysis.percentile(lat, 50.0)
        out["tail_q"], out["tail_ms"] = analysis.tail(lat, tail_q)
    except ValueError:
        pass  # too few samples for any percentile under the 10-beyond rule
    if grp == "job":
        jobs = [r for r in records if workloads.group(r.request, r.open_loop) == "job"]
        span = max(r.recv or r.sent for r in jobs) - min(r.sent for r in jobs)
        out["jobs_per_s"] = len(jobs) / span
    return out


def _health(run: Launch) -> Dict[str, Any]:
    """Is the client a trustworthy load generator for this run?"""
    sent = [r for r in run.records if r.open_loop]
    health: Dict[str, Any] = {
        "client_cpu_s": run.client_cpu_s,
        "connections": run.connections,
        "nproc": os.cpu_count(),
    }
    grew = False
    if sent:
        lag = [1e3 * (r.sent - r.ref) for r in sent]
        health["gen_lag_q"], health["gen_lag_ms"] = analysis.tail(lag, 99.0)
        quarter = max(1, len(sent) // 4)
        first = statistics.fmean(r.outstanding for r in sent[:quarter])
        last = statistics.fmean(r.outstanding for r in sent[-quarter:])
        grew = last > 2.0 * first + 1.0
        health["outstanding_end"] = sent[-1].outstanding
        health["backlog_grew"] = grew
    health["valid"] = (
        health.get("gen_lag_ms", 0.0) <= GEN_LAG_LIMIT_MS
        and not grew
        and run.connections <= (os.cpu_count() or 1)
    )
    return health


def _output_problems(run: Launch) -> List[str]:
    problems = []
    c_version = 0
    for rec in run.records:
        if rec.failed:
            continue
        kind, response = rec.request.kind, rec.response
        problems += [f"{rec.rid}: {p}" for p in
                     analysis.check_response(kind, response, rec.request.expect_cache)]
        # Each faults request on model C bumps its version and drops the
        # one cached C inference since the previous mutation.
        if kind == "faults":
            c_version += 1
            result = response["result"]
            if (result["model_version"], result["invalidated_results"]) != (c_version, 1):
                problems.append(f"{rec.rid}: faults result {result} breaks tag invalidation")
        elif kind == "infer" and not rec.open_loop:
            if response["result"]["model_version"] != c_version:
                problems.append(f"{rec.rid}: model C infer served a stale version")
    return problems


def _reference_problems(wl: workloads.Workload, run: Launch, seed: int) -> List[str]:
    """Recompute a seeded sample of infer outputs, and the first computed
    job of each kind, in-process with the library, after the same
    warm-up; served results must be bit-identical."""
    import numpy as np
    from repro.costs.models import use_model
    from repro.serve.service import SimulationService

    service = SimulationService()

    async def warm_and_replay(requests):
        for req in wl.warmup:
            await service.submit({"kind": req.kind, "params": req.params})
        return [await service.submit({"kind": r.kind, "params": r.params}) for r in requests]

    problems = []
    firsts: Dict[str, Any] = {}
    for rec in run.records:
        if (workloads.group(rec.request, rec.open_loop) == "job" and not rec.failed
                and rec.request.expect_cache == "miss"):
            firsts.setdefault(rec.request.kind, rec)
    replayed = asyncio.run(warm_and_replay([r.request for r in firsts.values()]))
    for rec, mine in zip(firsts.values(), replayed):
        for part in ("result", "report"):
            if analysis.canonical(rec.response[part]) != analysis.canonical(mine[part]):
                problems.append(f"{rec.rid}: served {rec.request.kind} {part} "
                                "differs from the in-process library result")
    infers = [r for r in run.records if r.open_loop and not r.failed]
    rng = np.random.default_rng([seed, 99])
    pick = sorted(rng.choice(len(infers), size=min(REFERENCE_ROWS, len(infers)), replace=False))
    by_model: Dict[str, list] = defaultdict(list)
    for i in pick:
        by_model[analysis.canonical(infers[i].request.params["model"])].append(infers[i])
    for model, recs in by_model.items():
        artifact, _ = service.model_artifact(json.loads(model))
        x = np.array([r.request.params["x"][0] for r in recs])
        with use_model("static"):
            expected = artifact.deployed.forward_batch(x, noisy=False)
        for rec, row in zip(recs, expected.tolist()):
            if rec.response["result"]["logits"] != [row]:
                problems.append(f"{rec.rid}: served logits differ from forward_batch")
    return problems


def _measure(wl: workloads.Workload, run: Launch, seed: int, reference: bool = True) -> Result:
    records = run.records
    gated = _stream_summary(records, wl.gated, wl.tail_q)
    if "tail_ms" not in gated:
        raise BenchError(f"{wl.name}: {gated.get('n', 0)} {wl.gated} latencies are too "
                         f"few for a median with {analysis.MIN_BEYOND} samples beyond it; "
                         "lengthen --seconds")
    answered = sum(1 for r in records if not r.failed)
    failed = len(records) - answered
    metrics = {
        "latency_p50_ms": gated["p50_ms"],
        "latency_tail_ms": gated["tail_ms"],
        "server_cpu_ms_per_req": 1e3 * run.server_cpu_s / max(answered, 1),
        "rss_peak_mb": run.rss_peak_mb,
    }
    streams = {grp: s for grp in ("infer", "job") if (s := _stream_summary(records, grp, 99.0))}
    streams["failed_frac"] = failed / len(records)
    streams["window_s"] = run.window_s
    problems = _output_problems(run)
    if reference:
        problems += _reference_problems(wl, run, seed)
    return Result(
        workload=wl.name,
        metrics=metrics,
        units=dict(E2E_UNITS),
        counts={"latency_p50_ms": gated["n"], "latency_tail_ms": gated["n"],
                "server_cpu_ms_per_req": answered, "rss_peak_mb": 1},
        attempted=len(records),
        failed=failed,
        problems=problems,
        digest=analysis.outputs_digest(
            (r.request.kind, None if r.failed else r.response) for r in records),
        health={**_health(run), "gated_tail_q": gated["tail_q"]},
        streams=streams,
    )


def _stats_delta(run: Launch) -> Dict[str, float]:
    before, after = run.stats_before, run.stats_after

    def d(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    return {
        "batch_requests": d("batcher", "requests"),
        "flushes": d("batcher", "flushes"),
        "results_hits": d("results_cache", "request_hits"),
        "results_misses": d("results_cache", "request_misses"),
        "artifact_hits": d("artifact_cache", "hits"),
        "artifact_misses": d("artifact_cache", "misses"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(wl: workloads.Workload, plain: Result, traced_run: Launch, traced: Result) -> Tuple[Dict[str, float], Dict[str, int], List[str]]:
    with open(traced_run.spans_path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    targets = [tuple(t) for t in header["targets"]]
    prof = analysis.layer_profile(targets, spans, [r.rid for r in traced_run.records], wl.tail_q)
    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = prof["calls"][layer]
        m[f"{layer}.self_ms_per_req"] = prof["self_ms_per_req"][layer]
        m[f"{layer}.self_share"] = prof["self_share"][layer]
    d = _stats_delta(traced_run)
    lu_hits = lu_misses = 0.0
    for rec in traced_run.records:
        if not rec.failed and rec.response["cache"] != "hit":
            counters = rec.response["report"]["counters"]
            lu_hits += counters.get("solver.cache_hits", 0.0)
            lu_misses += counters.get("solver.cache_misses", 0.0)
    m.update({
        "serve.wait_ms_p50": prof["wait_ms_p50"],
        "serve.wait_ms_tail": prof["wait_ms_tail"],
        "serve.requests_per_flush": _ratio(d["batch_requests"], d["flushes"]),
        "serve.results_hit_ratio": _ratio(d["results_hits"], d["results_hits"] + d["results_misses"]),
        "serve.artifact_hit_ratio": _ratio(d["artifact_hits"], d["artifact_hits"] + d["artifact_misses"]),
        "crossbar.lu_hit_ratio": _ratio(lu_hits, lu_hits + lu_misses),
        "core.rows_per_call": prof["rows_per_call"],
        "trace.overhead": traced.metrics["latency_p50_ms"] / plain.metrics["latency_p50_ms"],
    })
    called = {name.split(":", 1)[1] for name in prof["target_calls"]}
    problems = [f"trace target {t} was never called on {wl.name}"
                for t in EXERCISED[wl.name] if t not in called]
    return m, prof["target_calls"], problems


# --------------------------------------------------------------------- runs
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run of workload ``name``."""
    wl = workloads.build(name, seed, seconds)
    if not trace:
        # Set-up is sampled before and after the measured launch, so the
        # samples span the run instead of one phase of the host's speed.
        before = asyncio.run(launch(wl, measure=False)).setup_s
        run = asyncio.run(launch(wl))
        after = asyncio.run(launch(wl, measure=False)).setup_s
        result = _measure(wl, run, seed)
        setups = [before, run.setup_s, after]
        result.metrics["setup_s"] = statistics.median(setups)
        result.counts["setup_s"] = len(setups)
        return result
    plain = _measure(wl, asyncio.run(launch(wl)), seed)
    spans = OUT_DIR / f"spans-{name}.jsonl"
    traced_run = asyncio.run(launch(wl, spans=spans))
    # Equal digests below make the traced outputs as correct as the plain ones.
    traced = _measure(wl, traced_run, seed, reference=False)
    layer, target_calls, problems = _per_layer(wl, plain, traced_run, traced)
    if traced.digest != plain.digest:
        problems.append("traced outputs differ from untraced outputs")
    spans.unlink()
    return Result(
        workload=name,
        metrics=layer,
        units=dict(PER_LAYER_UNITS),
        counts={k: traced.attempted for k in layer},
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        problems=plain.problems + traced.problems + problems,
        digest=plain.digest,
        health=traced.health,
        streams={"untraced": plain.streams, "traced": traced.streams},
        target_calls=target_calls,
    )


def _print_result(res: Result) -> None:
    print(f"== {res.workload}: attempted {res.attempted}, failed {res.failed}, "
          f"correct {res.correct}, valid {res.health['valid']}")
    for name in sorted(res.metrics):
        print(f"  {name:32s} {res.metrics[name]:14.6g} {res.units[name]:10s} n={res.counts[name]}")
    for grp, summary in res.streams.items():
        print(f"  {grp}: {json.dumps(summary, sort_keys=True)}")
    print(f"  health: {json.dumps(res.health, sort_keys=True)}")
    print(f"  outputs_sha256 {res.digest}")
    for problem in res.problems:
        print(f"  CHECK FAILED: {problem}")


def _environment() -> Dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def _final_line(results: List[Result], metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _bounds() -> Dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def _repeat_summary(results: List[Result], trace: bool) -> Dict[str, Tuple[float, str]]:
    """Print each metric's median, quartiles and spreads across sets."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    units: Dict[str, str] = {}
    digests: Dict[str, set] = defaultdict(set)
    for res in results:
        digests[res.workload].add(res.digest)
        for name, value in res.metrics.items():
            values[(res.workload, name)].append(value)
            units[name] = res.units[name]
    bounds = {} if trace else _bounds()
    print(f"{'workload':15s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'range/med':>9s} {'iqr/med':>8s} {'bound':>6s}")
    out = {}
    for (wl, name), xs in sorted(values.items()):
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        rng = (max(xs) - min(xs)) / med if med else 0.0
        iqr = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{wl:15s} {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rng:9.3f} {iqr:8.3f} "
              f"{'' if bound is None else f'{bound:6.2f}'}")
        out[f"{wl}/{name}"] = (med, units[name])
    for wl, ds in sorted(digests.items()):
        print(f"{wl}: {'identical' if len(ds) == 1 else 'DIFFERENT'} outputs_sha256 across sets")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1, help="sets of runs to summarize")
    parser.add_argument("--out", help="also write the full results as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else list(workloads.WORKLOAD_NAMES)
    env = _environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    results: List[Result] = []
    try:
        for k in range(args.repeat):
            for name in (names if k % 2 == 0 else names[::-1]):
                res = run_workload(name, args.seed, args.seconds, bool(args.trace))
                _print_result(res)
                results.append(res)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    if args.repeat > 1:
        metrics = _repeat_summary(results, bool(args.trace))
    elif len(results) == 1:
        res = results[0]
        metrics = {k: (v, res.units[k]) for k, v in res.metrics.items()}
    else:
        metrics = {f"{r.workload}/{k}": (v, r.units[k]) for r in results for k, v in r.metrics.items()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env, "args": vars(args),
                       "runs": [vars(r) for r in results]}, fh, indent=2, sort_keys=True)
    print(_final_line(results, metrics))
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
