"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
relevant experiment (timed via pytest-benchmark), prints the rows/series
the paper reports, and asserts the paper's qualitative *shape* (who wins,
by roughly what factor, where crossovers fall).
"""

import json
import os

import numpy as np
import pytest

# Machine-readable perf records, one dict of named records per
# ``BENCH_*.json`` file, written at session end so each trajectory
# (sweep-engine throughput, telemetry overhead, pipeline speedup, serving,
# energy pricing, ECC codec, workloads) is tracked across PRs.
_RECORDS = {}


def _recorder(filename):
    """``record(name, payload)`` registering one benchmark's metrics for
    the session's ``filename``."""

    def record(name, payload):
        _RECORDS.setdefault(filename, {})[name] = payload

    return record


record_sweep_metrics = _recorder("BENCH_sweep.json")
record_telemetry_metrics = _recorder("BENCH_telemetry.json")
record_pipeline_metrics = _recorder("BENCH_pipeline.json")
record_serve_metrics = _recorder("BENCH_serve.json")
record_energy_metrics = _recorder("BENCH_energy.json")
record_ecc_metrics = _recorder("BENCH_ecc.json")
record_workloads_metrics = _recorder("BENCH_workloads.json")


def validate_bench_schema(records, filename):
    """Cross-PR contract for every ``BENCH_*.json``: perf numbers are
    meaningless without the machine context and the headline ratio.

    * ``_meta.cpu_count`` must record the core count the numbers were
      measured on.
    * At least one record field must be a ``speedup`` ratio, and every
      such field must be finite and ``> 0`` (a zero/NaN speedup means the
      benchmark silently failed to measure).
    """
    meta = records.get("_meta")
    assert isinstance(meta, dict) and isinstance(meta.get("cpu_count"), int), (
        f"{filename}: missing _meta.cpu_count (machine context)"
    )
    assert meta["cpu_count"] >= 1, f"{filename}: cpu_count must be >= 1"
    speedups = [
        (f"{name}.{key}", value)
        for name, payload in records.items()
        if name != "_meta" and isinstance(payload, dict)
        for key, value in payload.items()
        if "speedup" in key
    ]
    assert speedups, f"{filename}: no speedup field in any record"
    for field, value in speedups:
        assert (
            isinstance(value, (int, float))
            and np.isfinite(value)
            and value > 0
        ), f"{filename}: {field} = {value!r} is not a positive finite ratio"


def _dump(records, path):
    """Merge ``records`` by name into the BENCH file at ``path``: records
    this session did not re-measure keep their committed values, so a
    partial benchmark run never erases the rest of the file."""
    merged = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    merged.update(records)
    merged["_meta"] = {"cpu_count": os.cpu_count() or 1}
    validate_bench_schema(merged, os.path.basename(path))
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
    print(f"\nwrote {path}")


def pytest_sessionstart(session):
    """Committed BENCH files are part of the schema contract too: catch a
    stale or hand-edited file before a run quietly re-publishes it."""
    bench_dir = os.path.dirname(__file__)
    for filename in sorted(os.listdir(bench_dir)):
        if filename.startswith("BENCH_") and filename.endswith(".json"):
            with open(os.path.join(bench_dir, filename)) as fh:
                try:
                    validate_bench_schema(json.load(fh), filename)
                except AssertionError as exc:
                    raise pytest.UsageError(
                        f"committed benchmark record violates the BENCH "
                        f"schema — regenerate it with a full benchmark "
                        f"run: {exc}"
                    ) from None


def pytest_sessionfinish(session, exitstatus):
    bench_dir = os.path.dirname(__file__)
    for filename, records in sorted(_RECORDS.items()):
        _dump(records, os.path.join(bench_dir, filename))


@pytest.fixture
def run_once(benchmark):
    """Benchmark an expensive experiment exactly once and return its
    result (pytest-benchmark's auto-calibration would re-run heavy
    workloads dozens of times)."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run


def print_table(title, rows, columns=None):
    """Print a list of dict rows as an aligned text table."""
    if not rows:
        print(f"\n== {title} == (empty)")
        return
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows))
        for c in columns
    }
    print(f"\n== {title} ==")
    print("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
