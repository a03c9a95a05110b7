"""The harness against real ``cimflow serve`` processes (about a minute)."""

import asyncio
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import analysis
import harness
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]


def _digest(launch: harness.Launch) -> str:
    assert not any(r.failed for r in launch.records)
    return analysis.outputs_digest((r.request.kind, r.response) for r in launch.records)


def _flushes(launch: harness.Launch) -> int:
    return launch.stats_after["batcher"]["flushes"] - launch.stats_before["batcher"]["flushes"]


def test_digest_does_not_depend_on_batch_composition():
    paced = workloads.build("infer-open", seed=5, seconds=0.4)      # 60 requests
    stream = paced.streams[0]
    # The same requests all due at once coalesce into max-size batches.
    burst = dataclasses.replace(paced, streams=(dataclasses.replace(
        stream, requests=tuple(dataclasses.replace(r, due=0.0) for r in stream.requests)),))
    a = asyncio.run(harness.launch(paced))
    b = asyncio.run(harness.launch(burst))
    assert _flushes(a) > 2 * _flushes(b)
    assert _digest(a) == _digest(b)


def test_traced_launcher_rebinds_every_import_site():
    code = (
        "import json, importlib, traced_server as t\n"
        "tr = t.Tracer(); tr.install()\n"
        "def get(name):\n"
        "    module, qual = name.split(':')\n"
        "    obj = importlib.import_module(module)\n"
        "    for part in qual.split('.'):\n"
        "        obj = getattr(obj, part)\n"
        "    return obj\n"
        "print(json.dumps({'targets': tr.targets, 'sites': tr.sites,\n"
        "    'unwrapped': [n for _, n in tr.targets if not hasattr(get(n), '__wrapped__')]}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                         capture_output=True, text=True)
    info = json.loads(out.stdout)
    assert info["unwrapped"] == []
    sites = info["sites"]
    # Imported by name in explore.py, nn.py, cnn.py, attention.py,
    # training.py, ecc_advisor.py and faults/sweeps.py.
    assert sites["repro.utils.parallel:run_grid"] >= 8
    assert sites["repro.pipeline.explore:explore_pipeline"] >= 2   # repro.pipeline re-export
    static = {name.split(":", 1)[1] for _, name in info["targets"]}
    exercised = {t for targets in run.EXERCISED.values() for t in targets}
    assert exercised <= static
    assert static - exercised == {
        "EnergyModel.charge_compute", "EnergyModel.charge_decoder", "EnergyModel.charge_movement"}


@pytest.mark.parametrize("name,seconds", [
    ("infer-open", 2), ("explore-closed", 5), ("train-closed", 3), ("mixed-shared", 4)])
def test_traced_run_calls_every_target_its_workload_exercises(name, seconds):
    res = run.run_workload(name, seed=7, seconds=seconds, trace=True)
    assert res.problems == []        # includes the per-target coverage check
    assert res.failed == 0
    assert set(res.metrics) == set(run.PER_LAYER_UNITS)
    assert res.metrics["serve.calls"] > 0
