#!/usr/bin/env python
"""End-to-end smoke test for the serving layer, run by CI.

Starts a real ``cimflow serve`` process on an ephemeral port, submits an
inference request, a yield sweep, a small in-situ ``train`` job, a small
``pipeline`` pass, a one-point ``dse`` job and a one-point ``ecc`` job over
the socket, then
re-submits each job and asserts the second response is
a results-cache hit that is bit-identical to the cold one — the serving
layer's core contract, exercised through the same process boundary users
cross.  The served logits must equal the same model deployed in this
process.  An input containing NaN, a sweep at yield 1.5 and an ``ecc``
job with ``words_per_array: 0`` must each be a ``bad_request`` that
leaves the server answering.  Every cold ``ecc`` row must carry a
coverage in [0, 1] and a non-negative ``word_failure_se``.  The
``train`` job covers the device write path (write-verify, endurance wear,
programming energy).  Its cold run fans out over two sweep workers and its warm run asks for none, so the hit also proves the
parallel path returns the full, non-empty report a serial run would.

Exits non-zero (with a message on stderr) on any violation.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.path.insert(0, "src")

from repro.serve import ServeClient, SimulationService  # noqa: E402

# Small enough to train in seconds on a CI runner, big enough to exercise
# the tiled LU path (wire_resistance > 0) the batcher relies on.
MODEL = {
    "n_samples": 120,
    "n_features": 16,
    "n_classes": 4,
    "hidden": [8],
    "epochs": 4,
    "wire_resistance": 1.0,
}
SWEEP = {"yields": [1.0, 0.8], "trials": 1, "epochs": 4, "n_samples": 120}
# One grid point, one epoch: the whole write path in well under a second.
TRAIN = {"lives": [8.0], "drift_nus": [0.01], "epochs": 1}
# A small pipeline pass and a one-point DSE: the scheduler's per-pass and
# per-step telemetry scopes, across the process boundary.
PIPELINE = {"batch": 16}
DSE = {"tile_counts": [4], "duplication_modes": ["none"]}
# One code at one yield: the ECC Monte Carlo block and the advisor.
ECC = {"codes": ["bch"], "yields": [0.97], "mc_words": 512, "trials": 1}

READY_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def cold_then_warm(client, kind, params, **cold_only):
    """Submit ``kind`` twice: the first response (with ``cold_only``
    params added, which must not change the answer) must be a
    results-cache miss, the second a hit that is byte-identical to it.
    Returns the cold response."""
    cold = client.request(kind, {**params, **cold_only})
    if not cold.get("ok"):
        fail(f"cold {kind} failed: {cold.get('error')}")
    if cold["cache"] != "miss":
        fail(f"cold {kind} should be a cache miss, got {cold['cache']}")

    warm = client.request(kind, params)
    if not warm.get("ok"):
        fail(f"warm {kind} failed: {warm.get('error')}")
    if warm["cache"] != "hit":
        fail(
            f"identical re-submitted {kind} must be a results-cache hit, "
            f"got {warm['cache']}"
        )
    # Bit-identical means byte-identical canonical JSON: result AND the
    # conservation-validated report.
    for field in ("result", "report"):
        if json.dumps(cold[field], sort_keys=True) != json.dumps(
            warm[field], sort_keys=True
        ):
            fail(f"warm {kind} {field} differs from cold response")
    print(f"serve_smoke: warm {kind} is a bit-identical cache hit")
    return cold


def main():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        ready = proc.stdout.readline()
        match = READY_RE.search(ready)
        if match is None:
            fail(f"server did not report a listening address: {ready!r}")
        host, port = match.group(1), int(match.group(2))
        print(f"serve_smoke: server up on {host}:{port}")

        x = [[0.1] * MODEL["n_features"]]
        with ServeClient(host, port, timeout=600) as client:
            infer = client.request("infer", {"model": MODEL, "x": x})
            if not infer.get("ok"):
                fail(f"inference failed: {infer.get('error')}")
            if len(infer["result"]["prediction"]) != 1:
                fail(f"unexpected inference result: {infer['result']}")
            print(
                "serve_smoke: infer ok, prediction="
                f"{infer['result']['prediction']}"
            )
            deployed = SimulationService().model_artifact(MODEL)[0].deployed
            local = deployed.forward_batch(x, noisy=False).tolist()
            if local != infer["result"]["logits"]:
                fail(
                    f"served logits {infer['result']['logits']} differ from "
                    f"the in-process deployment {local}"
                )
            print("serve_smoke: served logits equal the in-process forward")

            nan_x = [[math.nan] * MODEL["n_features"]]
            bad = client.request("infer", {"model": MODEL, "x": nan_x})
            code = (bad.get("error") or {}).get("code")
            if bad.get("ok") or code != "bad_request":
                fail(f"NaN infer must be a bad_request, got {bad}")
            # A new input, so the request is computed, not a cache hit.
            again = client.request(
                "infer", {"model": MODEL, "x": [[0.2] * MODEL["n_features"]]}
            )
            if not again.get("ok") or again["cache"] != "miss":
                fail(f"infer after a NaN request failed: {again.get('error')}")
            print("serve_smoke: NaN infer is a bad_request, server serves on")

            bad = client.request("sweep", {"yields": [1.5]})
            code = (bad.get("error") or {}).get("code")
            if bad.get("ok") or code != "bad_request":
                fail(f"sweep at yield 1.5 must be a bad_request, got {bad}")
            print("serve_smoke: out-of-range yield is a bad_request")
            # The sweep below is then served as usual.
            cold = cold_then_warm(client, "sweep", SWEEP)
            print(f"serve_smoke: sweep ok ({len(cold['result']['rows'])} rows)")
            cold = cold_then_warm(client, "train", TRAIN, workers=2)
            if not cold["report"]["totals"]["energy"] > 0:
                fail(f"parallel train report is empty: {cold['report']}")
            print(f"serve_smoke: train ok ({len(cold['result']['rows'])} rows)")
            cold = cold_then_warm(client, "pipeline", PIPELINE)
            if not cold["report"]["totals"]["energy"] > 0:
                fail(f"pipeline report is empty: {cold['report']}")
            print("serve_smoke: pipeline ok")
            cold = cold_then_warm(client, "dse", DSE)
            print(f"serve_smoke: dse ok ({len(cold['result']['rows'])} rows)")
            bad = client.request("ecc", {**ECC, "words_per_array": 0})
            code = (bad.get("error") or {}).get("code")
            if bad.get("ok") or code != "bad_request":
                fail(f"ecc with words_per_array 0 must be a bad_request, got {bad}")
            print("serve_smoke: ecc with words_per_array 0 is a bad_request")
            cold = cold_then_warm(client, "ecc", ECC)
            for row in cold["result"]["rows"]:
                if not row.get("word_failure_se", -1.0) >= 0.0:
                    fail(f"ecc row has no standard error: {row}")
                if not 0.0 <= row["coverage"] <= 1.0:
                    fail(f"ecc coverage outside [0, 1]: {row}")
            print(f"serve_smoke: ecc ok ({len(cold['result']['rows'])} rows)")

            stats = client.request("stats")
            cache = stats["result"]["results_cache"]
            if cache["request_hits"] < 5:
                fail(f"stats report no results-cache hits: {cache}")
            print(f"serve_smoke: PASS (results cache: {cache})")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
