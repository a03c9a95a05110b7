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
process.  A three-row IR-drop ``infer`` must give, row by row, the logits
of each row sent alone.  A burst of 8 one-row ``infer`` lines in one
socket write, 4 on the ideal-wire default model and 4 on the IR-drop
model, must coalesce (the ``stats`` batcher delta shows fewer flushes
than requests) and give each row the logits it gets read alone.  An
input containing NaN, a model with a negative
``wire_resistance``, a ``train`` job with a NaN ``drift_nus``, a sweep at
yield 1.5 and an ``ecc`` job with ``words_per_array: 0`` must each be a
``bad_request`` that leaves the server answering.  Every cold ``ecc`` row must carry a
coverage in [0, 1] and a non-negative ``word_failure_se``.  The
``train`` job covers the device write path (write-verify, endurance wear,
programming energy).  Its cold run fans out over two sweep workers and its warm run asks for none, so the hit also proves the
parallel path returns the full, non-empty report a serial run would.
A ``faults`` request on a model of its own must invalidate that model's
cached inference (the next ``infer`` on it is a cache miss with a bumped
``model_version``) and leave the default model's cached ``infer`` a hit.
The final ``stats.requests_by_kind`` must name every kind that was sent.

Exits non-zero (with a message on stderr) on any violation.
"""

import json
import math
import os
import re
import socket
import subprocess
import sys

sys.path.insert(0, "src")

from repro.serve import ServeClient, SimulationService  # noqa: E402

# Small enough to train in seconds on a CI runner, big enough to exercise
# the tiled IR-drop path (wire_resistance > 0), whose row-independent
# transfer-matrix reads the batcher relies on.
MODEL = {
    "n_samples": 120,
    "n_features": 16,
    "n_classes": 4,
    "hidden": [8],
    "epochs": 4,
    "wire_resistance": 1.0,
}
# The service-default model: ideal wires, read through a BLAS matmul.
MODEL_A = {}
# A model only the faults check reads, so its mutation touches no other
# check's cache entries.
MODEL_F = {**MODEL, "seed": 7}
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


class Client(ServeClient):
    """A :class:`ServeClient` that records every request kind it sent."""

    sent = set()

    def request(self, kind, params=None):
        self.sent.add(kind)
        return super().request(kind, params)


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


def send_burst(host, port, requests):
    """Send ``requests`` as JSON lines in ONE socket write, so they reach
    the server in one event-loop turn; return the responses in request
    order."""
    payload = b"".join(
        (json.dumps({"id": k, **r}) + "\n").encode()
        for k, r in enumerate(requests)
    )
    with socket.create_connection((host, port), timeout=600) as sock:
        sock.sendall(payload)
        fh = sock.makefile("rb")
        responses = [json.loads(fh.readline()) for _ in requests]
    return sorted(responses, key=lambda r: r["id"])


def burst_equals_solo(client, host, port):
    """Natural batching over a real socket: 8 one-row infers, 4 on model A
    (the service default, ideal wires) and 4 on the IR-drop MODEL, sent
    in one write, must coalesce (fewer flushes than requests) and answer
    each row with the logits of that row read alone."""
    n = MODEL["n_features"]
    models = [MODEL_A, MODEL] * 4
    # Fresh inputs, so no request is a results-cache hit.
    rows = [[0.05 * (k + 1) + 0.01 * j for j in range(n)] for k in range(8)]
    before = client.request("stats")["result"]["batcher"]
    responses = send_burst(
        host,
        port,
        [
            {"kind": "infer", "params": {"model": model, "x": [row]}}
            for model, row in zip(models, rows)
        ],
    )
    after = client.request("stats")["result"]["batcher"]
    # The solo reads run on the same deployments in this process (the
    # served and in-process logits of one row were checked equal above);
    # sent again over the socket they would be results-cache hits.
    local = SimulationService()
    for k, (model, row, resp) in enumerate(zip(models, rows, responses)):
        if not resp.get("ok") or resp["cache"] != "miss":
            fail(f"burst infer {k} failed or was not computed: {resp}")
        deployed = local.model_artifact(model)[0].deployed
        alone = deployed.forward_batch([row], noisy=False).tolist()
        if resp["result"]["logits"] != alone:
            fail(
                f"burst row {k} gave logits {resp['result']['logits']}, "
                f"alone {alone}"
            )
    requests = after["requests"] - before["requests"]
    flushes = after["flushes"] - before["flushes"]
    if requests != len(rows) or not flushes < requests:
        fail(
            f"a one-write burst of {len(rows)} infers must coalesce: "
            f"{requests} requests in {flushes} flushes"
        )
    print(
        f"serve_smoke: one-write burst of {requests} infers ran in {flushes} "
        "flushes, every row equal to the row alone"
    )


def faults_invalidate_their_model(client):
    """Tag invalidation over a real socket: ``faults`` on MODEL_F drops its
    cached infer (the repeat is a miss on version + 1), while the default
    model's cached infer stays a hit."""
    x = [[0.15] * MODEL["n_features"]]
    own = client.request("infer", {"model": MODEL_F, "x": x})
    default = client.request("infer", {"model": MODEL_A, "x": x})
    if not own.get("ok") or not default.get("ok"):
        fail(f"infer before faults failed: {own} {default}")
    faults = client.request(
        "faults", {"model": MODEL_F, "cell_yield": 0.8, "seed": 3}
    )
    if not faults.get("ok") or faults["result"]["invalidated_results"] < 1:
        fail(f"faults did not invalidate the model's cached infer: {faults}")
    after = client.request("infer", {"model": MODEL_F, "x": x})
    version = own["result"]["model_version"] + 1
    if (
        not after.get("ok")
        or after["cache"] != "miss"
        or after["result"]["model_version"] != version
    ):
        fail(f"infer after faults must be a miss on version {version}: {after}")
    still = client.request("infer", {"model": MODEL_A, "x": x})
    if not still.get("ok") or still["cache"] != "hit":
        fail(f"faults on another model evicted the default model's infer: {still}")
    if still["result"] != default["result"]:
        fail("the default model's cached infer changed after faults elsewhere")
    print(
        "serve_smoke: faults invalidated only its model's cached infer "
        f"(version {version}); the default model's infer is still a hit"
    )


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
        with Client(host, port, timeout=600) as client:
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

            n = MODEL["n_features"]
            rows = [
                [0.3] * n,
                [k / n for k in range(n)],
                [0.9 if k % 2 else 0.0 for k in range(n)],
            ]
            together = client.request("infer", {"model": MODEL, "x": rows})
            if not together.get("ok"):
                fail(f"three-row infer failed: {together.get('error')}")
            for k, row in enumerate(rows):
                alone = client.request("infer", {"model": MODEL, "x": [row]})
                if not alone.get("ok"):
                    fail(f"one-row infer failed: {alone.get('error')}")
                if alone["result"]["logits"][0] != together["result"]["logits"][k]:
                    fail(
                        f"row {k} alone gave logits {alone['result']['logits'][0]}"
                        f", inside a batch {together['result']['logits'][k]}"
                    )
            print("serve_smoke: batched IR-drop rows equal the rows alone")

            burst_equals_solo(client, host, port)
            faults_invalidate_their_model(client)

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

            bad = client.request(
                "infer", {"model": {"wire_resistance": -1.0}, "x": x}
            )
            code = (bad.get("error") or {}).get("code")
            if bad.get("ok") or code != "bad_request":
                fail(f"negative wire_resistance must be a bad_request, got {bad}")
            again = client.request(
                "infer", {"model": MODEL, "x": [[0.4] * MODEL["n_features"]]}
            )
            if not again.get("ok"):
                fail(f"infer after a bad model failed: {again.get('error')}")
            print("serve_smoke: unbuildable model is a bad_request, server serves on")

            bad = client.request("sweep", {"yields": [1.5]})
            code = (bad.get("error") or {}).get("code")
            if bad.get("ok") or code != "bad_request":
                fail(f"sweep at yield 1.5 must be a bad_request, got {bad}")
            print("serve_smoke: out-of-range yield is a bad_request")
            # The sweep below is then served as usual.
            cold = cold_then_warm(client, "sweep", SWEEP)
            print(f"serve_smoke: sweep ok ({len(cold['result']['rows'])} rows)")
            bad = client.request("train", {**TRAIN, "drift_nus": [math.nan]})
            code = (bad.get("error") or {}).get("code")
            if bad.get("ok") or code != "bad_request":
                fail(f"train with a NaN drift_nus must be a bad_request, got {bad}")
            print("serve_smoke: NaN train parameter is a bad_request")
            # The train job below is then served as usual.
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
            by_kind = stats["result"]["requests_by_kind"]
            if set(by_kind) != Client.sent:
                fail(
                    f"stats requests_by_kind {sorted(by_kind)} must name every "
                    f"kind sent: {sorted(Client.sent)}"
                )
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
