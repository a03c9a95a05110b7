"""Statistics, trace reduction and output checks for the serve benchmark.

Everything here works on plain data (latency lists, span tuples, decoded
responses), so the harness tests can exercise it without a server.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-th percentile of ``n`` samples."""
    return n - _rank(n, q)


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond it, so no reported percentile rests on a handful of samples.
    """
    n = len(values)
    if samples_beyond(n, q) < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(samples_beyond(n, q), 0)} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(values)[_rank(n, q) - 1]


def tail(values: Sequence[float], q_max: float, min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """``(q, value)`` for the highest percentile ``q <= q_max`` that has at
    least ``min_beyond`` samples beyond it."""
    for q in TAIL_CANDIDATES:
        if q <= q_max and samples_beyond(len(values), q) >= min_beyond:
            return q, percentile(values, q, min_beyond)
    raise ValueError(f"{len(values)} samples support no percentile with {min_beyond} beyond")


# --------------------------------------------------------------- self time
def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Tuple[int, int, float, float]]) -> Dict[int, float]:
    """``{span id: duration minus the union of its children's intervals}``.

    ``spans`` are ``(id, parent id, start, end)``.  Children may run on
    another thread than their parent (a job's compute runs in a worker
    thread while ``submit`` awaits it on the event loop) and may overlap
    one another, so covered time is the union of their intervals, never
    their sum.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _, start, end in spans
    }


def layer_profile(
    targets: Sequence[Tuple[str, str]],
    spans: Sequence[Sequence[Any]],
    request_ids: Iterable[Any],
    wait_q: float,
) -> Dict[str, Any]:
    """Reduce traced spans to per-layer counts and self times.

    ``targets`` is the ``(layer, target name)`` table of the traced
    server; ``spans`` its ``[id, parent, target, start, end, request id,
    thread, rows]`` records.  Only spans of ``request_ids`` count.
    """
    wanted = set(request_ids)
    own = self_times((s[0], s[1], s[3], s[4]) for s in spans)
    layers = list(dict.fromkeys(layer for layer, _ in targets))
    calls = dict.fromkeys(layers, 0)
    self_s = dict.fromkeys(layers, 0.0)
    target_calls: Dict[str, int] = defaultdict(int)
    serve_wait: Dict[Any, float] = defaultdict(float)
    rows = rows_calls = 0
    for sid, _, index, _, _, rid, _, n_rows in spans:
        if rid not in wanted:
            continue
        layer, name = targets[index]
        calls[layer] += 1
        self_s[layer] += own[sid]
        target_calls[name] += 1
        if layer == "serve":
            serve_wait[rid] += own[sid]
        if n_rows:
            rows += n_rows
            rows_calls += 1
    waits_ms = [1e3 * serve_wait.get(rid, 0.0) for rid in wanted]
    total = sum(self_s.values()) or 1.0
    wait_tail_q, wait_tail = tail(waits_ms, wait_q)
    return {
        "calls": calls,
        "self_ms_per_req": {k: 1e3 * v / len(wanted) for k, v in self_s.items()},
        "self_share": {k: v / total for k, v in self_s.items()},
        "target_calls": dict(target_calls),
        "wait_ms_p50": percentile(waits_ms, 50.0),
        "wait_ms_tail": wait_tail,
        "wait_tail_q": wait_tail_q,
        "rows_per_call": rows / rows_calls if rows_calls else 0.0,
    }


# ------------------------------------------------------------------ digest
def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def outputs_digest(responses: Iterable[Tuple[str, Optional[Dict[str, Any]]]]) -> str:
    """SHA-256 over the canonical JSON of each ``(kind, response)`` in
    request order: the ``result`` of every request plus the ``report`` of
    every non-``infer`` request.  Infer reports are left out because the
    batcher apportions a flush's counters by its composition."""
    h = hashlib.sha256()
    for kind, response in responses:
        if response is None or not response.get("ok"):
            item: Dict[str, Any] = {"error": (response or {}).get("error", {}).get("code", "timeout")}
        else:
            item = {"result": response["result"]}
            if kind != "infer":
                item["report"] = response["report"]
        h.update(canonical(item).encode())
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------------------------------------------ checks
def check_response(kind: str, response: Dict[str, Any], expect_cache: str) -> List[str]:
    """Problems with one successful response (empty when it is correct)."""
    from repro.utils.telemetry import RunReport

    problems = []
    if response.get("kind") != kind:
        problems.append(f"kind {response.get('kind')!r} != {kind!r}")
    if response.get("cache") != expect_cache:
        problems.append(f"{kind}: cache {response.get('cache')!r}, designed {expect_cache!r}")
    if kind == "infer":
        result = response["result"]
        logits, prediction = result["logits"], result["prediction"]
        argmax = [max(range(len(row)), key=row.__getitem__) for row in logits]
        if len(logits) != 1 or prediction != argmax:
            problems.append(f"infer: prediction {prediction} != argmax of logits {argmax}")
    try:
        RunReport.from_dict(response["report"]).validate()
    except (KeyError, ValueError) as exc:
        problems.append(f"{kind}: report does not validate: {exc}")
    return problems
