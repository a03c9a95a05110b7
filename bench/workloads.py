"""The four traffic mixes of the ``cimflow serve`` wall-clock benchmark.

Every request list is a pure function of ``(workload, seed, seconds)``:
the same arguments give byte-identical requests, so two runs do the same
work.  The server only ever sees the generated requests; the seed never
reaches it except through job ``seed`` fields drawn from it.

Open-loop streams carry a ``due`` offset (seconds after the window
opens) per request; closed-loop streams send each request when the
previous response arrives.  Closed-loop job lists are sized from
``seconds`` and the job rate measured when the benchmark was written, so
a run at that commit lasts about ``seconds``; a faster server finishes
the same list sooner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

N_FEATURES = 16                      # MODEL_DEFAULTS["n_features"] of the service

MODEL_A: Dict[str, Any] = {}         # service default: ideal wires
MODEL_B: Dict[str, Any] = {"wire_resistance": 1.0}
# Only model C is ever mutated (``faults``), so model A/B outputs stay a
# pure function of their inputs.
MODEL_C: Dict[str, Any] = {"seed": 1, "wire_resistance": 1.0}

INFER_OPEN_RATE = 150.0              # about 30 % of the queue_full onset
MIXED_INFER_RATE = 100.0
EXPLORE_KINDS = ("pipeline", "dse", "attention", "sweep", "ecc")
MIXED_KINDS = ("pipeline", "sweep", "attention")
FAULTS_CELL_YIELD = 0.98

# Closed-loop requests per second served on a 2-core x86 host when the
# benchmark was written; they only size the job lists.
EXPLORE_JOBS_PER_S = 4.0
TRAIN_JOBS_PER_S = 10.0
MIXED_JOBS_PER_S = 6.5

# Measured job seeds are drawn below this; warm-up seeds sit above it, so
# no measured job can hit a result cached during warm-up.
WARMUP_SEED = 2**31

WORKLOAD_NAMES = ("infer-open", "explore-closed", "train-closed", "mixed-shared")


@dataclass(frozen=True)
class Request:
    """One request as the benchmark sends it."""

    kind: str
    params: Dict[str, Any]
    due: Optional[float] = None      # open loop: seconds after window start
    expect_cache: str = "miss"       # "miss" | "hit" | "none"


@dataclass(frozen=True)
class Stream:
    """The requests one connection carries, in send order."""

    open_loop: bool
    requests: Tuple[Request, ...]


@dataclass(frozen=True)
class Workload:
    """A traffic mix: warm-up requests plus one stream per connection.

    ``gated`` names the request group whose latency is the workload's
    end-to-end latency (``"infer"`` or ``"job"``); its tail is the highest
    percentile up to ``tail_q`` with at least ten samples beyond it.
    """

    name: str
    warmup: Tuple[Request, ...]
    streams: Tuple[Stream, ...]
    gated: str
    tail_q: float


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _unique_seeds(rng: np.random.Generator, n: int) -> List[int]:
    base = int(rng.integers(0, WARMUP_SEED - n))
    return [base + i for i in range(n)]


def _infer(model: Dict[str, Any], x: np.ndarray, due: Optional[float] = None) -> Request:
    return Request("infer", {"model": dict(model), "x": [x.tolist()]}, due=due)


def _arrivals(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrivals over ``[0, seconds)``, conditioned on their count
    being ``rate * seconds`` (sorted uniform times)."""
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def _infer_stream(seed: int, rate: float, seconds: float, models) -> Stream:
    due = _arrivals(_rng(seed, 1), rate, seconds)
    # Inputs and model choice come from their own generators, so changing
    # the rate or the window never changes which inputs are sent.
    xs = _rng(seed, 2).normal(0.0, 2.0, size=(len(due), N_FEATURES))
    pick = _rng(seed, 3).integers(0, len(models), size=len(due))
    return Stream(
        open_loop=True,
        requests=tuple(
            _infer(models[k], x, due=float(t)) for t, x, k in zip(due, xs, pick)
        ),
    )


def _warm_infer(model: Dict[str, Any], k: int) -> Request:
    return _infer(model, np.full(N_FEATURES, 0.01 * (k + 1)))


def infer_open(seed: int, seconds: float) -> Workload:
    return Workload(
        name="infer-open",
        warmup=(_warm_infer(MODEL_A, 0), _warm_infer(MODEL_B, 1)),
        streams=(_infer_stream(seed, INFER_OPEN_RATE, seconds, (MODEL_A, MODEL_B)),),
        gated="infer",
        tail_q=99.0,
    )


def _job_list(kinds, seeds) -> Tuple[Request, ...]:
    return tuple(
        Request(kinds[i % len(kinds)], {"seed": s}) for i, s in enumerate(seeds)
    )


def _sized(rate: float, seconds: float, multiple: int) -> int:
    return max(multiple, multiple * int(round(rate * seconds / multiple)))


def explore_closed(seed: int, seconds: float) -> Workload:
    n = _sized(EXPLORE_JOBS_PER_S, seconds, len(EXPLORE_KINDS))
    return Workload(
        name="explore-closed",
        warmup=_job_list(EXPLORE_KINDS, [WARMUP_SEED] * len(EXPLORE_KINDS)),
        streams=(Stream(False, _job_list(EXPLORE_KINDS, _unique_seeds(_rng(seed, 4), n))),),
        gated="job",
        tail_q=99.0,
    )


def train_closed(seed: int, seconds: float) -> Workload:
    n = _sized(TRAIN_JOBS_PER_S, seconds, 1)
    return Workload(
        name="train-closed",
        warmup=_job_list(("train",), [WARMUP_SEED]),
        streams=(Stream(False, _job_list(("train",), _unique_seeds(_rng(seed, 5), n))),),
        gated="job",
        tail_q=99.0,
    )


def _mixed_jobs(seed: int, n: int) -> Tuple[Request, ...]:
    """Rotating pipeline/sweep/attention jobs.  Every 4th job repeats the
    job just before it, a results-cache hit.  Every 10th slot is an
    ``infer`` on model C followed by a ``faults`` request on model C,
    which must invalidate exactly that cached inference.

    Both cache checks pair requests that are adjacent on the connection:
    model-B inferences fill the 256-entry results cache at 100 per
    second, so an entry older than about two seconds may already have
    been evicted, and whether it was would depend on timing."""
    seeds = iter(_unique_seeds(_rng(seed, 6), n))
    xs = _rng(seed, 7).normal(0.0, 2.0, size=(n, N_FEATURES))
    out: List[Request] = []
    fresh = 0
    for i in range(n):
        if i % 10 == 9:
            out.append(_infer(MODEL_C, xs[i]))
            out.append(
                Request(
                    "faults",
                    {"model": dict(MODEL_C), "cell_yield": FAULTS_CELL_YIELD,
                     "seed": next(seeds)},
                    expect_cache="none",
                )
            )
        elif i % 4 == 3:
            out.append(Request(out[-1].kind, out[-1].params, expect_cache="hit"))
        else:
            out.append(Request(MIXED_KINDS[fresh % len(MIXED_KINDS)], {"seed": next(seeds)}))
            fresh += 1
    return tuple(out)


def mixed_shared(seed: int, seconds: float) -> Workload:
    n = _sized(MIXED_JOBS_PER_S, seconds, 10)
    return Workload(
        name="mixed-shared",
        warmup=(
            _warm_infer(MODEL_B, 0),
            # Noisy inference deploys model C without caching a result, so
            # the first faults request invalidates only its own pair's.
            Request("infer", {**_warm_infer(MODEL_C, 1).params, "noisy": True},
                    expect_cache="none"),
            *_job_list(MIXED_KINDS, [WARMUP_SEED] * len(MIXED_KINDS)),
        ),
        streams=(
            _infer_stream(seed, MIXED_INFER_RATE, seconds, (MODEL_B,)),
            Stream(False, _mixed_jobs(seed, n)),
        ),
        gated="infer",
        # p90-p99 of the contended inferences varied 14-21 % (IQR/median)
        # over ten seeds, p75 only 4 %: only p75 repeats well enough to gate.
        tail_q=75.0,
    )


BUILDERS = {
    "infer-open": infer_open,
    "explore-closed": explore_closed,
    "train-closed": train_closed,
    "mixed-shared": mixed_shared,
}


def build(name: str, seed: int, seconds: float) -> Workload:
    """The workload ``name`` generated from ``seed`` for a ``seconds`` window."""
    return BUILDERS[name](seed, seconds)


def group(request: Request, open_loop: bool) -> str:
    """Latency group of a request: ``"infer"`` (open-loop inference),
    ``"job"`` (closed-loop compute job) or ``"other"`` (the model-C
    ``faults``/``infer`` pairs of ``mixed-shared``)."""
    if open_loop:
        return "infer"
    return "other" if request.kind in ("faults", "infer") else "job"
