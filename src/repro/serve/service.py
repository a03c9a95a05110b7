"""Simulation-as-a-service: the in-process job service.

:class:`SimulationService` is the serving layer in front of the compute
backend (deployed crossbar models, the deterministic sweep engine, the
pipeline compiler/scheduler).  It is a plain ``asyncio`` object — tests
and embedders drive it directly; :mod:`repro.serve.server` wraps it in a
socket protocol.

Request lifecycle, one path for every kind in :data:`JOB_KINDS`::

    submit ──► admission control ── QueueFullError (bounded, structured)
      ├── prepare: defaults, types, energy model, the kind's own checks
      ├── model (infer, faults): artifact hit on the loop; a miss builds
      │     in a worker thread under the compute lock
      ├── results cache per the kind's rule ── hit ──► cached payload
      ├── run per the kind's rule: thread (sweep, dse, pipeline, ecc,
      │     attention, train; one at a time under the compute lock) |
      │     batcher (infer; coalesced forward_batch) | loop (faults, stats)
      └── finish: validate + merge the report, cache the payload

Every completed request carries a conservation-validated
:class:`~repro.utils.telemetry.RunReport`; reports of *computed* requests
merge into a server-lifetime report (cache hits did no work and are
counted separately).  ``faults`` mutates a deployed artifact in place,
so the service bumps the model's version and invalidates every cached
result tagged with that model's fingerprint — stale results or LU
factorizations are never served.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.serve.batcher import RequestBatcher
from repro.serve.cache import ArtifactCache, ResultsCache, config_fingerprint
from repro.utils import telemetry
from repro.utils.telemetry import RunReport

__all__ = [
    "ServeError",
    "BadRequestError",
    "QueueFullError",
    "ServiceConfig",
    "SimulationService",
    "REQUEST_KINDS",
    "JOB_KINDS",
    "JobKind",
]

class ServeError(RuntimeError):
    """Structured service error; ``code`` is machine-readable."""

    code = "error"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details = details

    def payload(self) -> Dict[str, Any]:
        """JSON-able error body for protocol responses."""
        return {"code": self.code, "message": str(self), **self.details}


class BadRequestError(ServeError):
    """Malformed or unknown request."""

    code = "bad_request"


class QueueFullError(ServeError):
    """Admission control rejected the request: too many in-flight jobs.

    This is the bounded-queue contract: the server sheds load with a
    structured error instead of buffering unboundedly.
    """

    code = "queue_full"


@dataclass
class ServiceConfig:
    """Serving-layer knobs."""

    max_inflight: int = 64          # admission-control bound
    max_batch: int = 16             # flush immediately at this many requests
    artifact_capacity: int = 32     # deployed models / graphs / allocations
    results_capacity: int = 256     # whole-response cache entries

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


#: Defaults for the deployable reference MLP; every field participates in
#: the model fingerprint, so two requests agree on a model artifact iff
#: their *normalized* configs are equal.
MODEL_DEFAULTS: Dict[str, Any] = {
    "n_features": 16,
    "n_classes": 6,
    "hidden": [12],
    "n_samples": 240,
    "separation": 1.5,
    "epochs": 30,
    "seed": 0,
    "tile_rows": 64,
    "tile_cols": 32,
    "adc_bits": 8,
    "wire_resistance": 0.0,
}

SWEEP_DEFAULTS: Dict[str, Any] = {
    "yields": [1.0, 0.9, 0.8],
    "trials": 2,
    "n_samples": 240,
    "n_features": 16,
    "n_classes": 6,
    "hidden": 12,
    "separation": 1.5,
    "epochs": 30,
    "seed": 0,
    "energy_model": "static",
}

DSE_DEFAULTS: Dict[str, Any] = {
    "tile_counts": [4, 8, 16],
    "duplication_modes": ["none", "auto"],
    "batch_sizes": [32],
    "adc_bits": [8],
    "workload": "cnn",
    "micro_batch": 8,
    "model_seed": 1234,
    "seed": 0,
    "objectives": ["accuracy", "energy", "area", "throughput"],
    "energy_model": "static",
}

PIPELINE_DEFAULTS: Dict[str, Any] = {
    "workload": "cnn",
    "tiles": 16,
    "duplication": "auto",
    "batch": 32,
    "micro_batch": 8,
    "model_seed": 1234,
    "seed": 0,
    "energy_model": "static",
}

ECC_DEFAULTS: Dict[str, Any] = {
    "codes": ["secded", "bch", "secdaec"],
    "yields": [0.9999, 0.999, 0.99, 0.97],
    "scenarios": [],                # [] -> all registered scenarios
    "data_bits": 32,
    "mc_words": 4096,
    "words_per_array": 1024,
    "trials": 2,
    "seed": 0,
    "energy_model": "static",
}

ATTENTION_DEFAULTS: Dict[str, Any] = {
    "seqs": [4, 8],
    "d_heads": [4, 8],
    "micro_batches": [4],
    "d_model": 16,
    "batch": 16,
    "n_tiles": 16,
    "model_seed": 2024,
    "trials": 1,
    "seed": 0,
    "energy_model": "static",
}

TRAIN_DEFAULTS: Dict[str, Any] = {
    "lives": [8.0, 12.0, 1e6],
    "drift_nus": [0.0, 0.01],
    "epochs": 5,
    "n_features": 16,
    "n_classes": 4,
    "write_sigma": 0.05,
    "trials": 1,
    "seed": 0,
    "energy_model": "static",
}

#: ``x`` is required (an empty list means missing); ``model`` (here and in
#: ``faults``) is normalized against :data:`MODEL_DEFAULTS` by ``prepare``.
INFER_DEFAULTS: Dict[str, Any] = {
    "x": [],
    "noisy": False,
    "model": {},
    "energy_model": "static",
}

FAULTS_DEFAULTS: Dict[str, Any] = {
    "cell_yield": 0.9,
    "seed": 0,
    "model": {},
}


def _energy_spec(value: Any):
    """Parse a request's energy-model choice; canonicalized through
    :meth:`EnergyModelSpec.to_dict` it becomes part of the result-cache
    fingerprint, so static and value-aware runs of the same config can
    never share a warm hit."""
    from repro.costs.models import EnergyModelSpec

    try:
        return EnergyModelSpec.parse(value)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"bad energy_model: {exc}") from None


def _type_name(value: Any) -> Optional[str]:
    """JSON-level type of a parameter value: ``"bool"``, ``"int"``,
    ``"float"``, ``"str"``, ``"list"``, ``"dict"``, or ``None`` for
    ``null`` (``bool`` is tested first: ``True`` is not a count)."""
    for name, kind in (
        ("bool", bool), ("int", int), ("float", float), ("str", str),
        ("list", list), ("dict", dict),
    ):
        if isinstance(value, kind):
            return name
    return None


def _type_matches(value: Any, default: Any) -> bool:
    """Whether ``value`` has its default's type (an int passes where the
    default is a float; list elements are held to the default's first
    element, and an empty default list accepts any elements)."""
    want, got = _type_name(default), _type_name(value)
    if want == "list":
        return got == "list" and (
            not default or all(_type_matches(v, default[0]) for v in value)
        )
    return got == want or (want == "float" and got == "int")


def _normalize(
    params: Dict[str, Any], defaults: Dict[str, Any], what: str
) -> Dict[str, Any]:
    """Fill defaults and reject unknown keys, so every equivalent request
    normalizes to the same fingerprint and typos never silently fork a
    cache entry.

    Each supplied value must have its default's type (see
    :func:`_type_matches`); a mismatch is a bad request naming the field,
    never a ``TypeError`` from deep inside the run.  Values are checked,
    not coerced, so fingerprints of valid requests are unchanged.
    Float values must also be finite.  ``energy_model`` is left to its
    own parser (:func:`_energy_spec`).
    """
    if params is not None and not isinstance(params, dict):
        raise BadRequestError(f"{what} parameters must be a JSON object")
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BadRequestError(
            f"unknown {what} parameter(s): {', '.join(unknown)}",
            unknown=unknown,
            allowed=sorted(defaults),
        )
    for name in sorted(params):
        if name == "energy_model":
            continue
        default, value = defaults[name], params[name]
        if not _type_matches(value, default):
            want = _type_name(default)
            if want == "list" and default:
                want = f"list of {_type_name(default[0])}"
            raise BadRequestError(
                f"{what} parameter {name!r} must be {want}, got {value!r}",
                field=name,
            )
        # JSON admits NaN and Infinity; no float parameter means either,
        # and a response carrying one would not be strict JSON.
        values = value if isinstance(default, list) else [value]
        item = default[0] if isinstance(default, list) and default else default
        if _type_name(item) == "float" and not all(map(math.isfinite, values)):
            raise BadRequestError(
                f"{what} parameter {name!r} must be finite, got {value!r}",
                field=name,
            )
    out = dict(defaults)
    out.update(params)
    return out


# ----------------------------------------------------------- request kinds
# Each run is only the library call and the result assembly for one
# prepared config (see :class:`JobKind` for the signatures).  A
# ``thread`` kind's :meth:`JobKind.execute` prices it (the energy model is
# active around the call) and maps its errors.  Library imports stay
# inside each run, so importing the service stays cheap.


def _scope_report(scope: telemetry.Telemetry, label: str = "run") -> RunReport:
    """The counters a telemetry scope captured, as a report."""
    return RunReport.from_counters(
        scope.snapshot(include_timers=False)["counters"], label=label
    )


def _run_sweep(cfg, workers, artifacts):
    from repro.apps.nn import accuracy_vs_yield

    with telemetry.scoped() as scope:
        rows = accuracy_vs_yield(
            yields=tuple(cfg["yields"]),
            n_samples=int(cfg["n_samples"]),
            n_features=int(cfg["n_features"]),
            n_classes=int(cfg["n_classes"]),
            hidden=int(cfg["hidden"]),
            separation=float(cfg["separation"]),
            trials=int(cfg["trials"]),
            rng=int(cfg["seed"]),
            epochs=int(cfg["epochs"]),
            workers=workers,
        )
    return {"rows": rows}, _scope_report(scope)


def _run_dse(cfg, workers, artifacts):
    from repro.costs.pareto import resolve_objectives
    from repro.pipeline import explore_pipeline, pareto_analysis

    objectives = [str(o) for o in cfg["objectives"]]
    try:
        resolve_objectives(objectives)
    except ValueError as exc:
        raise BadRequestError(
            f"dse parameter 'objectives': {exc}", field="objectives"
        ) from None
    with telemetry.scoped() as scope:
        rows = explore_pipeline(
            tile_counts=[int(t) for t in cfg["tile_counts"]],
            duplication_modes=[str(d) for d in cfg["duplication_modes"]],
            batch_sizes=[int(b) for b in cfg["batch_sizes"]],
            adc_bits=[int(a) for a in cfg["adc_bits"]],
            workload=str(cfg["workload"]),
            micro_batch=int(cfg["micro_batch"]),
            model_seed=int(cfg["model_seed"]),
            seed=int(cfg["seed"]),
            workers=workers,
        )
    pareto = pareto_analysis(rows, objectives)
    return {"rows": rows, "pareto": pareto}, _scope_report(scope)


def _run_pipeline(cfg, workers, artifacts):
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
    )
    from repro.pipeline.explore import reference_inputs, workload_graph

    workload = cfg["workload"]
    if workload not in ("mlp", "cnn"):
        raise BadRequestError(
            f"pipeline parameter 'workload' must be 'mlp' or 'cnn', got "
            f"{workload!r}",
            field="workload",
        )
    model_seed = int(cfg["model_seed"])
    graph, graph_hit = artifacts.get_or_create(
        ("graph", workload, model_seed),
        lambda: workload_graph(workload, model_seed),
    )
    alloc, alloc_hit = artifacts.get_or_create(
        (
            "alloc",
            workload,
            model_seed,
            int(cfg["tiles"]),
            str(cfg["duplication"]),
            int(cfg["seed"]),
        ),
        lambda: allocate(
            graph,
            TileInventory(n_tiles=int(cfg["tiles"])),
            duplication=str(cfg["duplication"]),
            rng=int(cfg["seed"]),
        ),
    )
    x = reference_inputs(graph, int(cfg["batch"]), model_seed)
    sched = PipelineScheduler(
        alloc, ScheduleParams(micro_batch=int(cfg["micro_batch"]))
    )
    run = sched.run(x, mode="pipelined", noisy=False)
    result = {
        "stage_table": run.stage_table(),
        "throughput": run.throughput,
        "utilization": run.utilization(),
        "makespan_s": run.makespan,
        "artifact_hits": {"graph": graph_hit, "alloc": alloc_hit},
    }
    return result, run.report("pipeline")


def _run_ecc(cfg, workers, artifacts):
    from repro.testing.ecc_advisor import advise_ecc, ecc_advisor_analysis

    with telemetry.scoped() as scope:
        rows = advise_ecc(
            codes=[str(c) for c in cfg["codes"]],
            yields=[float(y) for y in cfg["yields"]],
            scenarios=[str(s) for s in cfg["scenarios"]] or None,
            data_bits=int(cfg["data_bits"]),
            mc_words=int(cfg["mc_words"]),
            words_per_array=int(cfg["words_per_array"]),
            trials=int(cfg["trials"]),
            seed=int(cfg["seed"]),
            workers=workers,
        )
    advice = ecc_advisor_analysis(rows)
    return {"rows": rows, "advice": advice}, _scope_report(scope)


def _run_attention(cfg, workers, artifacts):
    from repro.workloads import explore_attention

    with telemetry.scoped() as scope:
        rows = explore_attention(
            seqs=[int(s) for s in cfg["seqs"]],
            d_heads=[int(d) for d in cfg["d_heads"]],
            micro_batches=[int(m) for m in cfg["micro_batches"]],
            d_model=int(cfg["d_model"]),
            batch=int(cfg["batch"]),
            n_tiles=int(cfg["n_tiles"]),
            model_seed=int(cfg["model_seed"]),
            trials=int(cfg["trials"]),
            seed=int(cfg["seed"]),
            workers=workers,
        )
    return {"rows": rows}, _scope_report(scope)


def _run_train(cfg, workers, artifacts):
    from repro.workloads import explore_training

    with telemetry.scoped() as scope:
        rows = explore_training(
            lives=[float(v) for v in cfg["lives"]],
            drift_nus=[float(v) for v in cfg["drift_nus"]],
            epochs=int(cfg["epochs"]),
            n_features=int(cfg["n_features"]),
            n_classes=int(cfg["n_classes"]),
            write_sigma=float(cfg["write_sigma"]),
            trials=int(cfg["trials"]),
            seed=int(cfg["seed"]),
            workers=workers,
        )
    return {"rows": rows}, _scope_report(scope)


def _check_infer(cfg: Dict[str, Any]) -> None:
    """``x`` is one input or a list of inputs as wide as the model, all
    finite (JSON admits NaN, and one non-finite row would poison a whole
    coalesced flush's report); kept as float rows, its cache-key form."""
    width = cfg["model"]["n_features"]
    if not cfg["x"]:
        raise BadRequestError("infer requires 'x' (one or more inputs)", field="x")
    try:
        x = np.atleast_2d(np.asarray(cfg["x"], dtype=float))
    except (TypeError, ValueError):
        x = np.empty((0, 0))
    if x.ndim != 2 or x.shape[1] != width:
        raise BadRequestError(
            f"infer parameter 'x' must be one input of {width} numbers "
            "or a list of them",
            field="x",
        )
    if not np.isfinite(x).all():
        raise BadRequestError("infer parameter 'x' must be finite numbers", field="x")
    cfg["x"] = x.tolist()


async def _run_infer(service, cfg, spec, model):
    deployed, noisy = model.deployed, cfg["noisy"]

    def forward(stacked: np.ndarray) -> Any:
        from repro.costs.models import use_model

        with use_model(spec):
            return deployed.forward_batch(stacked, noisy=noisy)

    # The spec is part of the coalescing key: a flush runs under ONE
    # model, so only same-priced requests may share a batch.
    out, counters = await service.batcher.submit(
        ("model", model.fingerprint, model.version, noisy, spec),
        np.asarray(cfg["x"], dtype=float),
        forward,
    )
    result = {
        "logits": out.tolist(),
        "prediction": [int(k) for k in np.argmax(out, axis=-1)],
        "model_fingerprint": model.fingerprint,
        "model_version": model.version,
    }
    return result, RunReport.from_counters(counters, label="infer")


def _check_faults(cfg: Dict[str, Any]) -> None:
    if not 0.0 < cfg["cell_yield"] <= 1.0:
        raise BadRequestError(
            f"cell_yield must be in (0, 1], got {float(cfg['cell_yield'])}",
            field="cell_yield",
        )


def _run_faults(service, cfg, spec, model):
    cell_yield = float(cfg["cell_yield"])
    with telemetry.scoped() as scope:
        rate = model.deployed.inject_yield_faults(
            cell_yield, rng=np.random.default_rng(cfg["seed"])
        )
    result = {
        "fault_rate": rate,
        "cell_yield": cell_yield,
        "model_fingerprint": model.fingerprint,
    }
    return result, _scope_report(scope, label="faults")


def _run_stats(service, cfg, spec, model):
    return service.stats(), service.lifetime_report


@dataclass(frozen=True)
class JobKind:
    """A request kind: its parameter defaults (the normalization and type
    table), its own ``check(cfg)``, its ``run`` and its serving policy.

    ``runs``: ``"thread"`` runs ``run(cfg, workers, artifacts) -> (result,
    RunReport)`` through :meth:`execute`, one job at a time in a worker
    thread under the compute lock (the CLI calls :meth:`prepare` and
    :meth:`execute` back to back); ``"batcher"`` awaits ``run(service,
    cfg, spec, model)``, a coalesced flush; ``"loop"`` calls it inline on
    the event loop (``faults`` must: flushes read the deployment on the
    loop, so a mutation in a thread would race them).  ``caches``:
    ``"always"``, ``"unless_noisy"`` (a noisy read draws fresh noise per
    flush) or ``"never"``.  ``invalidates_model``:
    the run mutates its model.  ``priced`` is false only for ``stats``,
    whose report is the lifetime report, not work to merge into it."""

    defaults: Dict[str, Any]
    run: Callable[..., Any]
    runs: str = "thread"
    caches: str = "always"
    check: Optional[Callable[[Dict[str, Any]], None]] = None
    invalidates_model: bool = False
    priced: bool = True

    def prepare(
        self, name: str, params: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[int], Any]:
        """Check request parameters: returns ``(cfg, workers, spec)``, the
        normalized config (the results-cache key material), the worker
        count and the parsed energy-model spec (``None`` without one), or
        raises :class:`BadRequestError` naming the bad field."""
        params = dict(params)
        workers = 0
        if self.runs == "thread":  # only compute jobs run the sweep engine
            # ``workers`` never changes results (every engine is bit-identical
            # at any worker count): not in the config; ``null`` means
            # ``$REPRO_WORKERS``.
            workers = params.pop("workers", 0)
            if workers is not None and _type_name(workers) != "int":
                raise BadRequestError(
                    f"{name} parameter 'workers' must be int or null, got "
                    f"{workers!r}",
                    field="workers",
                )
        cfg = _normalize(params, self.defaults, name)
        spec = None
        if "energy_model" in cfg:
            # The parsed spec is part of the config: static and
            # value-aware runs of the same parameters never share a hit.
            spec = _energy_spec(cfg["energy_model"])
            cfg["energy_model"] = spec.to_dict()
        if "model" in cfg:
            cfg["model"] = _normalize(cfg["model"], MODEL_DEFAULTS, "model")
        if self.check is not None:
            self.check(cfg)
        return cfg, workers, spec

    def execute(
        self,
        name: str,
        cfg: Dict[str, Any],
        workers: Optional[int],
        spec: Any,
        artifacts: ArtifactCache,
    ) -> Tuple[Any, RunReport]:
        """Run a prepared ``thread`` config priced under ``spec``; a
        ``ValueError`` from the job's own validation becomes a
        :class:`BadRequestError`, and the report is labelled with the
        kind."""
        from repro.costs.models import use_model

        try:
            with use_model(spec):
                result, report = self.run(cfg, workers, artifacts)
        except ValueError as exc:
            raise BadRequestError(f"bad {name} request: {exc}") from None
        report.label = name
        return result, report


#: Every request kind ``cimflow serve`` accepts, all served by the one
#: path of :meth:`SimulationService.submit`; the ``thread`` kinds back
#: the CLI's job commands.
JOB_KINDS: Dict[str, JobKind] = {
    "infer": JobKind(INFER_DEFAULTS, _run_infer, runs="batcher",
                     caches="unless_noisy", check=_check_infer),
    "sweep": JobKind(SWEEP_DEFAULTS, _run_sweep),
    "dse": JobKind(DSE_DEFAULTS, _run_dse),
    "pipeline": JobKind(PIPELINE_DEFAULTS, _run_pipeline),
    "faults": JobKind(FAULTS_DEFAULTS, _run_faults, runs="loop", caches="never",
                      check=_check_faults, invalidates_model=True),
    "ecc": JobKind(ECC_DEFAULTS, _run_ecc),
    "attention": JobKind(ATTENTION_DEFAULTS, _run_attention),
    "train": JobKind(TRAIN_DEFAULTS, _run_train),
    "stats": JobKind({}, _run_stats, runs="loop", caches="never", priced=False),
}
REQUEST_KINDS: Tuple[str, ...] = tuple(JOB_KINDS)


def _response(kind: str, cache: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "kind": kind, "cache": cache,
            "result": payload["result"], "report": payload["report"]}


@dataclass
class _DeployedModel:
    """A deployed-model artifact: the crossbar network, its fingerprint
    and a mutation version counter."""

    deployed: Any                   # CrossbarMLP
    fingerprint: str
    version: int = 0                # bumped on fault injection/reprogram


class SimulationService:
    """Async job service over the CIM simulation stack."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.artifacts = ArtifactCache(
            capacity=self.config.artifact_capacity, name="artifact_cache"
        )
        self.results = ResultsCache(capacity=self.config.results_capacity)
        self.batcher = RequestBatcher(max_batch=self.config.max_batch)
        self.lifetime_report = RunReport(label="server_lifetime")
        self.requests_total = 0
        self.requests_completed = 0
        self.requests_rejected = 0
        self.requests_by_kind: Dict[str, int] = {}
        self.results_hits = 0
        self.results_misses = 0
        self._inflight = 0
        self._compute_lock = asyncio.Lock()

    # ------------------------------------------------------------ admission
    @property
    def inflight(self) -> int:
        """Requests currently admitted and not yet completed."""
        return self._inflight

    def _admit(self, kind: str) -> None:
        self.requests_total += 1
        self.requests_by_kind[kind] = self.requests_by_kind.get(kind, 0) + 1
        if self._inflight >= self.config.max_inflight:
            self.requests_rejected += 1
            telemetry.current().incr("serve.rejected")
            raise QueueFullError(
                f"server is at its in-flight job limit "
                f"({self.config.max_inflight}); retry later",
                inflight=self._inflight,
                limit=self.config.max_inflight,
            )
        self._inflight += 1

    # ------------------------------------------------------------- dispatch
    async def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle one request dict ``{"kind": ..., "params": {...}}``.

        Returns a response dict ``{"ok": True, "kind", "cache",
        "result", "report"}``.  Raises :class:`ServeError` subclasses on
        rejection/malformed input (the socket server maps them onto
        structured error responses).
        """
        if not isinstance(request, dict):
            raise BadRequestError("request must be a JSON object")
        kind = request.get("kind")
        if kind not in REQUEST_KINDS:
            raise BadRequestError(
                f"unknown request kind {kind!r}", allowed=list(REQUEST_KINDS)
            )
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequestError("params must be a JSON object")
        self._admit(kind)
        try:
            response = await self._serve(kind, JOB_KINDS[kind], params)
        finally:
            self._inflight -= 1
        self.requests_completed += 1
        return response

    async def _serve(
        self, name: str, kind: JobKind, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The one request path: prepare, resolve the model, look up the
        results cache under the kind's cache rule, run under its run
        rule, finish."""
        cfg, workers, spec = kind.prepare(name, params)
        model = await self._model(cfg["model"]) if "model" in cfg else None
        store = kind.caches == "always" or (
            kind.caches == "unless_noisy" and not cfg["noisy"]
        )
        key = None
        if kind.caches != "never":
            # A model enters the key as its fingerprint (injective, and cheap
            # to hash on the hot path) and its mutation version.
            keyed = cfg if model is None else {
                **cfg, "model": [model.fingerprint, model.version]
            }
            key = ResultsCache.key(name, keyed)
            hit = self.results.get(key)
            if hit is None:
                self.results_misses += 1
            else:
                self.results_hits += 1
                if store:
                    return _response(name, "hit", hit)
        if kind.runs == "thread":
            async with self._compute_lock:
                result, report = await asyncio.to_thread(
                    kind.execute, name, cfg, workers, spec, self.artifacts
                )
        elif kind.runs == "batcher":
            result, report = await kind.run(self, cfg, spec, model)
        else:
            result, report = kind.run(self, cfg, spec, model)
        if kind.invalidates_model:
            # Anything derived from the deployment's previous state is
            # stale: bump the version (future infer keys diverge) and
            # sweep out every cached result tagged with it.
            model.version += 1
            result["model_version"] = model.version
            result["invalidated_results"] = self.results.invalidate_tag(
                model.fingerprint
            )
            telemetry.current().incr("serve.model_mutations")
        # Finish.  A cached payload answers from the cache's canonical copy,
        # so a later warm hit is bit-identical to this cold response.
        report.validate()
        if kind.priced:
            self.lifetime_report = self.lifetime_report.merge(report)
        payload = {"result": result, "report": report.to_dict()}
        if not store:
            return _response(name, "none", payload)
        tags = () if model is None else (model.fingerprint,)
        return _response(name, "miss", self.results.put(key, payload, tags=tags))

    # ------------------------------------------------------ model artifacts
    @staticmethod
    def _build_model(cfg: Dict[str, Any], fingerprint: str) -> _DeployedModel:
        """Train and deploy the reference MLP described by ``cfg`` (a pure
        function of the normalized config).  A model the library refuses
        to build (a negative wire resistance, an empty layer, too few
        samples) is a bad request naming the model, not an internal
        error."""
        from repro.apps.datasets import gaussian_blobs
        from repro.apps.nn import MLP, CrossbarMLP
        from repro.core.accelerator import AcceleratorParams

        try:
            gen = np.random.default_rng(int(cfg["seed"]))
            x, y = gaussian_blobs(
                n_samples=int(cfg["n_samples"]),
                n_features=int(cfg["n_features"]),
                n_classes=int(cfg["n_classes"]),
                separation=float(cfg["separation"]),
                rng=gen,
            )
            split = int(0.7 * int(cfg["n_samples"]))
            hidden = [int(h) for h in cfg["hidden"]]
            mlp = MLP(
                [int(cfg["n_features"]), *hidden, int(cfg["n_classes"])],
                rng=gen,
            )
            mlp.train(x[:split], y[:split], epochs=int(cfg["epochs"]), rng=gen)
            return _DeployedModel(CrossbarMLP(
                mlp,
                calibration=x[:split],
                accel_params=AcceleratorParams(
                    tile_rows=int(cfg["tile_rows"]),
                    tile_cols=int(cfg["tile_cols"]),
                    adc_bits=int(cfg["adc_bits"]),
                    wire_resistance=float(cfg["wire_resistance"]),
                ),
                rng=gen,
            ), fingerprint)
        except ValueError as exc:
            raise BadRequestError(
                f"bad model parameters: {exc}", field="model"
            ) from None

    def model_artifact(self, model_params: Dict[str, Any]) -> Tuple[_DeployedModel, bool]:
        """The deployed-model artifact for ``model_params`` (normalized),
        deployed in the calling thread on first use.  Returns
        ``(artifact, cache_hit)``."""
        cfg = _normalize(model_params, MODEL_DEFAULTS, "model")
        fp = config_fingerprint(cfg, prefix="model")
        return self.artifacts.get_or_create(
            ("model", fp), lambda: self._build_model(cfg, fp), tags=(fp,)
        )

    async def _model(self, cfg: Dict[str, Any]) -> _DeployedModel:
        """The served model for a normalized config.  A hit stays on the
        event loop, with no thread hop and no lock (the hot infer path);
        a miss is built like a job artifact, in a worker thread under the
        compute lock, so a cold build never stalls the loop."""
        fp = config_fingerprint(cfg, prefix="model")
        key = ("model", fp)
        args = (key, lambda: self._build_model(cfg, fp), (fp,))
        if key not in self.artifacts:
            async with self._compute_lock:
                # Checked again once the lock is held: the request this
                # one queued behind may have built the same model.
                if key not in self.artifacts:
                    built = await asyncio.to_thread(self.artifacts.get_or_create, *args)
                    return built[0]
        return self.artifacts.get_or_create(*args)[0]

    def invalidate_model(self, model_params: Dict[str, Any]) -> Dict[str, int]:
        """Drop a model's artifact and every cached result derived from
        it (the reprogram hook: call after mutating a deployment through
        a side channel)."""
        cfg = _normalize(model_params, MODEL_DEFAULTS, "model")
        fp = config_fingerprint(cfg, prefix="model")
        return {
            "artifacts": self.artifacts.invalidate_tag(fp),
            "results": self.results.invalidate_tag(fp),
        }

    # ------------------------------------------------------------ telemetry
    def stats(self) -> Dict[str, Any]:
        """Serving-layer statistics: admission, caches, batcher."""
        return {
            "requests_total": self.requests_total,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_by_kind": dict(sorted(self.requests_by_kind.items())),
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "results_cache": {
                **self.results.stats(),
                "request_hits": self.results_hits,
                "request_misses": self.results_misses,
            },
            "artifact_cache": self.artifacts.stats(),
            "batcher": self.batcher.stats.as_dict(),
        }
