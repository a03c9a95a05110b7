"""Simulation-as-a-service: the in-process job service.

:class:`SimulationService` is the serving layer in front of the compute
backend (deployed crossbar models, the deterministic sweep engine, the
pipeline compiler/scheduler).  It is a plain ``asyncio`` object — tests
and embedders drive it directly; :mod:`repro.serve.server` wraps it in a
socket protocol.

Request lifecycle::

    submit(request) ──► admission control (bounded in-flight jobs)
        │                   └── QueueFullError (structured, never an
        │                       unbounded queue)
        ├── results cache?  (task kind, config fingerprint) ── hit ──►
        │       bit-identical cached payload, no compute
        ├── infer ──► artifact cache (deployed model, carries its tiles'
        │             LU caches) ──► request batcher (coalesced
        │             forward_batch, per-request demux)
        └── JOB_KINDS (sweep, dse, pipeline, ecc, attention, train)
                      ──► serialized compute (one heavy job at a time,
                      off the event loop thread)

Every completed request carries a conservation-validated
:class:`~repro.utils.telemetry.RunReport`; reports of *computed* requests
merge into a server-lifetime report (cache hits did no work and are
counted separately).  Fault-injection/reprogramming requests mutate a
deployed artifact in place and invalidate every cached result tagged
with that model's fingerprint — stale results or LU factorizations are
never served.
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

#: Request kinds the service accepts.
REQUEST_KINDS = (
    "infer", "sweep", "dse", "pipeline", "faults", "ecc",
    "attention", "train", "stats",
)


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

#: ``x`` is required (an empty list means missing); ``model`` is checked
#: against :data:`MODEL_DEFAULTS` by :meth:`SimulationService.model_artifact`.
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


# --------------------------------------------------------------- job kinds
# Each ``run(cfg, workers, artifacts)`` is only the library call and the
# result assembly for one normalized config; :meth:`JobKind.execute`
# prices it (the energy model is active around the call) and maps its
# errors.  Library imports stay inside each run, so importing the service
# stays cheap.


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


@dataclass(frozen=True)
class JobKind:
    """A compute job kind: its parameter defaults (the normalization and
    type table) and its ``run(cfg, workers, artifacts) -> (result,
    RunReport)``.  ``workers`` is the sweep-engine worker count (never
    part of the result); ``artifacts`` is an artifact cache.

    :meth:`prepare` and :meth:`execute` are the one path from request
    parameters to a labelled report: the server puts its results cache
    and compute lock between them, the CLI calls them back to back."""

    defaults: Dict[str, Any]
    run: Callable[
        [Dict[str, Any], Optional[int], Optional[ArtifactCache]],
        Tuple[Any, RunReport],
    ]

    def prepare(
        self, name: str, params: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[int], Any]:
        """Check request parameters: returns ``(cfg, workers, spec)``, the
        normalized config (the results-cache key material), the worker
        count and the parsed energy-model spec, or raises
        :class:`BadRequestError` naming the bad field."""
        params = dict(params)
        # ``workers`` never changes results (every engine is bit-identical
        # at any worker count), so it stays out of the config; ``null``
        # means ``$REPRO_WORKERS``.
        workers = params.pop("workers", 0)
        if workers is not None and _type_name(workers) != "int":
            raise BadRequestError(
                f"{name} parameter 'workers' must be int or null, got "
                f"{workers!r}",
                field="workers",
            )
        cfg = _normalize(params, self.defaults, name)
        # The parsed spec is part of the config: static and value-aware
        # runs of the same parameters never share a warm hit.
        spec = _energy_spec(cfg["energy_model"])
        cfg["energy_model"] = spec.to_dict()
        return cfg, workers, spec

    def execute(
        self,
        name: str,
        cfg: Dict[str, Any],
        workers: Optional[int],
        spec: Any,
        artifacts: ArtifactCache,
    ) -> Tuple[Any, RunReport]:
        """Run a prepared config priced under ``spec``; a ``ValueError``
        from the job's own validation becomes a :class:`BadRequestError`,
        and the report is labelled with the kind."""
        from repro.costs.models import use_model

        try:
            with use_model(spec):
                result, report = self.run(cfg, workers, artifacts)
        except ValueError as exc:
            raise BadRequestError(f"bad {name} request: {exc}") from None
        report.label = name
        return result, report


#: The compute job kinds behind ``cimflow serve`` and the matching CLI
#: commands, all served by :meth:`SimulationService._handle_job`.
JOB_KINDS: Dict[str, JobKind] = {
    "sweep": JobKind(SWEEP_DEFAULTS, _run_sweep),
    "dse": JobKind(DSE_DEFAULTS, _run_dse),
    "pipeline": JobKind(PIPELINE_DEFAULTS, _run_pipeline),
    "ecc": JobKind(ECC_DEFAULTS, _run_ecc),
    "attention": JobKind(ATTENTION_DEFAULTS, _run_attention),
    "train": JobKind(TRAIN_DEFAULTS, _run_train),
}


@dataclass
class _DeployedModel:
    """A deployed-model artifact: the crossbar network plus the data it
    was calibrated on and a mutation version counter."""

    deployed: Any                   # CrossbarMLP
    x_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
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
            if kind in JOB_KINDS:
                response = await self._handle_job(kind, params)
            else:
                response = await getattr(self, f"_handle_{kind}")(params)
        finally:
            self._inflight -= 1
        self.requests_completed += 1
        return response

    # ------------------------------------------------------- result caching
    def _cached(self, kind: str, cfg: Dict[str, Any]) -> Tuple[Any, Optional[Dict]]:
        key = ResultsCache.key(kind, cfg)
        hit = self.results.get(key)
        if hit is not None:
            self.results_hits += 1
        else:
            self.results_misses += 1
        return key, hit

    def _finish(
        self,
        kind: str,
        key: Any,
        result: Any,
        report: RunReport,
        tags: Tuple[str, ...] = (),
        cache: bool = True,
    ) -> Dict[str, Any]:
        """Validate + merge the report, cache the payload, and build the
        response from the cache's canonical copy (so a later warm hit is
        bit-identical to this cold response)."""
        report.validate()
        self.lifetime_report = self.lifetime_report.merge(report)
        payload = {"result": result, "report": report.to_dict()}
        if cache:
            payload = self.results.put(key, payload, tags=tags)
        return self._response(kind, "miss" if cache else "none", payload)

    @staticmethod
    def _response(
        kind: str, cache: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        return {
            "ok": True,
            "kind": kind,
            "cache": cache,
            "result": payload["result"],
            "report": payload["report"],
        }

    # ------------------------------------------------------ model artifacts
    @staticmethod
    def _build_model(cfg: Dict[str, Any], fingerprint: str) -> _DeployedModel:
        """Train and deploy the reference MLP described by ``cfg`` (a pure
        function of the normalized config)."""
        from repro.apps.datasets import gaussian_blobs
        from repro.apps.nn import MLP, CrossbarMLP
        from repro.core.accelerator import AcceleratorParams

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
            [int(cfg["n_features"]), *hidden, int(cfg["n_classes"])], rng=gen
        )
        mlp.train(x[:split], y[:split], epochs=int(cfg["epochs"]), rng=gen)
        deployed = CrossbarMLP(
            mlp,
            calibration=x[:split],
            accel_params=AcceleratorParams(
                tile_rows=int(cfg["tile_rows"]),
                tile_cols=int(cfg["tile_cols"]),
                adc_bits=int(cfg["adc_bits"]),
                wire_resistance=float(cfg["wire_resistance"]),
            ),
            rng=gen,
        )
        return _DeployedModel(
            deployed=deployed,
            x_train=x[:split],
            x_test=x[split:],
            y_test=y[split:],
            fingerprint=fingerprint,
        )

    def model_artifact(self, model_params: Dict[str, Any]) -> Tuple[_DeployedModel, bool]:
        """The deployed-model artifact for ``model_params`` (normalized),
        deploying on first use.  Returns ``(artifact, cache_hit)``.

        A model the library refuses to build (a negative wire resistance,
        an empty layer, too few samples) is a bad request naming the
        model, not an internal error."""
        cfg = _normalize(model_params, MODEL_DEFAULTS, "model")
        fp = config_fingerprint(cfg, prefix="model")

        def build() -> _DeployedModel:
            try:
                return self._build_model(cfg, fp)
            except ValueError as exc:
                raise BadRequestError(
                    f"bad model parameters: {exc}", field="model"
                ) from None

        return self.artifacts.get_or_create(("model", fp), build, tags=(fp,))

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

    # ------------------------------------------------------ kind:<job kind>
    async def _handle_job(
        self, name: str, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Serve one :data:`JOB_KINDS` request: prepare it, look up the
        results cache, then execute it off the event loop, one at a
        time."""
        kind = JOB_KINDS[name]
        cfg, workers, spec = kind.prepare(name, params)
        key, hit = self._cached(name, cfg)
        if hit is not None:
            return self._response(name, "hit", hit)
        async with self._compute_lock:
            result, report = await asyncio.to_thread(
                kind.execute, name, cfg, workers, spec, self.artifacts
            )
        return self._finish(name, key, result, report)

    # ----------------------------------------------------------- kind:infer
    async def _handle_infer(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cfg = _normalize(params, INFER_DEFAULTS, "infer")
        if not cfg["x"]:
            raise BadRequestError(
                "infer requires 'x' (one or more inputs)", field="x"
            )
        noisy = cfg["noisy"]
        spec = _energy_spec(cfg["energy_model"])
        artifact, _ = self.model_artifact(cfg["model"])
        width = artifact.x_train.shape[1]
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
        # JSON admits NaN; one non-finite row would poison the whole
        # coalesced flush's report, so it never reaches the batcher.
        if not np.isfinite(x).all():
            raise BadRequestError(
                "infer parameter 'x' must be finite numbers", field="x"
            )
        fp = artifact.fingerprint
        # Key on the model *fingerprint* (injective for normalized
        # configs) rather than re-embedding the whole config — request
        # keying is per-request fixed cost on the hot inference path.
        request_cfg = {
            "model_fp": fp,
            "x": x.tolist(),
            "noisy": noisy,
            "model_version": artifact.version,
            "energy_model": spec.to_dict(),
        }
        key, hit = self._cached("infer", request_cfg)
        if hit is not None and not noisy:
            return self._response("infer", "hit", hit)

        deployed = artifact.deployed

        def _forward(stacked: np.ndarray) -> Any:
            from repro.costs.models import use_model

            with use_model(spec):
                return deployed.forward_batch(stacked, noisy=noisy)

        # The spec is part of the coalescing key: a flush runs under ONE
        # model, so only same-priced requests may share a batch.
        out, counters = await self.batcher.submit(
            ("model", fp, artifact.version, noisy, spec),
            x,
            _forward,
        )
        report = RunReport.from_counters(counters, label="infer")
        result = {
            "logits": out.tolist(),
            "prediction": [int(k) for k in np.argmax(out, axis=-1)],
            "model_fingerprint": fp,
            "model_version": artifact.version,
        }
        # Noisy inference draws fresh read noise per flush, so only the
        # deterministic path is cached (and later served bit-identically).
        return self._finish(
            "infer", key, result, report, tags=(fp,), cache=not noisy
        )

    # ---------------------------------------------------------- kind:faults
    async def _handle_faults(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cfg = _normalize(params, FAULTS_DEFAULTS, "faults")
        cell_yield = float(cfg["cell_yield"])
        if not 0.0 < cell_yield <= 1.0:
            raise BadRequestError(
                f"cell_yield must be in (0, 1], got {cell_yield}",
                field="cell_yield",
            )
        artifact, _ = self.model_artifact(cfg["model"])
        fp = artifact.fingerprint
        with telemetry.scoped() as scope:
            rate = artifact.deployed.inject_yield_faults(
                cell_yield, rng=np.random.default_rng(cfg["seed"])
            )
        # The deployment mutated in place: anything derived from its
        # previous state is stale.  Bump the version (future infer keys
        # diverge) and sweep out every cached result tagged with it.
        artifact.version += 1
        invalidated = self.results.invalidate_tag(fp)
        telemetry.current().incr("serve.model_mutations")
        report = _scope_report(scope, label="faults")
        result = {
            "fault_rate": rate,
            "cell_yield": cell_yield,
            "model_fingerprint": fp,
            "model_version": artifact.version,
            "invalidated_results": invalidated,
        }
        # Mutations are never cached.
        return self._finish("faults", None, result, report, cache=False)

    # ----------------------------------------------------------- kind:stats
    async def _handle_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if params:
            raise BadRequestError("stats takes no parameters")
        report = self.lifetime_report
        report.validate()
        payload = {"result": self.stats(), "report": report.to_dict()}
        return self._response("stats", "none", payload)

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
