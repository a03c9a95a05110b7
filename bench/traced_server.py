"""Run ``cimflow serve`` with each layer's public entry points wrapped in spans.

    python bench/traced_server.py --spans FILE [serve options...]

The wrappers are installed from outside the program: each target is
replaced on its class or defining module, and every ``repro`` module that
imported the function by name is rebound as well (``pipeline/explore.py``
holds its own ``run_grid``, ``repro.pipeline`` re-exports
``explore_pipeline``).  Every ``repro`` module is imported first, so none
can bind an original after the rebinding.

Spans ``(id, parent id, target, start, end, request id, thread, rows)``
stay in memory and are written as JSON lines when the server stops on
SIGINT.  The parent and request id are context variables, so they follow
a request into ``asyncio.to_thread`` workers and batcher timer tasks.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: (layer, module, qualified name).  ``EnergyModel.charge_*`` expands to
#: every ``charge_*`` method defined by any energy-model class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("serve", "repro.serve.service", "SimulationService.submit"),
    ("serve", "repro.serve.batcher", "RequestBatcher.submit"),
    ("serve", "repro.serve.cache", "ResultsCache.get"),
    ("serve", "repro.serve.cache", "ResultsCache.put"),
    ("serve", "repro.serve.cache", "ArtifactCache.get_or_create"),
    ("apps", "repro.apps.nn", "CrossbarMLP.forward_batch"),
    ("apps", "repro.apps.nn", "accuracy_vs_yield"),
    ("core", "repro.core.accelerator", "CIMAccelerator.vmm_batch"),
    ("core", "repro.core.cim_core", "CIMCore.vmm_batch"),
    ("core", "repro.core.cim_core", "CIMCore.program_weights"),
    ("crossbar", "repro.crossbar.solver", "NodalCrossbarSolver.solve_batch"),
    ("crossbar", "repro.crossbar.array", "CrossbarArray.mvm_batch"),
    ("crossbar", "repro.crossbar.array", "CrossbarArray.write_cells"),
    ("crossbar", "repro.crossbar.array", "CrossbarArray.program"),
    ("periphery", "repro.periphery.adc", "ADC.quantize_array"),
    ("periphery", "repro.periphery.adc", "ADC.reconstruct"),
    ("costs", "repro.costs.models", "EnergyModel.charge_*"),
    ("pipeline", "repro.pipeline.allocate", "allocate"),
    ("pipeline", "repro.pipeline.schedule", "PipelineScheduler.run"),
    ("pipeline", "repro.pipeline.explore", "explore_pipeline"),
    ("pipeline", "repro.pipeline.explore", "pareto_analysis"),
    ("workloads", "repro.workloads.attention", "explore_attention"),
    ("workloads", "repro.workloads.training", "explore_training"),
    ("testing", "repro.testing.ecc_advisor", "advise_ecc"),
    ("testing", "repro.testing.ecc_advisor", "ecc_advisor_analysis"),
    ("faults", "repro.faults.endurance", "EnduranceSimulator.wear"),
    ("parallel", "repro.utils.parallel", "run_grid"),
    ("parallel", "repro.utils.parallel", "run_trials"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: The target whose spans carry the request id, and the one whose spans
#: record how many input rows they processed.
REQUEST_TARGET = "repro.serve.service:SimulationService.submit"
ROWS_TARGET = "repro.core.cim_core:CIMCore.vmm_batch"
#: Sweep-engine entry points.  The per-trial task they are handed is
#: wrapped too and counted in the task's own layer, so ``parallel`` self
#: time is dispatch only, not the trial work it runs (serve always runs
#: the engine serially, so the wrapped task is never pickled).
GRID_TARGETS = ("repro.utils.parallel:run_grid", "repro.utils.parallel:run_trials")


def layer_of(module: str) -> str:
    """Layer of a ``repro`` module: its subpackage, or ``parallel``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "parallel"


def _resolve(module: str, qualname: str) -> List[Tuple[str, Any, str]]:
    """``[(target name, owner, attribute)]`` for one TARGETS entry."""
    mod = importlib.import_module(module)
    owner_name, _, attr = qualname.rpartition(".")
    if attr != "charge_*":
        owner = getattr(mod, owner_name) if owner_name else mod
        return [(f"{module}:{qualname}", owner, attr)]
    found = []
    for cls in vars(mod).values():
        if inspect.isclass(cls) and cls.__module__ == module:
            for name, value in vars(cls).items():
                if name.startswith("charge_") and inspect.isfunction(value):
                    found.append((f"{module}:{cls.__name__}.{name}", cls, name))
    return found


class Tracer:
    """In-memory span recorder that wraps functions from outside."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.targets: List[Tuple[str, str]] = []     # (layer, target name)
        self.sites: Dict[str, int] = {}               # target -> bindings replaced
        self._task_index: Dict[str, int] = {}          # grid task -> target index
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_span_parent", default=0
        )
        self._rid: contextvars.ContextVar[Any] = contextvars.ContextVar(
            "bench_request_id", default=None
        )

    def _wrap_task(self, task: Callable) -> Callable:
        name = f"{task.__module__}:{task.__qualname__}"
        if layer_of(task.__module__) == "parallel":
            return task                  # the engine's own grid-job shim
        if name not in self._task_index:
            self._task_index[name] = len(self.targets)
            self.targets.append((layer_of(task.__module__), name))
        return self.wrap(self._task_index[name], task, name)

    def wrap(self, index: int, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so that each call appends one span."""
        spans, ids, parent_var, rid_var = self.spans, self._ids, self._parent, self._rid
        sets_rid = name == REQUEST_TARGET
        counts_rows = name == ROWS_TARGET
        wraps_task = name in GRID_TARGETS

        def enter(args):
            sid = next(ids)
            parent = parent_var.get()
            tokens = [parent_var.set(sid)]
            if sets_rid and isinstance(args[1], dict):
                tokens.append(rid_var.set(args[1].get("id")))
            return sid, parent, tokens

        def leave(sid, parent, tokens, start, args):
            end = perf_counter()
            rows = len(args[1]) if counts_rows else 0
            spans.append(
                (sid, parent, index, start, end, rid_var.get(),
                 threading.get_ident(), rows)
            )
            for token in reversed(tokens):
                token.var.reset(token)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, parent, tokens = enter(args)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(sid, parent, tokens, start, args)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wraps_task:
                args = (self._wrap_task(args[0]), *args[1:])
            sid, parent, tokens = enter(args)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid, parent, tokens, start, args)

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind every module-level alias of it.

        Raises ``RuntimeError`` if a target resolves to nothing.
        """
        sys.path.insert(0, str(ROOT / "src"))
        import repro

        # Import every module first so none can bind an original later.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        originals: Dict[int, Tuple[Callable, Callable, str]] = {}
        for layer, module, qualname in TARGETS:
            resolved = _resolve(module, qualname)
            if not resolved:
                raise RuntimeError(f"trace target {module}:{qualname} not found")
            for name, owner, attr in resolved:
                fn = vars(owner)[attr]
                wrapper = self.wrap(len(self.targets), fn, name)
                setattr(owner, attr, wrapper)
                self.targets.append((layer, name))
                self.sites[name] = 1
                originals[id(fn)] = (fn, wrapper, name)
        modules = [m for n, m in sys.modules.items() if n.startswith("repro")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and value is entry[0]:
                    setattr(mod, attr, entry[1])
                    self.sites[entry[2]] += 1

    def write(self, path: str) -> None:
        """Write the target table, then one JSON array per span."""
        threads: Dict[int, int] = {}
        with open(path, "w") as fh:
            fh.write(json.dumps({"targets": self.targets, "sites": self.sites}) + "\n")
            for sid, parent, index, start, end, rid, tid, rows in self.spans:
                thread = threads.setdefault(tid, len(threads))
                fh.write(json.dumps([sid, parent, index, start, end, rid, thread, rows]))
                fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSONL file written on exit")
    args, serve_args = parser.parse_known_args(argv)
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
