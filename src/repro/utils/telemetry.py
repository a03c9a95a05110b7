"""Cross-layer telemetry: counters, timers and structured run reports.

The paper's machine-level claims (Fig 1, Fig 5, Table I) are all
energy/latency *breakdowns*, so the credibility of the reproduction rests
on end-to-end accounting: every layer that consumes energy or time must
show up in one report, and the per-category shares must sum to the true
total.  This module is the one place that observability lives:

* :class:`Telemetry` — named counters and wall-clock timers.  The clock is
  injectable so tests and sweeps stay deterministic; a process-wide
  *current* instance is always available via :func:`current`, and
  :func:`scoped` pushes a fresh instance for the duration of a block.
  The parallel sweep engine runs every job in its own scope and folds
  the per-job counters, in flat job order, into the caller's scope, so a
  caller captures a whole sweep — bit-identically at any worker count —
  by wrapping it in :func:`scoped`.  :meth:`Telemetry.add_counters` is
  that one fold; :func:`nested` applies it on exit from a block, which is
  how the pipeline scheduler prices a pass and its steps and how Table I,
  the Fig-5 report, the ECC advisor and the in-situ trainer price a
  phase.
* The cost ledger — every ``EnergyModel.charge_*`` books its charge once,
  into the current telemetry scope, under ``cost.energy.<category>`` (and
  latency / data-movement twins).  There is no other ledger: any scoped
  job carries its full energy breakdown without the app layer doing
  anything, and a per-object or per-phase total is a read of the scope
  wrapped around that object's or phase's work
  (:meth:`RunReport.from_counters`).
* :class:`RunReport` — a JSON-serializable merge of cost breakdowns,
  side counters (crossbar read/write ops, driver activations, sense-amp
  comparisons, solver cache hits/misses) and a static area breakdown,
  with per-category energy/latency/data-movement fractions.  Reports
  merge element-wise (:meth:`RunReport.merge` / :meth:`RunReport.reduce`)
  with keys visited in sorted order, so a fold in a fixed order is
  deterministic.

Instrumentation is call-granular (one dict increment per batched
operation, never per element), keeping overhead on the hot batched VMM
path well under the 5% budget gated by
``benchmarks/test_bench_telemetry.py``.  :func:`disabled` swaps in a
:class:`NullTelemetry` for codepaths that want zero accounting (sweep
jobs and pipeline passes still record into their own scopes; only the
folded sum is dropped).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "ManualClock",
    "RunReport",
    "current",
    "scoped",
    "disabled",
    "nested",
    "reset",
    "COST_PREFIXES",
]

#: Counter-name prefixes under which energy-model charges are booked;
#: :meth:`RunReport.from_counters` folds them back into per-category cost
#: breakdowns.
COST_PREFIXES = ("cost.energy.", "cost.latency.", "cost.data_moved.")


class ManualClock:
    """Deterministic clock for tests: advances only when told to."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} s")
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class Telemetry:
    """Named counters and timers for one instrumentation scope."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.counters: Dict[str, float] = {}
        self.timers: Dict[str, float] = {}
        self.timer_counts: Dict[str, int] = {}

    # ------------------------------------------------------------- counters
    def incr(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def add_counters(self, counters: Dict[str, float]) -> None:
        """Add every counter of ``counters``, in sorted key order — the
        one fold of a nested scope into its parent, so folding the same
        scopes in the same order always gives bit-identical totals."""
        for name in sorted(counters):
            self.incr(name, counters[name])

    def count(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def charge(
        self, category: str, energy: float, latency: float, data_moved: float
    ) -> None:
        """Book one energy-model charge as counters (see
        :data:`COST_PREFIXES`)."""
        self.incr(f"cost.energy.{category}", energy)
        self.incr(f"cost.latency.{category}", latency)
        self.incr(f"cost.data_moved.{category}", data_moved)

    # --------------------------------------------------------------- timers
    def record_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under timer ``name``."""
        if seconds < 0:
            raise ValueError(f"cannot record negative duration {seconds}")
        self.timers[name] = self.timers.get(name, 0.0) + seconds
        self.timer_counts[name] = self.timer_counts.get(name, 0) + 1

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body on this instance's clock."""
        start = self.clock()
        try:
            yield
        finally:
            self.record_time(name, self.clock() - start)

    # ------------------------------------------------------------ lifecycle
    def snapshot(self, include_timers: bool = True) -> Dict[str, Dict]:
        """Sorted, JSON-ready copy of the current state.

        Counters are deterministic for a deterministic workload; wall-clock
        timers are not, so sweep reductions that must be bit-identical
        across worker counts pass ``include_timers=False``.
        """
        snap: Dict[str, Dict] = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)}
        }
        if include_timers:
            snap["timers"] = {k: self.timers[k] for k in sorted(self.timers)}
            snap["timer_counts"] = {
                k: self.timer_counts[k] for k in sorted(self.timer_counts)
            }
        return snap

    def reset(self) -> None:
        """Clear all counters and timers."""
        self.counters.clear()
        self.timers.clear()
        self.timer_counts.clear()


class NullTelemetry(Telemetry):
    """Telemetry sink that records nothing (the instrumentation
    kill-switch used by the overhead benchmark and perf-critical callers)."""

    def incr(self, name: str, value: float = 1.0) -> None:  # noqa: D102
        pass

    def charge(
        self, category: str, energy: float, latency: float, data_moved: float
    ) -> None:  # noqa: D102
        pass

    def record_time(self, name: str, seconds: float) -> None:  # noqa: D102
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:  # noqa: D102
        yield


# Scope stack, held in a ContextVar so concurrent asyncio tasks (the job
# server coalesces and interleaves request handlers) each see their own
# stack: a task that enters ``scoped()`` never captures counters recorded
# by a sibling task that interleaves with it at an await point.  Worker
# processes each get their own copy (module state is per-process), so
# scoped capture behaves identically under the parallel sweep engine's
# process backend and the serial fallback.  The base instance is shared
# process-wide, exactly like the old module-level stack bottom.
_BASE = Telemetry()
_STACK_VAR: ContextVar[Tuple[Telemetry, ...]] = ContextVar(
    "repro_telemetry_stack", default=()
)


def current() -> Telemetry:
    """The telemetry instance instrumented layers write to right now."""
    stack = _STACK_VAR.get()
    return stack[-1] if stack else _BASE


def reset() -> None:
    """Clear the current telemetry scope's state."""
    current().reset()


@contextmanager
def scoped(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Push a fresh (or supplied) :class:`Telemetry` for the duration.

    Everything the instrumented layers record inside the block lands on
    the scoped instance only — the mechanism behind per-job capture in
    :mod:`repro.utils.parallel` and per-request capture in
    :mod:`repro.serve`.  Scopes are context-local: two asyncio tasks each
    inside their own ``scoped()`` block cannot cross-contaminate, even
    when their awaits interleave.
    """
    scope = telemetry if telemetry is not None else Telemetry()
    token = _STACK_VAR.set(_STACK_VAR.get() + (scope,))
    try:
        yield scope
    finally:
        _STACK_VAR.reset(token)


@contextmanager
def nested() -> Iterator[Telemetry]:
    """A fresh :func:`scoped` scope whose counters fold into the enclosing
    scope when the block exits, also when it raises.

    The block's own charges can be read off the yielded scope, while the
    enclosing scope still sees every charge once.
    """
    caller = current()
    with scoped() as scope:
        try:
            yield scope
        finally:
            caller.add_counters(scope.counters)


@contextmanager
def disabled() -> Iterator[None]:
    """Turn instrumentation off for the duration of the block."""
    with scoped(NullTelemetry()):
        yield


def _merge_numeric(
    into: Dict[str, float], other: Dict[str, float]
) -> Dict[str, float]:
    for key in sorted(other):
        into[key] = into.get(key, 0.0) + other[key]
    return into


@dataclass
class RunReport:
    """One structured, serializable account of a run.

    ``categories`` maps a cost category to its ``{"energy", "latency",
    "data_moved"}`` totals; ``counters``/``timers`` carry the side
    counters; ``area`` is the static per-component area breakdown (mm^2)
    when the run has a hardware inventory attached.
    """

    label: str = "run"
    categories: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    area: Dict[str, float] = field(default_factory=dict)

    # -------------------------------------------------------------- totals
    def _total(self, key: str) -> float:
        return sum(c.get(key, 0.0) for c in self.categories.values())

    @property
    def total_energy(self) -> float:
        """Total energy across categories (J)."""
        return self._total("energy")

    @property
    def total_latency(self) -> float:
        """Total latency across categories (s)."""
        return self._total("latency")

    @property
    def total_data_moved(self) -> float:
        """Total data movement across categories (bytes)."""
        return self._total("data_moved")

    @property
    def total_area(self) -> float:
        """Total area across components (mm^2)."""
        return sum(self.area.values())

    # ----------------------------------------------------------- fractions
    def _fractions(self, key: str) -> Dict[str, float]:
        total = self._total(key)
        if total <= 0:
            return {name: 0.0 for name in sorted(self.categories)}
        return {
            name: self.categories[name].get(key, 0.0) / total
            for name in sorted(self.categories)
        }

    def energy_fractions(self) -> Dict[str, float]:
        """Per-category share of total energy (equals the power share for
        categories active over the same interval)."""
        return self._fractions("energy")

    def latency_fractions(self) -> Dict[str, float]:
        """Per-category share of total latency."""
        return self._fractions("latency")

    def movement_fractions(self) -> Dict[str, float]:
        """Per-category share of total data movement."""
        return self._fractions("data_moved")

    def area_fractions(self) -> Dict[str, float]:
        """Per-component share of total area."""
        total = self.total_area
        if total <= 0:
            return {name: 0.0 for name in sorted(self.area)}
        return {name: self.area[name] / total for name in sorted(self.area)}

    def validate(self) -> None:
        """Check the conservation invariant: every fraction in [0, 1] and
        each fraction family sums to 1 when its total is positive."""
        for name, fractions in (
            ("energy", self.energy_fractions()),
            ("latency", self.latency_fractions()),
            ("data_moved", self.movement_fractions()),
            ("area", self.area_fractions()),
        ):
            for category, value in fractions.items():
                if not 0.0 <= value <= 1.0 + 1e-12:
                    raise ValueError(
                        f"{name} fraction of {category!r} out of [0, 1]: {value}"
                    )
            total = sum(fractions.values())
            if fractions and total > 0 and abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"{name} fractions sum to {total}, expected 1"
                )

    # ------------------------------------------------------------- merging
    def merge(self, other: "RunReport") -> "RunReport":
        """Associative element-wise sum of two reports (label kept from
        ``self``); keys are visited in sorted order so folds are
        deterministic."""
        merged = RunReport(
            label=self.label,
            categories={k: dict(v) for k, v in self.categories.items()},
            counters=dict(self.counters),
            timers=dict(self.timers),
            area=dict(self.area),
        )
        for name in sorted(other.categories):
            into = merged.categories.setdefault(
                name, {"energy": 0.0, "latency": 0.0, "data_moved": 0.0}
            )
            _merge_numeric(into, other.categories[name])
        _merge_numeric(merged.counters, other.counters)
        _merge_numeric(merged.timers, other.timers)
        _merge_numeric(merged.area, other.area)
        return merged

    @classmethod
    def reduce(
        cls, reports: Sequence["RunReport"], label: str = "reduced"
    ) -> "RunReport":
        """Fold ``reports`` left-to-right into one report.

        The fold order is part of the contract: reports folded in the
        same order always reduce to bit-identical totals.
        """
        out = cls(label=label)
        for report in reports:
            out = out.merge(report)
        out.label = label
        return out

    # ------------------------------------------------------- constructors
    @classmethod
    def from_counters(
        cls,
        counters: Dict[str, float],
        label: str = "run",
        timers: Optional[Dict[str, float]] = None,
        area: Optional[Dict[str, float]] = None,
    ) -> "RunReport":
        """Build a report from a raw counter mapping, folding booked
        ``cost.*`` counters (see :data:`COST_PREFIXES`) back into the
        per-category breakdown."""
        categories: Dict[str, Dict[str, float]] = {}
        plain: Dict[str, float] = {}
        for name in sorted(counters):
            value = counters[name]
            for prefix, key in zip(
                COST_PREFIXES, ("energy", "latency", "data_moved")
            ):
                if name.startswith(prefix):
                    category = name[len(prefix):]
                    entry = categories.setdefault(
                        category,
                        {"energy": 0.0, "latency": 0.0, "data_moved": 0.0},
                    )
                    entry[key] += value
                    break
            else:
                plain[name] = value
        return cls(
            label=label,
            categories=categories,
            counters=plain,
            timers=dict(timers or {}),
            area=dict(area or {}),
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        """JSON-ready dict: base fields plus derived totals/fractions."""
        return {
            "label": self.label,
            "categories": {
                name: {k: self.categories[name][k] for k in sorted(self.categories[name])}
                for name in sorted(self.categories)
            },
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "timers": {k: self.timers[k] for k in sorted(self.timers)},
            "area": {k: self.area[k] for k in sorted(self.area)},
            "totals": {
                "energy": self.total_energy,
                "latency": self.total_latency,
                "data_moved": self.total_data_moved,
                "area": self.total_area,
            },
            "fractions": {
                "energy": self.energy_fractions(),
                "latency": self.latency_fractions(),
                "data_moved": self.movement_fractions(),
                "area": self.area_fractions(),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize (with derived totals/fractions) to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunReport":
        """Inverse of :meth:`to_dict` (derived fields are recomputed, not
        trusted)."""
        return cls(
            label=data.get("label", "run"),
            categories={
                name: dict(entry)
                for name, entry in data.get("categories", {}).items()
            },
            counters=dict(data.get("counters", {})),
            timers=dict(data.get("timers", {})),
            area=dict(data.get("area", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Round-trip partner of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------- display
    def category_table(self) -> List[Dict[str, float]]:
        """Row-per-category summary suitable for printing."""
        ef = self.energy_fractions()
        lf = self.latency_fractions()
        mf = self.movement_fractions()
        return [
            {
                "category": name,
                "energy_J": self.categories[name].get("energy", 0.0),
                "energy_share": ef[name],
                "latency_s": self.categories[name].get("latency", 0.0),
                "latency_share": lf[name],
                "data_moved_B": self.categories[name].get("data_moved", 0.0),
                "movement_share": mf[name],
            }
            for name in sorted(self.categories)
        ]
