"""ECC co-design advisor: which code, for which yield and workload?

Section III-C bounds ECC protection by BER (~1e-5) and endurance; the
advisor turns that into an actionable selection.  It sweeps every
registered code (:func:`repro.testing.ecc.make_code`) across crossbar
cell yields and workload scenarios (read-heavy, write-heavy, and
endurance-limited — the last one running a real
:class:`~repro.faults.endurance.EnduranceSimulator` wear-out population
per trial) on the deterministic sweep engine, prices the check-bit
area/energy/latency of each code through the active
:class:`~repro.costs.models.EnergyModel`, and feeds the rows into the
generic Pareto analytics (:mod:`repro.costs.pareto`) with a custom
objective table (``coverage`` replaces the pipeline DSE's ``accuracy``).

Output: area x energy x latency x coverage Pareto front, a global
knee-point compromise, a per-(scenario, yield) recommendation table, and
per-parameter sensitivities — bit-identical at any ``workers`` count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro.costs.models as energy_models
from repro.core.metrics import CostAccumulator
from repro.costs.pareto import knee_point, parameter_sensitivity, pareto_front
from repro.periphery.sense_amp import SenseAmpConfig
from repro.utils.parallel import run_grid
from repro.utils.rng import RNGLike

from repro.testing.ecc import EccCode, _mc_block, make_code

__all__ = [
    "ECC_OBJECTIVES",
    "ADVISOR_PARAMETERS",
    "WorkloadScenario",
    "SCENARIOS",
    "advise_ecc",
    "ecc_advisor_analysis",
]

#: Objective table for the advisor's Pareto analytics — the custom map
#: :func:`repro.costs.pareto.resolve_objectives` accepts (the pipeline's
#: hardcoded set lacks ``coverage``).
ECC_OBJECTIVES: Dict[str, Tuple[str, str]] = {
    "area": ("area_mm2", "min"),
    "energy": ("energy_per_word_J", "min"),
    "latency": ("latency_per_word_s", "min"),
    "coverage": ("coverage", "max"),
}

#: Sweep axes the sensitivity analysis attributes objective spread to.
ADVISOR_PARAMETERS: Tuple[str, ...] = ("code", "cell_yield", "scenario")

DEFAULT_CODES: Tuple[str, ...] = ("secded", "bch", "secdaec")
DEFAULT_YIELDS: Tuple[float, ...] = (0.9999, 0.999, 0.99, 0.97)


@dataclass(frozen=True)
class WorkloadScenario:
    """One access pattern the advisor evaluates codes under.

    ``reads_per_word`` / ``writes_per_word`` size the check-bit energy
    and latency bill over the word's service life.  A nonzero
    ``lifetime_writes`` makes the scenario endurance-limited: each trial
    cycles a fresh ``endurance_array`` x ``endurance_array`` crossbar
    through Weibull wear-out (:class:`EnduranceSimulator`) and folds the
    realized dead-cell fraction into the effective BER.
    """

    name: str
    reads_per_word: int
    writes_per_word: int
    lifetime_writes: float = 0.0
    endurance_life: float = 1e6
    endurance_shape: float = 2.0
    endurance_step: float = 5e4
    endurance_array: int = 16


#: The three workload corners of the co-design question.
SCENARIOS: Dict[str, WorkloadScenario] = {
    "read_heavy": WorkloadScenario(
        "read_heavy", reads_per_word=100_000, writes_per_word=100
    ),
    "write_heavy": WorkloadScenario(
        "write_heavy", reads_per_word=10_000, writes_per_word=100_000
    ),
    "endurance_limited": WorkloadScenario(
        "endurance_limited",
        reads_per_word=10_000,
        writes_per_word=50_000,
        lifetime_writes=1e5,
    ),
}

#: Sense-amp flavour used to price check-bit reads (the periphery default).
_SENSE = SenseAmpConfig()

# Code instances are deterministic per (name, data_bits) and immutable
# after construction, so worker processes build each one once.
_CODE_CACHE: Dict[Tuple[str, int], EccCode] = {}


def _cached_code(name: str, data_bits: int) -> EccCode:
    key = (name, data_bits)
    if key not in _CODE_CACHE:
        _CODE_CACHE[key] = make_code(name, data_bits)
    return _CODE_CACHE[key]


def _endurance_dead_fraction(
    scenario: WorkloadScenario, rng: np.random.Generator
) -> float:
    """Realized dead-cell fraction after the scenario's lifetime writes —
    one Weibull wear-out population on a small crossbar."""
    from repro.crossbar.array import CrossbarArray, CrossbarConfig
    from repro.faults.endurance import EnduranceModel, EnduranceSimulator

    side = scenario.endurance_array
    array = CrossbarArray(CrossbarConfig(rows=side, cols=side), rng=rng)
    array.program(
        np.full(
            (side, side),
            0.5 * (array.config.levels.g_min + array.config.levels.g_max),
        )
    )
    sim = EnduranceSimulator(
        array,
        EnduranceModel(
            characteristic_life=scenario.endurance_life,
            shape=scenario.endurance_shape,
        ),
        rng=rng,
    )
    series = sim.run_until(
        total_writes=scenario.lifetime_writes, step=scenario.endurance_step
    )
    return float(series[-1]["dead_fraction"])


def _advisor_trial(
    point: Tuple[str, float, str],
    trial: int,
    rng: np.random.Generator,
    data_bits: int,
    mc_words: int,
    words_per_array: int,
    scenarios: Dict[str, WorkloadScenario],
) -> Dict[str, float]:
    """One (code, yield, scenario) evaluation: effective BER (yield plus
    any endurance wear-out), Monte Carlo coverage over ``mc_words``
    words, and the check-bit cost bill through the active energy model.
    Module-level so the process backend can pickle it; rng consumption
    order (endurance first, then the MC block) is fixed, so results are
    bit-identical at any worker count."""
    code_name, cell_yield, scenario_name = point
    code = _cached_code(code_name, data_bits)
    scenario = scenarios[scenario_name]
    dead_fraction = 0.0
    if scenario.lifetime_writes > 0:
        dead_fraction = _endurance_dead_fraction(scenario, rng)
    # A cell is bad if it missed yield OR wore out (independent events).
    ber = 1.0 - cell_yield * (1.0 - dead_fraction)
    failed = _mc_block(mc_words, rng, code, ber)
    word_failure_rate = float(np.mean(failed))

    costs = CostAccumulator()
    model = energy_models.active_model()
    # Check-bit maintenance bill for one word over the scenario: every
    # write reprograms the check bits, every read senses them.
    model.charge_programming(
        costs,
        n_cells=code.check_bits,
        iterations=float(scenario.writes_per_word),
    )
    model.charge_sense(
        costs,
        _SENSE,
        n_senses=code.check_bits * scenario.reads_per_word,
        repeats=scenario.reads_per_word,
    )
    total = costs.total
    return {
        "code": code_name,
        "cell_yield": float(cell_yield),
        "scenario": scenario_name,
        "data_bits": int(data_bits),
        "check_bits": int(code.check_bits),
        "codeword_bits": int(code.codeword_bits),
        "overhead": float(code.overhead),
        "correctable_random": int(code.correctable_random),
        "ber": float(ber),
        "endurance_dead_fraction": dead_fraction,
        "word_failure_rate": word_failure_rate,
        "coverage": 1.0 - word_failure_rate,
        "analytic_word_failure": code.word_failure_probability(ber),
        "area_mm2": energy_models.CELL_AREA * code.check_bits * words_per_array,
        "energy_per_word_J": total.energy,
        "latency_per_word_s": total.latency,
    }


# Keys averaged over trials when aggregating; everything else is
# trial-invariant and taken from the first trial.
_MEAN_KEYS = (
    "ber",
    "endurance_dead_fraction",
    "word_failure_rate",
    "coverage",
    "analytic_word_failure",
)


def advise_ecc(
    codes: Sequence[str] = DEFAULT_CODES,
    yields: Sequence[float] = DEFAULT_YIELDS,
    scenarios: Optional[Sequence[str]] = None,
    *,
    data_bits: int = 32,
    mc_words: int = 4096,
    words_per_array: int = 1024,
    trials: int = 2,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Sweep code x cell-yield x workload scenario and return one
    aggregated row per grid point.

    Each point runs ``trials`` independent Monte Carlo evaluations of
    ``mc_words`` words (plus an endurance wear-out population for
    endurance-limited scenarios); statistical fields are averaged over
    trials in flat job order, so rows are bit-identical at any
    ``workers`` count.  The Monte Carlo block
    (:func:`repro.testing.ecc._mc_block`) draws only the words with more
    flips than the code corrects, so a point costs in proportion to its
    candidate failures.  ``word_failure_se`` is the standard error of
    ``word_failure_rate`` over all ``trials * mc_words`` words,
    ``sqrt(r (1 - r) / (trials * mc_words))``.  ``words_per_array``
    scales the check-bit area of one protected array.  Telemetry lands in
    the caller's scope, folded over jobs in flat job order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mc_words < 1:
        raise ValueError(f"mc_words must be >= 1, got {mc_words}")
    if words_per_array < 1:
        raise ValueError(
            f"words_per_array must be >= 1, got {words_per_array}"
        )
    scenario_names = list(scenarios) if scenarios else sorted(SCENARIOS)
    for name in scenario_names:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; expected one of "
                f"{sorted(SCENARIOS)}"
            )
    for name in codes:
        _cached_code(name, int(data_bits))  # validates the names up front
    for cell_yield in yields:
        if not 0.0 < float(cell_yield) <= 1.0:
            raise ValueError(
                f"cell_yield must be in (0, 1], got {cell_yield}"
            )
    points = [
        (code, float(cell_yield), scenario)
        for code in codes
        for cell_yield in yields
        for scenario in scenario_names
    ]
    per_point = run_grid(
        _advisor_trial,
        points,
        trials=trials,
        seed=seed,
        workers=workers,
        task_args=(
            int(data_bits),
            int(mc_words),
            int(words_per_array),
            dict(SCENARIOS),
        ),
    )
    rows: List[Dict[str, object]] = []
    for point_rows in per_point:
        row = dict(point_rows[0])
        for key in _MEAN_KEYS:
            row[key] = float(
                np.mean([trial_row[key] for trial_row in point_rows])
            )
        rate = row["word_failure_rate"]
        row["word_failure_se"] = math.sqrt(
            rate * (1.0 - rate) / (len(point_rows) * mc_words)
        )
        row["trials"] = len(point_rows)
        rows.append(row)
    return rows


def ecc_advisor_analysis(
    rows: Sequence[Mapping[str, object]],
    objective_names: Sequence[str] = ("area", "energy", "latency", "coverage"),
) -> Dict[str, object]:
    """Pareto analytics over advisor rows.

    Returns the global non-dominated ``front`` (rows gain a ``knee``
    flag), the global ``knee`` compromise, a ``recommendations`` table —
    the knee code for every (scenario, yield) cell, i.e. the advisor's
    actual answer to "which code here?" — and per-parameter
    ``sensitivity`` of each objective.
    """
    names = list(objective_names)
    rows = list(rows)
    front_idx = pareto_front(rows, names, objectives=ECC_OBJECTIVES)
    knee_idx = knee_point(
        rows, names, front=front_idx, objectives=ECC_OBJECTIVES
    )
    front = [dict(rows[i], knee=(i == knee_idx)) for i in front_idx]
    cells: List[Tuple[str, float]] = []
    for row in rows:
        cell = (str(row["scenario"]), float(row["cell_yield"]))
        if cell not in cells:
            cells.append(cell)
    recommendations = []
    for scenario, cell_yield in cells:
        subset = [
            row
            for row in rows
            if (str(row["scenario"]), float(row["cell_yield"]))
            == (scenario, cell_yield)
        ]
        best = knee_point(subset, names, objectives=ECC_OBJECTIVES)
        if best is None:
            continue
        pick = subset[best]
        recommendations.append(
            {
                "scenario": scenario,
                "cell_yield": cell_yield,
                "code": pick["code"],
                "coverage": pick["coverage"],
                "area_mm2": pick["area_mm2"],
                "energy_per_word_J": pick["energy_per_word_J"],
                "latency_per_word_s": pick["latency_per_word_s"],
            }
        )
    return {
        "objectives": names,
        "points": len(rows),
        "front": front,
        "knee": dict(rows[knee_idx]) if knee_idx is not None else None,
        "recommendations": recommendations,
        "sensitivity": parameter_sensitivity(
            rows, ADVISOR_PARAMETERS, names, objectives=ECC_OBJECTIVES
        ),
    }
