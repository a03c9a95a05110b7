"""Parallel Monte Carlo sweeps over fault and endurance populations.

The two statistical questions Section III keeps returning to — "what
fault rate does a given yield actually realize on an array?" and "after
how many writes does wear-out defeat the ECC?" — are answered here as
reusable trial sweeps on the engine in :mod:`repro.utils.parallel`:
deterministic per-trial streams, serial fallback, and bit-identical
results at any worker count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.faults.endurance import EnduranceModel, EnduranceSimulator
from repro.faults.injection import FaultInjector
from repro.utils.parallel import run_grid, run_trials
from repro.utils.rng import RNGLike
from repro.utils.validation import check_positive


def _yield_rate_trial(
    cell_yield: float,
    trial: int,
    rng: np.random.Generator,
    shape: Tuple[int, int],
) -> float:
    """Realized fault rate of one sampled population (module-level so the
    process backend can pickle it)."""
    rows, cols = shape
    array = CrossbarArray(CrossbarConfig(rows=rows, cols=cols), rng=rng)
    injector = FaultInjector(array, rng=rng)
    fault_map = injector.inject_for_yield(cell_yield)
    return fault_map.fault_rate


def yield_fault_rate_sweep(
    yields: Sequence[float] = (0.99, 0.95, 0.9, 0.8, 0.7, 0.6),
    shape: Tuple[int, int] = (64, 64),
    trials: int = 16,
    rng: RNGLike = 0,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Monte Carlo of the yield -> realized-fault-rate mapping.

    For each yield figure, ``trials`` independent stuck-at populations are
    sampled on fresh arrays (in parallel when ``workers >= 1``) and the
    realized rate statistics are reported: rows of ``{"yield",
    "mean_rate", "std_rate", "min_rate", "max_rate"}``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_point = run_grid(
        _yield_rate_trial,
        list(yields),
        trials=trials,
        seed=rng,
        workers=workers,
        task_args=(tuple(shape),),
    )
    rows: List[Dict[str, float]] = []
    for cell_yield, rates in zip(yields, per_point):
        arr = np.asarray(rates, dtype=float)
        rows.append(
            {
                "yield": float(cell_yield),
                "mean_rate": float(arr.mean()),
                "std_rate": float(arr.std()),
                "min_rate": float(arr.min()),
                "max_rate": float(arr.max()),
            }
        )
    return rows


def _endurance_trial(
    trial: int,
    rng: np.random.Generator,
    shape: Tuple[int, int],
    characteristic_life: float,
    weibull_shape: float,
    total_writes: float,
    step: float,
    data_bits: int,
    code: str,
) -> Dict[str, float]:
    """One endurance life: cycle a fresh array to ``total_writes`` and
    find where accumulated hard faults defeat the ECC code."""
    from repro.testing.ecc import EccAnalysis, make_code

    rows, cols = shape
    array = CrossbarArray(CrossbarConfig(rows=rows, cols=cols), rng=rng)
    array.program(
        np.full(
            (rows, cols),
            0.5 * (array.config.levels.g_min + array.config.levels.g_max),
        )
    )
    sim = EnduranceSimulator(
        array,
        EnduranceModel(
            characteristic_life=characteristic_life, shape=weibull_shape
        ),
        rng=rng,
    )
    series = sim.run_until(total_writes=total_writes, step=step)
    analysis = EccAnalysis(make_code(code, data_bits))
    exceeded = analysis.capability_exceeded_at(series)
    return {
        "exceeded_at": float(exceeded),
        "final_dead_fraction": series[-1]["dead_fraction"],
    }


def endurance_capability_sweep(
    trials: int = 8,
    shape: Tuple[int, int] = (32, 32),
    characteristic_life: float = 1e4,
    weibull_shape: float = 2.0,
    total_writes: float = 5e4,
    step: float = 2e3,
    data_bits: int = 64,
    code: str = "secded",
    rng: RNGLike = 0,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Monte Carlo of the "hard faults eventually exceed the ECC's
    correction capability" claim (Section III-C).

    Each trial cycles an independent array through Weibull wear-out and
    records the write count at which the expected faulty bits per
    codeword pass the capability of ``code`` (any
    :func:`repro.testing.ecc.make_code` name; historically hardwired to
    SEC-DED).  Returns the per-trial rows plus summary statistics over
    the trials that did exceed within the simulated horizon.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_positive("total_writes", total_writes)
    check_positive("step", step)
    per_trial = run_trials(
        _endurance_trial,
        trials,
        seed=rng,
        workers=workers,
        task_args=(
            tuple(shape),
            characteristic_life,
            weibull_shape,
            total_writes,
            step,
            data_bits,
            code,
        ),
    )
    exceeded = [
        row["exceeded_at"]
        for row in per_trial
        if math.isfinite(row["exceeded_at"])
    ]
    summary: Dict[str, object] = {
        "trials": per_trial,
        "exceeded_fraction": len(exceeded) / trials,
        "mean_exceeded_at": float(np.mean(exceeded)) if exceeded else math.inf,
        "min_exceeded_at": float(np.min(exceeded)) if exceeded else math.inf,
        "max_exceeded_at": float(np.max(exceeded)) if exceeded else math.inf,
    }
    return summary
