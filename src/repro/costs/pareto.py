"""Multi-objective analytics: Pareto filtering, knee points, sensitivity.

The DSE upgrade's math lives here, separate from the pipeline machinery,
because it is generic: rows are plain dicts, objectives are named
``(key, direction)`` pairs, and every function is deterministic — input
row order decides ties — so fronts computed by a parallel sweep are
bit-identical to serial ones.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OBJECTIVES",
    "resolve_objectives",
    "pareto_front",
    "knee_point",
    "parameter_sensitivity",
]

#: Named objectives the pipeline DSE understands: row key + direction.
#: Other subsystems (e.g. the ECC advisor's ``coverage`` objective) pass
#: their own table via the ``objectives=`` keyword instead of growing
#: this one.
OBJECTIVES: Dict[str, Tuple[str, str]] = {
    "accuracy": ("accuracy", "max"),
    "energy": ("energy_per_sample", "min"),
    "area": ("area_mm2", "min"),
    "throughput": ("throughput", "max"),
}


def resolve_objectives(
    names: Sequence[str],
    objectives: Optional[Mapping[str, Tuple[str, str]]] = None,
) -> List[Tuple[str, str, str]]:
    """Map objective names to ``(name, row_key, direction)`` triples.

    ``objectives`` is the name -> ``(row_key, direction)`` table to
    resolve against; ``None`` means the pipeline-DSE default
    :data:`OBJECTIVES`.
    """
    table = OBJECTIVES if objectives is None else objectives
    if not names:
        raise ValueError("at least one objective is required")
    out = []
    for name in names:
        if name not in table:
            raise ValueError(
                f"unknown objective {name!r}; expected one of "
                f"{sorted(table)}"
            )
        key, direction = table[name]
        if direction not in ("min", "max"):
            raise ValueError(
                f"objective {name!r} has invalid direction {direction!r}; "
                f"expected 'min' or 'max'"
            )
        out.append((name, key, direction))
    return out


#: Relative spread below which :func:`knee_point` treats an objective as
#: flat: far above the ~1e-15 left by summing the same charges in another
#: order, far below the differences a DSE axis is meant to resolve.
_FLAT_RTOL = 1e-12


def _objective_values(
    rows: Sequence[Mapping[str, object]],
    name: str,
    key: str,
) -> np.ndarray:
    """Extract one objective column, with the shared error path: every
    row must carry a finite value under ``key``."""
    values = np.empty(len(rows), dtype=float)
    for i, row in enumerate(rows):
        value = row.get(key)
        if value is None or not np.isfinite(float(value)):
            raise ValueError(
                f"row {i} has no finite {key!r} for objective {name!r}"
            )
        values[i] = float(value)
    return values


def _score_matrix(
    rows: Sequence[Mapping[str, object]],
    objectives: Sequence[Tuple[str, str, str]],
) -> np.ndarray:
    """Rows x objectives matrix, oriented so larger is always better."""
    scores = np.empty((len(rows), len(objectives)), dtype=float)
    for j, (name, key, direction) in enumerate(objectives):
        scores[:, j] = _objective_values(rows, name, key)
        if direction == "min":
            scores[:, j] = -scores[:, j]
    return scores


def pareto_front(
    rows: Sequence[Mapping[str, object]],
    objective_names: Sequence[str],
    *,
    objectives: Optional[Mapping[str, Tuple[str, str]]] = None,
) -> List[int]:
    """Indices of the non-dominated rows, in input order.

    A row is dominated when another row is at least as good on every
    objective and strictly better on one.  Duplicate objective vectors
    all survive (neither dominates), so the front is stable under row
    reordering — the property that keeps parallel DSE bit-identical.
    """
    resolved = resolve_objectives(objective_names, objectives)
    scores = _score_matrix(rows, resolved)
    n = len(rows)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(scores[j] >= scores[i]) and np.any(scores[j] > scores[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def knee_point(
    rows: Sequence[Mapping[str, object]],
    objective_names: Sequence[str],
    front: Optional[Sequence[int]] = None,
    *,
    objectives: Optional[Mapping[str, Tuple[str, str]]] = None,
) -> Optional[int]:
    """The balanced-compromise row: nearest (L2) to the ideal point.

    Each objective is normalized to [0, 1] over the front (1 = best);
    the knee is the front row closest to ``(1, ..., 1)``.  Ties break
    toward the earliest row, keeping the choice deterministic.  An
    objective whose spread over the front is rounding noise (at most
    :data:`_FLAT_RTOL` of its magnitude) counts as flat: normalizing it
    would stretch last-ulp summation-order differences to the full
    ``[0, 1]`` range and let them pick the knee.
    """
    if front is None:
        front = pareto_front(rows, objective_names, objectives=objectives)
    if not front:
        return None
    resolved = resolve_objectives(objective_names, objectives)
    scores = _score_matrix([rows[i] for i in front], resolved)
    lo = scores.min(axis=0)
    span = scores.max(axis=0) - lo
    flat = span <= _FLAT_RTOL * np.abs(scores).max(axis=0)
    span[flat] = 1.0
    normalized = (scores - lo) / span
    normalized[:, flat] = 0.0
    distances = np.sqrt(np.sum((1.0 - normalized) ** 2, axis=1))
    return int(front[int(np.argmin(distances))])


def parameter_sensitivity(
    rows: Sequence[Mapping[str, object]],
    parameters: Sequence[str],
    objective_names: Sequence[str],
    *,
    objectives: Optional[Mapping[str, Tuple[str, str]]] = None,
) -> Dict[str, Dict[str, float]]:
    """Main-effect sensitivity of each objective to each sweep parameter.

    For every parameter, rows are grouped by its value; the sensitivity
    is the spread of per-group objective means, normalized by the
    objective's overall spread — 1.0 means the parameter alone spans the
    whole observed range, 0.0 means the objective ignores it (or only
    one group/value exists).

    Rows missing an objective key raise the same descriptive
    ``ValueError`` as the front/knee scoring path (historically this
    leaked a bare ``KeyError``).
    """
    resolved = resolve_objectives(objective_names, objectives)
    out: Dict[str, Dict[str, float]] = {}
    for param in parameters:
        groups: Dict[object, List[int]] = {}
        for i, row in enumerate(rows):
            groups.setdefault(row.get(param), []).append(i)
        per_objective: Dict[str, float] = {}
        for name, key, _ in resolved:
            values = _objective_values(rows, name, key)
            span = float(values.max() - values.min()) if len(values) else 0.0
            if span <= 0 or len(groups) < 2:
                per_objective[name] = 0.0
                continue
            means = [
                float(np.mean(values[idx])) for idx in groups.values()
            ]
            per_objective[name] = (max(means) - min(means)) / span
        out[param] = per_objective
    return out
