"""Energy/latency/data-movement accounting for the machine models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.utils import telemetry
from repro.utils.validation import check_non_negative


@dataclass
class OperationCost:
    """An energy/latency/data-movement triple: the type a
    :class:`CostAccumulator` snapshot is read as."""

    energy: float = 0.0        # J
    latency: float = 0.0       # s
    data_moved: float = 0.0    # bytes crossing the memory boundary

    def __post_init__(self) -> None:
        check_non_negative("energy", self.energy)
        check_non_negative("latency", self.latency)
        check_non_negative("data_moved", self.data_moved)


class CostAccumulator:
    """Running totals with a per-category breakdown.

    Each charge is booked once, as plain floats, by :meth:`add`.
    :attr:`total` and :attr:`by_category` are snapshots built on read, so
    a value read earlier never changes when later charges arrive.
    """

    def __init__(self) -> None:
        self._total: List[float] = [0.0, 0.0, 0.0]
        self._by_category: Dict[str, List[float]] = {}

    def add(
        self,
        category: str,
        energy: float = 0.0,
        latency: float = 0.0,
        data_moved: float = 0.0,
    ) -> None:
        """Book one charge under ``category``.

        The three floats are checked for non-negativity once, then added
        to the running total and to the category's sums.  Every charge is
        also mirrored into the current telemetry scope
        (:mod:`repro.utils.telemetry`), which is how per-job run reports
        capture energy breakdowns for free.
        """
        if energy < 0 or latency < 0 or data_moved < 0:
            check_non_negative("energy", energy)
            check_non_negative("latency", latency)
            check_non_negative("data_moved", data_moved)
        total = self._total
        total[0] += energy
        total[1] += latency
        total[2] += data_moved
        entry = self._by_category.get(category)
        if entry is None:
            entry = self._by_category[category] = [0.0, 0.0, 0.0]
        entry[0] += energy
        entry[1] += latency
        entry[2] += data_moved
        telemetry.current().charge(category, energy, latency, data_moved)

    @property
    def total(self) -> OperationCost:
        """Totals over every category, as of this read."""
        return OperationCost(*self._total)

    @property
    def by_category(self) -> Dict[str, OperationCost]:
        """Per-category totals (in first-charge order), as of this read."""
        return {
            name: OperationCost(*entry)
            for name, entry in self._by_category.items()
        }

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict breakdown (sorted) for reports/serialization."""
        return {
            name: dict(
                zip(("energy", "latency", "data_moved"), self._by_category[name])
            )
            for name in sorted(self._by_category)
        }

    def _fraction(self, category: str, index: int) -> float:
        total = self._total[index]
        if total == 0:
            return 0.0
        entry = self._by_category.get(category)
        return entry[index] / total if entry is not None else 0.0

    def energy_fraction(self, category: str) -> float:
        """Share of total energy attributed to ``category``."""
        return self._fraction(category, 0)

    def latency_fraction(self, category: str) -> float:
        """Share of total latency attributed to ``category``."""
        return self._fraction(category, 1)

    def movement_fraction(self, category: str) -> float:
        """Share of total data movement attributed to ``category``."""
        return self._fraction(category, 2)
