"""Area/power budgeting for a CIM tile — the Fig 5 reproduction.

Fig 5 of the paper ("Area and Power share of CIM design blocks [32]")
shows that in an ISAAC-style CIM tile the ADC alone dominates die area
(>90%) and power (>65%).  This module encodes the ISAAC in-situ
multiply-accumulate (IMA) component inventory — 8 crossbars of 128x128
cells, 8 shared 8-bit ADCs, 1-bit wordline DACs, sample-and-hold, and the
shift-and-add reduction — with the ADC and DAC costs derived from the
analytical models in :mod:`repro.periphery.adc` / :mod:`repro.periphery.dac`,
and re-derives the breakdown.

``adc_resolution_sweep`` exposes the Section II-E trade-off: quantization
error falls with resolution while the ADC's area/power share explodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.periphery.adc import ADC, ADCConfig
from repro.periphery.dac import DAC, DACConfig
from repro.utils.rng import RNGLike
from repro.utils.telemetry import RunReport
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class Component:
    """One periphery/array block in the tile budget."""

    name: str
    count: int
    unit_power: float   # W
    unit_area: float    # mm^2

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        check_non_negative("unit_power", self.unit_power)
        check_non_negative("unit_area", self.unit_area)

    @property
    def total_power(self) -> float:
        """Aggregate power of all instances (W)."""
        return self.count * self.unit_power

    @property
    def total_area(self) -> float:
        """Aggregate area of all instances (mm^2)."""
        return self.count * self.unit_area


class TileBudget:
    """A set of components with share computations (the Fig 5 pie)."""

    def __init__(self, components: Sequence[Component]) -> None:
        if not components:
            raise ValueError("a tile budget needs at least one component")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in {names}")
        self.components = list(components)

    @property
    def total_power(self) -> float:
        """Tile power (W)."""
        return sum(c.total_power for c in self.components)

    @property
    def total_area(self) -> float:
        """Tile area (mm^2)."""
        return sum(c.total_area for c in self.components)

    def power_fractions(self) -> Dict[str, float]:
        """Per-component share of total power."""
        total = self.total_power
        return {c.name: c.total_power / total for c in self.components}

    def area_fractions(self) -> Dict[str, float]:
        """Per-component share of total area."""
        total = self.total_area
        return {c.name: c.total_area / total for c in self.components}

    def share(self, name: str) -> Dict[str, float]:
        """Area and power share of one component."""
        return {
            "area": self.area_fractions()[name],
            "power": self.power_fractions()[name],
        }

    def table(self) -> List[Dict[str, float]]:
        """Row-per-component summary suitable for printing."""
        pf, af = self.power_fractions(), self.area_fractions()
        return [
            {
                "name": c.name,
                "count": c.count,
                "power_mW": c.total_power * 1e3,
                "area_mm2": c.total_area,
                "power_share": pf[c.name],
                "area_share": af[c.name],
            }
            for c in self.components
        ]


def isaac_tile_budget(
    adc_bits: int = 8,
    n_adcs: int = 8,
    n_crossbars: int = 8,
    crossbar_rows: int = 128,
    adc_config: Optional[ADCConfig] = None,
    dac_config: Optional[DACConfig] = None,
    include_registers: bool = False,
) -> TileBudget:
    """Build the ISAAC IMA component budget.

    With defaults this reproduces Fig 5: the ADC block takes >90% of area
    and >65% of power of the analog CIM datapath.  ``include_registers``
    adds ISAAC's eDRAM input/output registers, showing how the shares move
    when digital storage is counted too (an ablation).
    """
    adc = ADC(adc_config or ADCConfig(bits=adc_bits))
    dac = DAC(dac_config or DACConfig())
    n_dacs = n_crossbars * crossbar_rows

    components = [
        Component("crossbar", n_crossbars, unit_power=0.3e-3, unit_area=2.5e-5),
        Component("dac", n_dacs, unit_power=dac.power, unit_area=dac.area),
        Component("sample_hold", n_dacs, unit_power=1e-8, unit_area=4e-8),
        Component("adc", n_adcs, unit_power=adc.power, unit_area=adc.area),
        Component("shift_add", 4, unit_power=0.05e-3, unit_area=6e-5),
    ]
    if include_registers:
        components.append(
            Component("io_registers", 1, unit_power=1.47e-3, unit_area=2.87e-3)
        )
    return TileBudget(components)


def fig5_instrumented_report(
    rows: int = 128,
    logical_cols: int = 16,
    batch: int = 32,
    adc_bits: int = 8,
    rng: RNGLike = 0,
) -> RunReport:
    """Fig 5 re-derived from an *instrumented run* instead of the static
    component inventory: an ISAAC-shaped core executes a batched VMM
    workload under telemetry, and the report's energy/area fractions carry
    the ADC-dominance claim (>65% of compute-phase power, >90% of area).

    Programming energy (~10 pJ/cell) would swamp the steady-state compute
    breakdown Fig 5 describes, so the per-category costs are those of the
    inference phase alone, read from a telemetry scope nested around it;
    the side counters cover the whole run.
    """
    from repro.core.cim_core import CIMCore, CIMCoreParams
    from repro.utils import telemetry
    from repro.utils.rng import ensure_rng

    gen = ensure_rng(rng)
    with telemetry.scoped() as scope:
        core = CIMCore(
            CIMCoreParams(
                rows=rows, logical_cols=logical_cols, adc_bits=adc_bits
            ),
            rng=gen,
        )
        core.program_weights(gen.uniform(-1, 1, (rows, logical_cols)))
        with telemetry.nested() as inference:
            core.vmm_batch(gen.uniform(0, 1, (batch, rows)), noisy=False)

    counters = {
        k: v
        for k, v in scope.snapshot(include_timers=False)["counters"].items()
        if not k.startswith(telemetry.COST_PREFIXES)
    }
    return RunReport(
        label="fig5_instrumented",
        categories=RunReport.from_counters(inference.counters).categories,
        counters=counters,
        area=core.area_breakdown(),
    )


def adc_resolution_sweep(
    bits_values: Sequence[int] = (4, 5, 6, 7, 8, 9, 10),
) -> List[Dict[str, float]]:
    """Sweep ADC resolution and report cost vs. quantization error.

    This quantifies the Section II-E statement that "quantization error in
    ADC increases as we ... reduce the resolution.  In addition, area/power
    increases drastically as we [increase it]".
    """
    rows: List[Dict[str, float]] = []
    probe = np.linspace(0.0, 1.0, 10_001)
    for bits in bits_values:
        adc = ADC(ADCConfig(bits=bits))
        budget = isaac_tile_budget(adc_bits=bits)
        share = budget.share("adc")
        rows.append(
            {
                "bits": bits,
                "rms_quantization_error": adc.rms_quantization_error(probe),
                "adc_power_mW": adc.power * 1e3,
                "adc_area_mm2": adc.area,
                "adc_area_share": share["area"],
                "adc_power_share": share["power"],
                "tile_power_mW": budget.total_power * 1e3,
            }
        )
    return rows
