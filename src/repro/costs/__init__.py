"""Unified cost-model layer: every energy/latency charge in one place.

Before this package, energy was charged as data-independent per-op
constants scattered across the device, crossbar, periphery, core and
pipeline layers.  CiMLoop-style value-aware modeling shows those
constants are the *upper envelope*: real DAC, driver, crossbar and ADC
energy depends on the data — input magnitudes, conductance states,
resolved output codes.  This package concentrates all charging behind an
:class:`EnergyModel` so the whole stack can swap pricing policies with
one flag:

* :class:`StaticEnergyModel` — reproduces the historical per-op
  constants **bit-for-bit** (the asserted reference path, pinned by
  ``tests/test_costs_models.py``).
* :class:`ValueAwareEnergyModel` — prices DAC/driver energy by input
  magnitude, crossbar bitline energy by the resolved column swings, ADC
  energy by the Hamming weight of the resolved output codes, and
  programming energy by the target conductance state, each as an exact
  per-element reduction.

Model selection is context-local (:func:`use_model`) with a process-wide
default (:func:`set_process_default`, seeded from the
``REPRO_ENERGY_MODEL`` environment variable); the parallel sweep engine
ships the active spec to its worker processes so serial and multi-worker
sweeps price identically.
"""

from repro.costs.models import (
    CELL_AREA,
    WRITE_ENERGY_PER_CELL,
    WRITE_PULSE_TIME,
    ENV_ENERGY_MODEL,
    EnergyModel,
    EnergyModelSpec,
    StaticEnergyModel,
    ValueAwareEnergyModel,
    active_model,
    active_spec,
    model_from_spec,
    set_process_default,
    use_model,
)
from repro.costs.pareto import (
    OBJECTIVES,
    knee_point,
    pareto_front,
    parameter_sensitivity,
)

__all__ = [
    "CELL_AREA",
    "WRITE_ENERGY_PER_CELL",
    "WRITE_PULSE_TIME",
    "ENV_ENERGY_MODEL",
    "EnergyModel",
    "EnergyModelSpec",
    "StaticEnergyModel",
    "ValueAwareEnergyModel",
    "active_model",
    "active_spec",
    "model_from_spec",
    "set_process_default",
    "use_model",
    "OBJECTIVES",
    "knee_point",
    "pareto_front",
    "parameter_sensitivity",
]
