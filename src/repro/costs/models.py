"""Energy models: the single place every charge in the stack is priced.

Two pricing policies share one charging API:

* :class:`StaticEnergyModel` reproduces the historical inline per-op
  constants **bit-for-bit** — same operands, same floating-point
  evaluation order — so a flag-off run's telemetry is indistinguishable
  from the pre-refactor code (the reference-path pattern the IR-drop
  solver and the ECC codec already follow).
* :class:`ValueAwareEnergyModel` prices the same events by the data that
  actually flowed (CiMLoop): DAC/driver energy grows with the square of
  the driven wordline voltage (CV^2 charging), crossbar bitline energy
  with the resolved column swings, ADC energy with the Hamming weight of
  the resolved SAR codes (capacitors left connected), programming energy
  with the target conductance state, and wire energy shrinks with
  operand sparsity.  Every component is an exact per-element reduction
  (a handful of numpy sums per event), cheap enough for sweeps.

Both models charge through :meth:`EnergyModel.charge`, which routes
every :class:`~repro.core.metrics.OperationCost` into the caller's
:class:`~repro.core.metrics.CostAccumulator` (and thus into the current
telemetry scope), so RunReports conserve identically in either mode.
Latency and data-movement are data-independent in both models: value
awareness re-prices *energy* only, keeping timing comparisons stable.

Selection is context-local: :func:`use_model` scopes a model to a
``with`` block, :func:`set_process_default` pins the process default
(what the sweep engine's worker initializer calls), and the
``REPRO_ENERGY_MODEL`` environment variable seeds the initial default.
All value-aware pricing is a pure function of the charged data, so
reports stay bit-identical between serial and multi-worker sweeps.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Iterator, Optional, Union

import numpy as np

from repro.core.metrics import CostAccumulator, OperationCost

__all__ = [
    "CELL_AREA",
    "WRITE_ENERGY_PER_CELL",
    "WRITE_PULSE_TIME",
    "ENV_ENERGY_MODEL",
    "EnergyModelSpec",
    "EnergyModel",
    "StaticEnergyModel",
    "ValueAwareEnergyModel",
    "model_from_spec",
    "active_model",
    "active_spec",
    "set_process_default",
    "use_model",
]

#: mm^2 per memristive cell (ISAAC crossbar: 2.5e-5 mm^2 for 128x128).
CELL_AREA = 2.5e-5 / (128 * 128)

#: Write-pulse cost per cell (SET-pulse CV^2-style estimate).
WRITE_ENERGY_PER_CELL = 10e-12   # J
WRITE_PULSE_TIME = 100e-9        # s per programming pulse

#: Environment variable seeding the process-default model spec.
ENV_ENERGY_MODEL = "REPRO_ENERGY_MODEL"

_KINDS = ("static", "value_aware")


@dataclass(frozen=True)
class EnergyModelSpec:
    """Declarative, JSON-able description of an energy model.

    The spec — not the model instance — is what travels: into serve-layer
    config fingerprints (so static and value-aware results can never
    share a cache hit) and into sweep worker processes (so parallel jobs
    price exactly like serial ones).

    Value-aware parameters: each ``*_static_fraction`` is the
    data-independent floor of that component's per-event energy (clock
    trees, comparators, bias currents); the remaining fraction scales
    with the data.  ``bitline_energy_per_swing`` is the extra crossbar
    bitline charging energy per column conversion at full-scale swing,
    and ``wire_activity_floor`` the minimum switching-activity factor a
    fully sparse payload still pays on a wire.
    """

    kind: str = "static"
    dac_static_fraction: float = 0.3
    driver_static_fraction: float = 0.3
    adc_static_fraction: float = 0.4
    programming_static_fraction: float = 0.5
    bitline_energy_per_swing: float = 5e-15   # J per column at full swing
    wire_activity_floor: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for name in (
            "dac_static_fraction",
            "driver_static_fraction",
            "adc_static_fraction",
            "programming_static_fraction",
            "wire_activity_floor",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.bitline_energy_per_swing < 0:
            raise ValueError(
                f"bitline_energy_per_swing must be >= 0, got "
                f"{self.bitline_energy_per_swing}"
            )

    @property
    def name(self) -> str:
        """Canonical short name (what CLI flags and configs accept)."""
        return self.kind

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, suitable for config fingerprints."""
        return asdict(self)

    @staticmethod
    def parse(spec: "SpecLike") -> "EnergyModelSpec":
        """Coerce a name, dict or spec into an :class:`EnergyModelSpec`.

        Accepted names: ``"static"`` and ``"value_aware"``.  Dicts carry
        a ``name`` or ``kind`` plus parameter overrides; an unknown name
        or field raises.
        """
        if isinstance(spec, EnergyModelSpec):
            return spec
        if isinstance(spec, str):
            if spec == "static":
                return EnergyModelSpec()
            if spec == "value_aware":
                return EnergyModelSpec(kind="value_aware")
            raise ValueError(
                f"unknown energy model {spec!r}; expected 'static' or "
                f"'value_aware'"
            )
        if isinstance(spec, dict):
            fields = dict(spec)
            base = EnergyModelSpec.parse(fields.pop("name", "static"))
            return replace(base, **fields)
        raise TypeError(
            f"spec must be a name, dict or EnergyModelSpec, got "
            f"{type(spec).__name__}"
        )


SpecLike = Union[str, Dict[str, Any], EnergyModelSpec]


class EnergyModel:
    """Charging API every cost-bearing layer calls.

    Each ``charge_*`` method prices one physical event and routes the
    resulting :class:`OperationCost` through the caller's accumulator via
    :meth:`charge` — the single funnel into telemetry.  The base class
    implements the **static** pricing (the historical constants);
    subclasses override the energy terms only.
    """

    spec = EnergyModelSpec()

    #: Whether the model prices by data values.  Call sites that would
    #: have to *build* a value array just for pricing (e.g. endurance
    #: snapshots) can skip it when this is ``False``.
    needs_values = False

    # ------------------------------------------------------------ the funnel
    def charge(
        self, costs: CostAccumulator, category: str, cost: OperationCost
    ) -> OperationCost:
        """Route one priced event into ``costs`` (and telemetry)."""
        costs.add(category, cost)
        return cost

    # -------------------------------------------------------------- pricing
    def charge_programming(
        self,
        costs: CostAccumulator,
        *,
        n_cells: int,
        iterations: float = 1,
        targets: Optional[np.ndarray] = None,
        g_min: Optional[float] = None,
        g_max: Optional[float] = None,
    ) -> OperationCost:
        """Write pulses onto ``n_cells`` cells, ``iterations`` rounds.

        ``targets`` (the programmed conductances) and the device's
        ``g_min``/``g_max`` enable state-dependent pricing.
        """
        return self.charge(
            costs,
            "programming",
            OperationCost(
                energy=self._programming_energy(
                    n_cells, iterations, targets, g_min, g_max
                ),
                latency=WRITE_PULSE_TIME * iterations,
            ),
        )

    def charge_dac(
        self,
        costs: CostAccumulator,
        dac,
        *,
        rows: int,
        batch: int,
        voltages: Optional[np.ndarray] = None,
        v_ref: Optional[float] = None,
    ) -> OperationCost:
        """One conversion per wordline per batch vector.

        ``voltages`` is the driven wordline matrix and ``v_ref`` its full
        scale; value-aware pricing keys on the update magnitudes.
        """
        return self.charge(
            costs,
            "dac",
            OperationCost(
                energy=self._dac_energy(dac, rows, batch, voltages, v_ref),
                latency=dac.latency * batch,
            ),
        )

    def charge_array(
        self,
        costs: CostAccumulator,
        *,
        settle_power: float,
        settle_time: float,
        batch: int = 1,
        column_volts: Optional[np.ndarray] = None,
        v_fs: Optional[float] = None,
    ) -> OperationCost:
        """Analog evaluation: the array dissipates ``settle_power`` (the
        actual ``V^2 G`` read power, already data-dependent) for one
        settle window; ``column_volts`` (resolved column swings, full
        scale ``v_fs``) enables the value-aware bitline-charging term."""
        return self.charge(
            costs,
            "array",
            OperationCost(
                energy=self._array_energy(
                    settle_power, settle_time, column_volts, v_fs
                ),
                latency=settle_time * batch,
            ),
        )

    def charge_adc(
        self,
        costs: CostAccumulator,
        adc,
        *,
        n_cols: int,
        batch: int,
        codes: Optional[np.ndarray] = None,
    ) -> OperationCost:
        """One conversion per physical column per batch vector; ``codes``
        (the resolved output codes) enable SAR code-dependent pricing."""
        return self.charge(
            costs,
            "adc",
            OperationCost(
                energy=self._adc_energy(adc, n_cols, batch, codes),
                latency=adc.latency * batch,
            ),
        )

    def charge_driver(
        self,
        costs: CostAccumulator,
        config,
        *,
        activations: int,
        batch: int = 1,
        voltages: Optional[np.ndarray] = None,
        v_ref: Optional[float] = None,
    ) -> OperationCost:
        """``activations`` driven-wordline events across ``batch``
        vectors; ``voltages`` enables magnitude-dependent pricing."""
        return self.charge(
            costs,
            "driver",
            OperationCost(
                energy=self._driver_energy(
                    config, activations, voltages, v_ref
                ),
                latency=config.latency * batch,
            ),
        )

    def charge_sense(
        self, costs: CostAccumulator, config, *, n_senses: int, repeats: int = 1
    ) -> OperationCost:
        """``n_senses`` sense-amplifier compares over ``repeats``
        sequential latency windows (one by default — the historical
        single-access behaviour; the ECC advisor prices a whole read
        workload as ``repeats`` codeword accesses in one charge)."""
        return self.charge(
            costs,
            "sense_amp",
            OperationCost(
                energy=config.energy_per_sense * n_senses,
                latency=config.latency * repeats,
            ),
        )

    def charge_decoder(
        self, costs: CostAccumulator, config, *, n_rows: int
    ) -> OperationCost:
        """Row-decoder activation of ``n_rows`` wordlines."""
        return self.charge(
            costs,
            "decoder",
            OperationCost(
                energy=config.energy_per_activation * n_rows,
                latency=config.latency,
            ),
        )

    def charge_movement(
        self,
        costs: CostAccumulator,
        params,
        *,
        n_bytes: float,
        values: Optional[np.ndarray] = None,
    ) -> OperationCost:
        """Memory-bus transfer of ``n_bytes`` (von Neumann machines);
        ``values`` enables sparsity-dependent wire pricing."""
        return self.charge(
            costs,
            "data_movement",
            OperationCost(
                energy=self._wire_energy(
                    n_bytes * 8 * params.bus_energy_per_bit, values
                ),
                latency=n_bytes / params.bus_bandwidth,
                data_moved=n_bytes,
            ),
        )

    def charge_compute(
        self, costs: CostAccumulator, params, *, macs: int
    ) -> OperationCost:
        """ALU multiply-accumulate work (data-independent in both
        models: digital MAC energy varies far less than wires/ADCs)."""
        return self.charge(
            costs,
            "compute",
            OperationCost(
                energy=macs * params.mac_energy,
                latency=(macs / params.alu_parallelism) * params.mac_latency,
            ),
        )

    def charge_transfer(
        self,
        costs: CostAccumulator,
        params,
        *,
        payload: float,
        latency: float,
        values: Optional[np.ndarray] = None,
    ) -> OperationCost:
        """Inter-tile link transfer of ``payload`` bytes (latency is
        computed by the link model and passed through unchanged)."""
        return self.charge(
            costs,
            "interconnect",
            OperationCost(
                energy=self._wire_energy(
                    payload * params.energy_per_byte, values
                ),
                latency=latency,
                data_moved=payload,
            ),
        )

    # ----------------------------------------------- static energy terms
    # Each expression reproduces the historical inline charge verbatim —
    # same operands, same evaluation order — so flag-off telemetry is
    # bit-identical to the pre-refactor code.
    def _programming_energy(self, n_cells, iterations, targets, g_min, g_max):
        return WRITE_ENERGY_PER_CELL * n_cells * iterations

    def _dac_energy(self, dac, rows, batch, voltages, v_ref):
        return dac.energy_per_conversion * rows * batch

    def _array_energy(self, settle_power, settle_time, column_volts, v_fs):
        return settle_power * settle_time

    def _adc_energy(self, adc, n_cols, batch, codes):
        return adc.energy_per_conversion * n_cols * batch

    def _driver_energy(self, config, activations, voltages, v_ref):
        return activations * config.energy_per_activation

    def _wire_energy(self, base_energy, values):
        return base_energy


class StaticEnergyModel(EnergyModel):
    """The reference path: historical data-independent constants."""

    def __init__(self, spec: Optional[EnergyModelSpec] = None) -> None:
        self.spec = spec or EnergyModelSpec()


def _popcount(codes: np.ndarray) -> np.ndarray:
    """Vectorized per-element population count of non-negative ints."""
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return bitwise_count(codes.astype(np.uint64))
    counts = np.zeros(codes.shape, dtype=np.int64)
    work = codes.astype(np.int64).copy()
    while work.any():
        counts += work & 1
        work >>= 1
    return counts


class ValueAwareEnergyModel(EnergyModel):
    """CiMLoop-style pricing: energy follows the data.

    Each component sums per-element contributions — every wordline
    update, every resolved code.  Pricing is a pure function of the
    charged values, so sweeps stay bit-identical at any worker count.
    """

    needs_values = True

    def __init__(self, spec: Optional[EnergyModelSpec] = None) -> None:
        spec = spec or EnergyModelSpec(kind="value_aware")
        if spec.kind != "value_aware":
            raise ValueError(
                f"ValueAwareEnergyModel needs a value_aware spec, got "
                f"{spec.kind!r}"
            )
        self.spec = spec

    # ---------------------------------------------------------------- energy
    def _programming_energy(self, n_cells, iterations, targets, g_min, g_max):
        base = WRITE_ENERGY_PER_CELL * n_cells * iterations
        if targets is None or g_min is None or g_max is None or g_max <= g_min:
            return base
        gamma = self.spec.programming_static_fraction
        targets = np.asarray(targets, dtype=float)
        span = g_max - g_min
        state = np.clip((targets - g_min) / span, 0.0, 1.0)
        dyn = float(np.sum(state))
        return WRITE_ENERGY_PER_CELL * iterations * (
            gamma * n_cells + (1.0 - gamma) * dyn
        )

    def _dac_energy(self, dac, rows, batch, voltages, v_ref):
        base = dac.energy_per_conversion * rows * batch
        if voltages is None or not v_ref:
            return base
        alpha = self.spec.dac_static_fraction
        voltages = np.asarray(voltages, dtype=float)
        norm = voltages / v_ref
        dyn = float(np.sum(norm * norm))
        return dac.energy_per_conversion * (
            alpha * voltages.size + (1.0 - alpha) * dyn
        )

    def _array_energy(self, settle_power, settle_time, column_volts, v_fs):
        energy = settle_power * settle_time
        if column_volts is None or not v_fs:
            return energy
        norm = np.asarray(column_volts, dtype=float) / v_fs
        dyn = float(np.sum(norm * norm))
        return energy + self.spec.bitline_energy_per_swing * dyn

    def _adc_energy(self, adc, n_cols, batch, codes):
        base = adc.energy_per_conversion * n_cols * batch
        if codes is None:
            return base
        beta = self.spec.adc_static_fraction
        codes = np.asarray(codes)
        dyn = float(np.sum(_popcount(codes))) / adc.config.bits
        return adc.energy_per_conversion * (
            beta * codes.size + (1.0 - beta) * dyn
        )

    def _driver_energy(self, config, activations, voltages, v_ref):
        base = activations * config.energy_per_activation
        if voltages is None or not v_ref or activations <= 0:
            return base
        alpha = self.spec.driver_static_fraction
        norm = np.asarray(voltages, dtype=float) / v_ref
        dyn = float(np.sum(norm * norm))
        return config.energy_per_activation * (
            alpha * activations + (1.0 - alpha) * dyn
        )

    def _wire_energy(self, base_energy, values):
        if values is None:
            return base_energy
        floor = self.spec.wire_activity_floor
        values = np.asarray(values)
        if values.size == 0:
            return base_energy
        density = float(np.count_nonzero(values)) / values.size
        return base_energy * (floor + (1.0 - floor) * density)


# --------------------------------------------------------------------------
# Model selection: process default + context-local override
# --------------------------------------------------------------------------

_MODEL_CACHE: Dict[EnergyModelSpec, EnergyModel] = {}


def model_from_spec(spec: SpecLike) -> EnergyModel:
    """The (cached) model instance for ``spec``."""
    parsed = EnergyModelSpec.parse(spec)
    model = _MODEL_CACHE.get(parsed)
    if model is None:
        if parsed.kind == "static":
            model = StaticEnergyModel(parsed)
        else:
            model = ValueAwareEnergyModel(parsed)
        _MODEL_CACHE[parsed] = model
    return model


def _env_default() -> EnergyModelSpec:
    raw = os.environ.get(ENV_ENERGY_MODEL, "static")
    try:
        return EnergyModelSpec.parse(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_ENERGY_MODEL}={raw!r} is not a recognized energy model"
        ) from None


_PROCESS_DEFAULT: EnergyModelSpec = _env_default()
_SPEC_VAR: ContextVar[Optional[EnergyModelSpec]] = ContextVar(
    "repro_energy_model_spec", default=None
)


def active_spec() -> EnergyModelSpec:
    """The spec charges are priced under right now."""
    spec = _SPEC_VAR.get()
    return spec if spec is not None else _PROCESS_DEFAULT


def active_model() -> EnergyModel:
    """The model instance charges are priced under right now."""
    return model_from_spec(active_spec())


def set_process_default(spec: SpecLike) -> EnergyModelSpec:
    """Pin the process-wide default model (sweep workers call this with
    the spec shipped by the pool initializer); returns the parsed spec."""
    global _PROCESS_DEFAULT
    _PROCESS_DEFAULT = EnergyModelSpec.parse(spec)
    return _PROCESS_DEFAULT


@contextmanager
def use_model(spec: SpecLike) -> Iterator[EnergyModel]:
    """Price every charge inside the block under ``spec``.

    Context-local (a ``ContextVar``), so concurrent asyncio request
    handlers each see their own model, exactly like telemetry scopes.
    """
    parsed = EnergyModelSpec.parse(spec)
    token = _SPEC_VAR.set(parsed)
    try:
        yield model_from_spec(parsed)
    finally:
        _SPEC_VAR.reset(token)
