"""The cost-model layer: static bit-identity, value-aware pricing, Pareto.

The load-bearing test here is :class:`TestStaticPinned`: the exact charge
totals below were captured from the pre-refactor code (inline constants at
every call site) and the refactored :class:`StaticEnergyModel` must
reproduce every one of them bit-for-bit — the flag-off guarantee that the
cost-model layer is a pure re-routing, not a re-modeling.
"""

import numpy as np
import pytest

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.comparison import ArchitectureComparator, WorkloadSpec
from repro.core.vonneumann import VonNeumannMachine
from repro.costs import (
    EnergyModelSpec,
    StaticEnergyModel,
    ValueAwareEnergyModel,
    active_model,
    active_spec,
    knee_point,
    model_from_spec,
    pareto_front,
    parameter_sensitivity,
    use_model,
)
from repro.core.metrics import CostAccumulator
from repro.periphery.adc import ADC, ADCConfig
from repro.periphery.dac import DAC
from repro.pipeline.interconnect import Interconnect
from repro.utils import telemetry

# Captured from the pre-refactor code (commit e282ec3) by running the
# exact operation sequence in TestStaticPinned; every float is verbatim.
PINNED = {
    "cim_core": {
        "adc": {"energy": 3.1231999999999996e-11, "latency": 3.90625e-09},
        "array": {"energy": 7.023159877855806e-13, "latency": 8e-09},
        "dac": {"energy": 2.4399999999999997e-13, "latency": 3.90625e-09},
        "decoder": {"energy": 3e-14, "latency": 1.5000000000000002e-09},
        "driver": {"energy": 4.3000000000000004e-13, "latency": 4e-09},
        "programming": {"energy": 2.8799999999999996e-09, "latency": 3e-07},
        "sense_amp": {
            "energy": 9.600000000000001e-14,
            "latency": 3.0000000000000004e-09,
        },
    },
    "cim_core_ir": {
        "adc": {"energy": 5.62176e-11, "latency": 2.34375e-09},
        "array": {
            "energy": 1.6444264967807333e-13,
            "latency": 3.0000000000000004e-09,
        },
        "dac": {"energy": 1.098e-13, "latency": 2.34375e-09},
        "driver": {"energy": 1.8e-13, "latency": 1.5000000000000002e-09},
        "programming": {"energy": 1.44e-09, "latency": 1e-07},
    },
    "cim_p": {"energy": 2.5607679999999965e-09, "latency": 1.239999999999999e-07},
    "interconnect": {
        "interconnect": {
            "data_moved": 422.0,
            "energy": 4.22e-10,
            "latency": 8.22e-09,
        }
    },
    "von_neumann": {
        "compute": {
            "energy": 3.9999999999999996e-10,
            "latency": 1.2500000000000001e-08,
        },
        "data_movement": {
            "data_moved": 370.0,
            "energy": 2.96e-08,
            "latency": 1.4453124999999997e-08,
        },
    },
}


def _assert_matches(costs: CostAccumulator, pinned: dict) -> None:
    got = costs.as_dict()
    assert set(got) == set(pinned)
    for category, expected in pinned.items():
        for key, value in expected.items():
            assert got[category][key] == value, (
                f"{category}.{key}: {got[category][key]!r} != {value!r}"
            )


@pytest.fixture(scope="module")
def pinned_run():
    """Replays the exact capture sequence (one shared ``rng(7)`` stream —
    the data-dependent array/driver charges depend on the draw order)."""
    out = {}
    core = CIMCore(
        CIMCoreParams(rows=16, logical_cols=8, adc_bits=6),
        rng=np.random.default_rng(99),
    )
    rng = np.random.default_rng(7)
    core.program_weights(rng.uniform(-1.0, 1.0, size=(16, 8)))
    core.vmm_batch(rng.uniform(0.0, 1.0, size=(5, 16)), noisy=False)
    core.write_bit_row(
        0, (rng.uniform(size=core.array.cols) > 0.5).astype(int)
    )
    core.write_bit_row(
        1, (rng.uniform(size=core.array.cols) > 0.5).astype(int)
    )
    core.scouting_or([0, 1])
    core.scouting_and([0, 1])
    core.scouting_xor([0, 1])
    out["cim_core"] = core.costs

    core2 = CIMCore(
        CIMCoreParams(rows=12, logical_cols=6, wire_resistance=0.5),
        rng=np.random.default_rng(3),
    )
    core2.program_weights(rng.uniform(-1.0, 1.0, size=(12, 6)))
    core2.vmm_batch(rng.uniform(0.0, 1.0, size=(3, 12)), noisy=False)
    out["cim_core_ir"] = core2.costs

    vm = VonNeumannMachine()
    vm.run_workload(
        rng.uniform(0.0, 1.0, size=(4, 10)),
        rng.uniform(-1.0, 1.0, size=(10, 5)),
        weights_resident=False,
    )
    vm.run_workload(
        rng.uniform(0.0, 1.0, size=(4, 10)),
        rng.uniform(-1.0, 1.0, size=(10, 5)),
        weights_resident=True,
    )
    out["von_neumann"] = vm.costs

    link = Interconnect()
    link.transfer(100)
    link.transfer(37, hops=3)
    out["interconnect"] = link.costs
    return out


class TestStaticPinned:
    """Flag off == pre-refactor telemetry, bit for bit."""

    def test_cim_core_charges(self, pinned_run):
        _assert_matches(pinned_run["cim_core"], PINNED["cim_core"])

    def test_ir_drop_path_charges(self, pinned_run):
        _assert_matches(pinned_run["cim_core_ir"], PINNED["cim_core_ir"])

    def test_von_neumann_charges(self, pinned_run):
        _assert_matches(pinned_run["von_neumann"], PINNED["von_neumann"])

    def test_interconnect_charges(self, pinned_run):
        _assert_matches(pinned_run["interconnect"], PINNED["interconnect"])

    def test_comparator_cim_p(self):
        comp = ArchitectureComparator(
            WorkloadSpec(matrix_rows=16, matrix_cols=8, batch=3), rng=0
        )
        m = comp.measure_cim_p()
        assert m.energy == PINNED["cim_p"]["energy"]
        assert m.latency == PINNED["cim_p"]["latency"]


class TestSpecParsing:
    def test_names(self):
        assert EnergyModelSpec.parse("static").name == "static"
        assert EnergyModelSpec.parse("value_aware").name == "value_aware"

    def test_unknown_name_raises(self):
        for name in ("quantum", "value_aware_statistical"):
            with pytest.raises(ValueError, match="unknown energy model"):
                EnergyModelSpec.parse(name)
        with pytest.raises(TypeError, match="statistical"):
            EnergyModelSpec.parse({"name": "value_aware", "statistical": True})

    def test_dict_roundtrip(self):
        spec = EnergyModelSpec(kind="value_aware", dac_static_fraction=0.5)
        assert EnergyModelSpec.parse(spec.to_dict()) == spec

    def test_dict_with_name_and_overrides(self):
        spec = EnergyModelSpec.parse(
            {"name": "value_aware", "adc_static_fraction": 0.1}
        )
        assert spec.kind == "value_aware"
        assert spec.adc_static_fraction == 0.1

    def test_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            EnergyModelSpec(dac_static_fraction=1.5)

    def test_model_from_spec_cached(self):
        assert model_from_spec("static") is model_from_spec("static")
        assert isinstance(model_from_spec("static"), StaticEnergyModel)
        assert isinstance(
            model_from_spec("value_aware"), ValueAwareEnergyModel
        )

    def test_value_aware_model_rejects_static_spec(self):
        with pytest.raises(ValueError, match="value_aware spec"):
            ValueAwareEnergyModel(EnergyModelSpec())


class TestModelSelection:
    def test_default_is_static(self):
        assert active_spec().name == "static"
        assert isinstance(active_model(), StaticEnergyModel)
        assert not active_model().needs_values

    def test_use_model_scopes_and_restores(self):
        with use_model("value_aware") as model:
            assert isinstance(model, ValueAwareEnergyModel)
            assert active_model() is model
            assert active_model().needs_values
        assert isinstance(active_model(), StaticEnergyModel)

    def test_use_model_nests(self):
        with use_model("value_aware"):
            with use_model("static"):
                assert active_spec().name == "static"
            assert active_spec().name == "value_aware"


class TestValueAwarePricing:
    """Physics-shaped properties of the data-dependent terms."""

    exact = ValueAwareEnergyModel(EnergyModelSpec(kind="value_aware"))
    static = StaticEnergyModel()
    dac = DAC()
    adc = ADC(ADCConfig(bits=8))

    def test_dac_energy_tracks_magnitude(self):
        lo = self.exact._dac_energy(
            self.dac, 8, 1, np.full(8, 0.1), 1.0
        )
        hi = self.exact._dac_energy(
            self.dac, 8, 1, np.full(8, 0.9), 1.0
        )
        full = self.static._dac_energy(self.dac, 8, 1, None, None)
        assert lo < hi <= full
        # The static fraction floors the bill even at zero drive.
        zero = self.exact._dac_energy(self.dac, 8, 1, np.zeros(8), 1.0)
        assert zero == pytest.approx(0.3 * full)

    def test_full_scale_drive_equals_static(self):
        full_drive = self.exact._dac_energy(
            self.dac, 8, 1, np.full(8, 1.0), 1.0
        )
        assert full_drive == pytest.approx(
            self.static._dac_energy(self.dac, 8, 1, None, None)
        )

    def test_adc_energy_counts_code_bits(self):
        codes = np.array([0, 1, 3, 255])
        base = self.static._adc_energy(self.adc, 4, 1, None)
        got = self.exact._adc_energy(self.adc, 4, 1, codes)
        # popcounts: 0, 1, 2, 8 -> dyn = 11/8 conversions' worth.
        beta = 0.4
        expected = (
            self.adc.energy_per_conversion * (beta * 4 + (1 - beta) * 11 / 8)
        )
        assert got == pytest.approx(expected)
        assert got < base

    def test_programming_tracks_conductance_state(self):
        lo = self.exact._programming_energy(
            4, 1, np.full(4, 1e-6), 1e-6, 1e-4
        )
        hi = self.exact._programming_energy(
            4, 1, np.full(4, 1e-4), 1e-6, 1e-4
        )
        base = self.static._programming_energy(4, 1, None, None, None)
        assert lo < hi
        assert hi == pytest.approx(base)
        # Missing device bounds fall back to the static bill.
        assert self.exact._programming_energy(
            4, 1, np.full(4, 1e-5), None, None
        ) == base

    def test_wire_energy_tracks_density(self):
        dense = self.exact._wire_energy(1e-9, np.ones(16))
        sparse = self.exact._wire_energy(
            1e-9, np.array([1.0] + [0.0] * 15)
        )
        assert sparse < dense == pytest.approx(1e-9)
        # The activity floor keeps all-zero payloads from pricing free.
        assert self.exact._wire_energy(1e-9, np.zeros(16)) == pytest.approx(
            0.25e-9
        )

    def test_value_aware_run_is_conservation_valid(self):
        with use_model("value_aware"), telemetry.scoped() as scope:
            core = CIMCore(
                CIMCoreParams(rows=16, logical_cols=8),
                rng=np.random.default_rng(0),
            )
            rng = np.random.default_rng(1)
            core.program_weights(rng.uniform(-1.0, 1.0, size=(16, 8)))
            core.vmm_batch(rng.uniform(0.0, 1.0, size=(4, 16)), noisy=False)
            report = telemetry.RunReport.from_counters(
                scope.snapshot(include_timers=False)["counters"],
                label="value_aware",
            )
        report.validate()
        assert report.total_energy > 0
        for category, cost in report.categories.items():
            assert cost["energy"] >= 0, category

    def test_value_aware_total_below_static_on_sub_full_scale_inputs(self):
        def run(spec):
            with use_model(spec):
                core = CIMCore(
                    CIMCoreParams(rows=16, logical_cols=8),
                    rng=np.random.default_rng(0),
                )
                rng = np.random.default_rng(1)
                core.program_weights(rng.uniform(-1.0, 1.0, size=(16, 8)))
                core.vmm_batch(
                    rng.uniform(0.0, 0.5, size=(4, 16)), noisy=False
                )
                return core.costs.total

        static = run("static")
        aware = run("value_aware")
        assert aware.energy < static.energy
        # Timing and data movement never depend on the pricing model.
        assert aware.latency == static.latency
        assert aware.data_moved == static.data_moved


ROWS = [
    {"accuracy": 0.9, "energy_per_sample": 2.0, "area_mm2": 1.0,
     "throughput": 10.0, "tiles": 4, "adc_bits": 8},
    {"accuracy": 0.8, "energy_per_sample": 1.0, "area_mm2": 0.5,
     "throughput": 10.0, "tiles": 4, "adc_bits": 6},
    {"accuracy": 0.5, "energy_per_sample": 3.0, "area_mm2": 2.0,
     "throughput": 5.0, "tiles": 8, "adc_bits": 8},  # dominated by row 0
    {"accuracy": 0.9, "energy_per_sample": 2.0, "area_mm2": 1.0,
     "throughput": 10.0, "tiles": 8, "adc_bits": 8},  # duplicate of row 0
]

OBJS = ("accuracy", "energy", "area", "throughput")


class TestPareto:
    def test_dominated_rows_removed(self):
        assert pareto_front(ROWS, OBJS) == [0, 1, 3]

    def test_duplicates_all_survive(self):
        front = pareto_front(ROWS, OBJS)
        assert 0 in front and 3 in front

    def test_single_objective(self):
        assert pareto_front(ROWS, ("accuracy",)) == [0, 3]

    def test_unknown_objective_raises(self):
        with pytest.raises(ValueError, match="unknown objective"):
            pareto_front(ROWS, ("accuracy", "latency"))

    def test_empty_objectives_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            pareto_front(ROWS, ())

    def test_missing_key_raises(self):
        with pytest.raises(ValueError, match="no finite"):
            pareto_front([{"accuracy": 1.0}], OBJS)

    def test_knee_is_on_front_and_deterministic(self):
        knee = knee_point(ROWS, OBJS)
        assert knee in pareto_front(ROWS, OBJS)
        assert knee == knee_point(ROWS, OBJS)

    def test_knee_prefers_balance(self):
        rows = [
            {"accuracy": 1.0, "energy_per_sample": 10.0},
            {"accuracy": 0.9, "energy_per_sample": 2.0},
            {"accuracy": 0.1, "energy_per_sample": 1.0},
        ]
        assert knee_point(rows, ("accuracy", "energy")) == 1

    def test_knee_ignores_rounding_noise(self):
        """Energies equal up to summation order must not pick the knee:
        a last-ulp spread is as flat as an exact tie."""
        energy = 4.011551949901944e-10
        rows = [
            {"area_mm2": 0.3, "throughput": 1.0, "energy_per_sample": energy},
            {"area_mm2": 0.6, "throughput": 2.2, "energy_per_sample": energy},
            {"area_mm2": 1.2, "throughput": 2.4, "energy_per_sample": energy},
        ]
        names = ("area", "throughput", "energy")
        tied = knee_point(rows, names)
        for i in range(len(rows)):
            noisy = [dict(r) for r in rows]
            noisy[i]["energy_per_sample"] = np.nextafter(energy, 0.0)
            assert knee_point(noisy, names) == tied == 1

    def test_knee_empty_rows(self):
        assert knee_point([], OBJS) is None

    def test_sensitivity_shape_and_range(self):
        sens = parameter_sensitivity(ROWS, ("tiles", "adc_bits"), OBJS)
        assert set(sens) == {"tiles", "adc_bits"}
        for per_objective in sens.values():
            assert set(per_objective) == set(OBJS)
            for value in per_objective.values():
                assert 0.0 <= value <= 1.0

    def test_sensitivity_single_group_is_zero(self):
        sens = parameter_sensitivity(ROWS, ("missing_param",), OBJS)
        assert all(v == 0.0 for v in sens["missing_param"].values())

    def test_sensitivity_dominant_parameter(self):
        rows = [
            {"accuracy": 0.1, "energy_per_sample": 1.0, "knob": 0, "other": 0},
            {"accuracy": 0.9, "energy_per_sample": 1.0, "knob": 1, "other": 0},
            {"accuracy": 0.1, "energy_per_sample": 1.0, "knob": 0, "other": 1},
            {"accuracy": 0.9, "energy_per_sample": 1.0, "knob": 1, "other": 1},
        ]
        sens = parameter_sensitivity(
            rows, ("knob", "other"), ("accuracy",)
        )
        assert sens["knob"]["accuracy"] == pytest.approx(1.0)
        assert sens["other"]["accuracy"] == pytest.approx(0.0)

    def test_sensitivity_missing_key_raises_value_error(self):
        """Regression: rows missing an objective key leaked a bare
        ``KeyError`` out of parameter_sensitivity; it must raise the same
        descriptive ValueError as the front/knee scoring path."""
        rows = [
            {"accuracy": 0.9, "knob": 0},
            {"knob": 1},  # no 'accuracy'
        ]
        with pytest.raises(ValueError, match="no finite 'accuracy'"):
            parameter_sensitivity(rows, ("knob",), ("accuracy",))

    def test_sensitivity_non_finite_value_raises(self):
        rows = [
            {"accuracy": 0.9, "knob": 0},
            {"accuracy": float("nan"), "knob": 1},
        ]
        with pytest.raises(ValueError, match="no finite"):
            parameter_sensitivity(rows, ("knob",), ("accuracy",))

    def test_custom_objective_table(self):
        """Every entry point accepts a custom name -> (key, direction)
        table (the ECC advisor's coverage objective has no place in the
        pipeline's hardcoded set)."""
        table = {
            "coverage": ("coverage", "max"),
            "cost": ("dollars", "min"),
        }
        rows = [
            {"coverage": 0.99, "dollars": 10.0, "knob": 0},
            {"coverage": 0.90, "dollars": 1.0, "knob": 1},
            {"coverage": 0.50, "dollars": 20.0, "knob": 0},  # dominated
        ]
        names = ("coverage", "cost")
        front = pareto_front(rows, names, objectives=table)
        assert front == [0, 1]
        knee = knee_point(rows, names, objectives=table)
        assert knee in front
        sens = parameter_sensitivity(
            rows, ("knob",), names, objectives=table
        )
        assert set(sens["knob"]) == {"coverage", "cost"}

    def test_custom_table_unknown_name_lists_its_keys(self):
        table = {"coverage": ("coverage", "max")}
        with pytest.raises(ValueError, match="coverage"):
            pareto_front(
                [{"coverage": 1.0}], ("accuracy",), objectives=table
            )

    def test_custom_table_bad_direction_rejected(self):
        from repro.costs.pareto import resolve_objectives

        with pytest.raises(ValueError, match="invalid direction"):
            resolve_objectives(
                ("coverage",), {"coverage": ("coverage", "maximize")}
            )
