"""Tests for the ECC co-design advisor (code x yield x workload sweep)."""

import json

import pytest

from repro.costs import use_model
from repro.utils import telemetry
from repro.utils.telemetry import RunReport
from repro.testing.ecc_advisor import (
    ADVISOR_PARAMETERS,
    DEFAULT_CODES,
    ECC_OBJECTIVES,
    SCENARIOS,
    WorkloadScenario,
    advise_ecc,
    ecc_advisor_analysis,
)

CODES = ("secded", "bch")
YIELDS = (0.999, 0.98)
FAST = dict(codes=CODES, yields=YIELDS, mc_words=512, trials=1, workers=0)


@pytest.fixture(scope="module")
def rows():
    return advise_ecc(**FAST)


class TestScenarios:
    def test_registry_names(self):
        assert set(SCENARIOS) == {
            "read_heavy", "write_heavy", "endurance_limited",
        }
        for name, scenario in SCENARIOS.items():
            assert isinstance(scenario, WorkloadScenario)
            assert scenario.name == name

    def test_only_endurance_scenario_wears_out(self):
        assert SCENARIOS["endurance_limited"].lifetime_writes > 0
        assert SCENARIOS["read_heavy"].lifetime_writes == 0
        assert SCENARIOS["write_heavy"].lifetime_writes == 0


class TestAdviseRows:
    def test_full_grid_present(self, rows):
        assert len(rows) == len(CODES) * len(YIELDS) * len(SCENARIOS)
        cells = {(r["code"], r["cell_yield"], r["scenario"]) for r in rows}
        assert len(cells) == len(rows)

    def test_row_schema(self, rows):
        required = {
            "code", "cell_yield", "scenario", "data_bits", "check_bits",
            "codeword_bits", "overhead", "correctable_random", "ber",
            "endurance_dead_fraction", "word_failure_rate", "coverage",
            "analytic_word_failure", "area_mm2", "energy_per_word_J",
            "latency_per_word_s", "trials",
        }
        for row in rows:
            assert required <= set(row)
            assert 0.0 <= row["coverage"] <= 1.0
            assert row["energy_per_word_J"] > 0
            assert row["latency_per_word_s"] > 0
            assert row["area_mm2"] > 0

    def test_objective_keys_cover_the_table(self, rows):
        for key, _direction in ECC_OBJECTIVES.values():
            assert all(key in row for row in rows)

    def test_coverage_decreases_with_yield(self, rows):
        for code in CODES:
            for scenario in SCENARIOS:
                by_yield = {
                    r["cell_yield"]: r["coverage"]
                    for r in rows
                    if r["code"] == code and r["scenario"] == scenario
                }
                assert by_yield[0.999] >= by_yield[0.98]

    def test_bch_protects_better_than_secded(self, rows):
        # Compare on the analytic failure (deterministic) rather than the
        # Monte-Carlo coverage, whose noise at small mc_words can exceed
        # the code gap at high BER.  endurance_limited is excluded: its
        # effective BER includes a per-point sampled dead fraction, so the
        # two codes do not see the same channel there.
        for cell_yield in YIELDS:
            for scenario in ("read_heavy", "write_heavy"):
                fail = {
                    r["code"]: r["analytic_word_failure"]
                    for r in rows
                    if r["cell_yield"] == cell_yield
                    and r["scenario"] == scenario
                }
                assert fail["bch"] < fail["secded"]

    def test_bch_costs_more_than_secded(self, rows):
        # More check bits -> strictly more area and write energy.
        pick = {
            r["code"]: r
            for r in rows
            if r["scenario"] == "write_heavy" and r["cell_yield"] == 0.999
        }
        assert pick["bch"]["area_mm2"] > pick["secded"]["area_mm2"]
        assert (
            pick["bch"]["energy_per_word_J"]
            > pick["secded"]["energy_per_word_J"]
        )

    def test_endurance_raises_effective_ber(self, rows):
        for code in CODES:
            wear = {
                r["scenario"]: r["ber"]
                for r in rows
                if r["code"] == code and r["cell_yield"] == 0.999
            }
            assert wear["endurance_limited"] > wear["read_heavy"]

    def test_serial_parallel_bit_identical(self):
        serial = advise_ecc(**{**FAST, "workers": 0})
        parallel = advise_ecc(**{**FAST, "workers": 2})
        assert serial == parallel

    def test_deterministic_across_calls(self, rows):
        assert rows == advise_ecc(**FAST)

    def test_seed_changes_statistics(self, rows):
        reseeded = advise_ecc(**{**FAST, "seed": 123})
        assert any(
            a["word_failure_rate"] != b["word_failure_rate"]
            for a, b in zip(rows, reseeded)
            # only rows with some failures can differ
            if a["word_failure_rate"] not in (0.0, 1.0)
        )

    def test_with_report_conserves(self):
        with telemetry.scoped() as scope:
            rows = advise_ecc(**FAST)
        report = RunReport.from_counters(
            scope.snapshot(include_timers=False)["counters"]
        )
        assert len(rows) == len(CODES) * len(YIELDS) * len(SCENARIOS)
        report.validate()
        data = report.to_dict()
        assert data["counters"]

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown ECC code"):
            advise_ecc(codes=("hamming1950",), trials=1)
        with pytest.raises(ValueError, match="unknown scenario"):
            advise_ecc(scenarios=("cold_storage",), trials=1)
        with pytest.raises(ValueError, match="cell_yield"):
            advise_ecc(yields=(1.5,), trials=1)
        with pytest.raises(ValueError, match="trials"):
            advise_ecc(trials=0)
        with pytest.raises(ValueError, match="mc_words"):
            advise_ecc(mc_words=0)

    def test_value_aware_model_prices_differently(self):
        static_rows = advise_ecc(**FAST)
        with use_model("value_aware"):
            aware_rows = advise_ecc(**FAST)
        # Statistical fields identical (pricing cannot change the MC),
        # energy bounded by static, latency identical.
        for s, a in zip(static_rows, aware_rows):
            assert a["coverage"] == s["coverage"]
            assert a["energy_per_word_J"] <= s["energy_per_word_J"]
            assert a["latency_per_word_s"] == s["latency_per_word_s"]


class TestAnalysis:
    def test_structure(self, rows):
        advice = ecc_advisor_analysis(rows)
        assert advice["objectives"] == ["area", "energy", "latency",
                                        "coverage"]
        assert advice["points"] == len(rows)
        assert advice["front"]
        assert advice["knee"] is not None
        knee_rows = [r for r in advice["front"] if r["knee"]]
        assert len(knee_rows) == 1
        assert knee_rows[0]["code"] == advice["knee"]["code"]
        assert set(advice["sensitivity"]) == set(ADVISOR_PARAMETERS)

    def test_front_is_non_dominated(self, rows):
        advice = ecc_advisor_analysis(rows)
        front = advice["front"]
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    b["area_mm2"] <= a["area_mm2"]
                    and b["energy_per_word_J"] <= a["energy_per_word_J"]
                    and b["latency_per_word_s"] <= a["latency_per_word_s"]
                    and b["coverage"] >= a["coverage"]
                    and (
                        b["area_mm2"] < a["area_mm2"]
                        or b["energy_per_word_J"] < a["energy_per_word_J"]
                        or b["latency_per_word_s"] < a["latency_per_word_s"]
                        or b["coverage"] > a["coverage"]
                    )
                )
                assert not dominates

    def test_one_recommendation_per_cell(self, rows):
        advice = ecc_advisor_analysis(rows)
        recs = advice["recommendations"]
        assert len(recs) == len(YIELDS) * len(SCENARIOS)
        cells = {(r["scenario"], r["cell_yield"]) for r in recs}
        assert len(cells) == len(recs)
        for rec in recs:
            assert rec["code"] in CODES

    def test_json_round_trip(self, rows):
        advice = ecc_advisor_analysis(rows)
        payload = json.loads(json.dumps({"rows": rows, "advice": advice}))
        assert payload["advice"]["knee"]["code"] == advice["knee"]["code"]

    def test_default_codes_cover_registry(self):
        from repro.testing.ecc import CODES as REGISTRY

        assert set(DEFAULT_CODES) == set(REGISTRY)
