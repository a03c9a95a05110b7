"""Tests for the in-process simulation service (dispatch, caching,
admission control, per-request reports)."""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    BadRequestError,
    QueueFullError,
    ServiceConfig,
    SimulationService,
)
from repro.serve.service import JOB_KINDS
from repro.utils.telemetry import RunReport

# Small-but-real deployment: wire_resistance > 0 puts every tile on the
# circuit-accurate IR-drop path.  Its clean reads go through each tile's
# transfer matrix (one-RHS solved rows, an einsum product), so batched
# execution is row-independent — the property that makes coalesced
# inference bit-identical.
MODEL = {
    "n_samples": 120,
    "n_features": 16,
    "n_classes": 4,
    "hidden": [8],
    "epochs": 4,
    "wire_resistance": 1.0,
}

SWEEP = {"yields": [1.0, 0.8], "trials": 1, "epochs": 4, "n_samples": 120}


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides):
    defaults = dict(max_batch=8)
    defaults.update(overrides)
    return SimulationService(ServiceConfig(**defaults))


def inputs(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 16))


def infer_request(x_row, model=MODEL):
    return {"kind": "infer", "params": {"model": model, "x": [list(x_row)]}}


class TestInfer:
    def test_concurrent_infers_coalesce_and_demux_bit_identically(self):
        async def main():
            svc = make_service()
            xs = inputs(6)
            batched = await asyncio.gather(
                *[svc.submit(infer_request(x)) for x in xs]
            )
            serial_svc = make_service(max_batch=1)
            serial = [await serial_svc.submit(infer_request(x)) for x in xs]
            return svc, batched, serial

        svc, batched, serial = run(main())
        assert svc.batcher.stats.coalesced_flushes >= 1
        assert svc.batcher.stats.flushes < len(batched)
        for b, s in zip(batched, serial):
            assert b["ok"] and s["ok"]
            # Bit-identical, not approximately equal: the cached/batched
            # serving path must never change answers.
            assert b["result"]["logits"] == s["result"]["logits"]
            assert b["result"]["prediction"] == s["result"]["prediction"]

    @pytest.mark.parametrize(
        "model",
        [{}, {"wire_resistance": 1.0}],
        ids=["model_a_ideal_wires", "model_b_ir_drop"],
    )
    def test_coalesced_logits_equal_solo_on_served_models(self, model):
        """Rows coalesced in batches of 2, 3, 5 and 16 get the logits of
        the same row served alone, on the service-default model (ideal
        wires) and on its IR-drop twin.  The IR-drop read is
        row-independent; the ideal-wire BLAS matmul is not, and its rows
        agree only because the 8-bit ADC absorbs the last-bit change."""
        sizes = (2, 3, 5, 16) * 4
        xs = np.random.default_rng(2).normal(0.0, 2.0, size=(sum(sizes), 16))

        async def main():
            svc = make_service(max_batch=16)
            solo_svc = make_service(max_batch=1)
            solo = [await solo_svc.submit(infer_request(x, model)) for x in xs]
            batched, lo = [], 0
            for size in sizes:
                batched += await asyncio.gather(
                    *[svc.submit(infer_request(x, model)) for x in xs[lo:lo + size]]
                )
                lo += size
            return svc, batched, solo

        svc, batched, solo = run(main())
        assert svc.batcher.stats.flushes == len(sizes)
        assert svc.batcher.stats.max_batch_rows == 16
        for b, s in zip(batched, solo):
            assert b["result"]["logits"] == s["result"]["logits"]

    def test_warm_infer_is_a_results_cache_hit(self):
        async def main():
            svc = make_service()
            x = inputs(1)[0]
            cold = await svc.submit(infer_request(x))
            warm = await svc.submit(infer_request(x))
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]
        assert warm["report"] == cold["report"]

    def test_model_artifact_is_reused_across_requests(self):
        async def main():
            svc = make_service()
            xs = inputs(3)
            for x in xs:
                await svc.submit(infer_request(x))
            return svc

        svc = run(main())
        stats = svc.artifacts.stats()
        assert stats["misses"] == 1       # deployed once
        assert stats["hits"] == 2         # reused twice
        assert stats["size"] == 1

    def test_per_request_report_is_conservation_valid(self):
        async def main():
            svc = make_service()
            resps = await asyncio.gather(
                *[svc.submit(infer_request(x)) for x in inputs(4)]
            )
            return resps

        for resp in run(main()):
            report = RunReport.from_dict(resp["report"])
            report.validate()
            assert report.total_energy > 0

    def test_coalesced_reports_sum_to_solo_total(self):
        """Row-share apportioning conserves cost: the coalesced requests'
        energies sum to what the same rows cost when run serially."""

        async def main():
            svc = make_service()
            xs = inputs(4, seed=3)
            batched = await asyncio.gather(
                *[svc.submit(infer_request(x)) for x in xs]
            )
            serial_svc = make_service(max_batch=1)
            serial = [await serial_svc.submit(infer_request(x)) for x in xs]
            return batched, serial

        batched, serial = run(main())
        batched_total = sum(r["report"]["totals"]["energy"] for r in batched)
        serial_total = sum(r["report"]["totals"]["energy"] for r in serial)
        assert batched_total == pytest.approx(serial_total, rel=1e-9)

    def test_malformed_infer_never_hangs_its_batch(self):
        """A too-narrow ``x`` is rejected before the batcher, so the valid
        request it would have coalesced with still answers."""

        async def main():
            svc = make_service()
            x = inputs(1, seed=5)[0]
            good, bad = await asyncio.wait_for(
                asyncio.gather(
                    svc.submit(infer_request(x)),
                    svc.submit(infer_request(x[:3])),
                    return_exceptions=True,
                ),
                10,
            )
            solo = await make_service().submit(infer_request(x))
            return svc, good, bad, solo

        svc, good, bad, solo = run(main())
        assert good["result"]["logits"] == solo["result"]["logits"]
        assert isinstance(bad, BadRequestError)
        assert bad.payload()["field"] == "x"
        assert svc.inflight == 0

    def test_nan_infer_never_poisons_its_batch(self):
        """A non-finite ``x`` is rejected before the batcher, so the valid
        requests it would have coalesced with answer exactly as solo
        runs do."""

        async def main():
            svc = make_service()
            xs = inputs(2, seed=9)
            responses = await asyncio.wait_for(
                asyncio.gather(
                    svc.submit(infer_request(xs[0])),
                    svc.submit(infer_request([float("nan")] * 16)),
                    svc.submit(infer_request(xs[1])),
                    return_exceptions=True,
                ),
                10,
            )
            solo = [await make_service().submit(infer_request(x)) for x in xs]
            return svc, responses, solo

        svc, (first, bad, second), solo = run(main())
        assert isinstance(bad, BadRequestError)
        assert bad.payload()["field"] == "x"
        for good, ref in zip((first, second), solo):
            assert good["ok"]
            assert same_bytes(good["result"], ref["result"])
        assert svc.inflight == 0

    def test_infer_input_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="requires 'x'"):
                await svc.submit({"kind": "infer", "params": {"model": MODEL}})
            with pytest.raises(BadRequestError, match="unknown infer"):
                await svc.submit(
                    {"kind": "infer", "params": {"x": [[0.1]], "bogus": 1}}
                )

        run(main())


class TestSweepAndDse:
    def test_sweep_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "sweep", "params": SWEEP})
            warm = await svc.submit({"kind": "sweep", "params": SWEEP})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        assert cold["report"] == warm["report"]
        assert cold["result"]["rows"][0]["yield"] == 1.0
        report = RunReport.from_dict(cold["report"])
        report.validate()
        assert report.total_energy > 0

    def test_nested_float_config_difference_misses(self):
        """Satellite regression: a sweep config differing only in one
        nested float must not be served from the other's entry."""
        import math

        async def main():
            svc = make_service()
            a = await svc.submit({"kind": "sweep", "params": SWEEP})
            bumped = dict(
                SWEEP, yields=[1.0, math.nextafter(0.8, 1.0)]
            )
            b = await svc.submit({"kind": "sweep", "params": bumped})
            return a, b

        a, b = run(main())
        assert a["cache"] == "miss"
        assert b["cache"] == "miss"  # NOT a hit despite ulp-level diff

    def test_dse_runs_and_caches(self):
        async def main():
            svc = make_service()
            params = {
                "tile_counts": [4, 8],
                "duplication_modes": ["none"],
                "batch_sizes": [16],
            }
            cold = await svc.submit({"kind": "dse", "params": params})
            warm = await svc.submit({"kind": "dse", "params": params})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert len(cold["result"]["rows"]) == 2
        assert cold["result"] == warm["result"]
        RunReport.from_dict(cold["report"]).validate()

    def test_unknown_sweep_param_rejected(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown sweep"):
                await svc.submit(
                    {"kind": "sweep", "params": {"trails": 3}}  # typo
                )

        run(main())

    def test_dse_response_carries_pareto_analysis(self):
        async def main():
            svc = make_service()
            return await svc.submit(
                {
                    "kind": "dse",
                    "params": {
                        "tile_counts": [8],
                        "duplication_modes": ["none"],
                        "batch_sizes": [16],
                        "adc_bits": [4, 8],
                    },
                }
            )

        response = run(main())
        pareto = response["result"]["pareto"]
        assert pareto["objectives"] == [
            "accuracy", "energy", "area", "throughput",
        ]
        assert 1 <= len(pareto["front"]) <= pareto["feasible_points"]
        assert pareto["knee"] is not None
        assert set(pareto["sensitivity"]) == {
            "tiles", "duplication", "batch", "adc_bits",
        }
        # Front rows flag the knee so clients need no re-derivation.
        assert sum(1 for r in pareto["front"] if r["knee"]) == 1

    def test_bad_dse_objectives_rejected(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="objectives"):
                await svc.submit(
                    {"kind": "dse", "params": {"objectives": ["latency"]}}
                )

        run(main())


class TestParamTypes:
    """A value of the wrong type is a bad request naming its field, not
    an ``internal`` error raised from inside the run."""

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("attention", {"seqs": 5}, "seqs"),
            ("dse", {"tile_counts": 4}, "tile_counts"),
            ("sweep", {"yields": 0.9}, "yields"),
            ("pipeline", {"batch": "x"}, "batch"),
            ("pipeline", {"tiles": True}, "tiles"),
            ("pipeline", {"tiles": 8.0}, "tiles"),
            ("train", {"lives": ["a"]}, "lives"),
            ("ecc", {"codes": "secded"}, "codes"),
            ("ecc", {"scenarios": None}, "scenarios"),
            ("infer", {"x": [[0.5] * 16], "model": {"hidden": 12}}, "hidden"),
            ("infer", {"x": [[0.5] * 16], "noisy": "no"}, "noisy"),
            ("infer", {"x": "abc"}, "x"),
            ("infer", {"x": [["a"] * 16]}, "x"),
            ("infer", {"x": [[0.5] * 3]}, "x"),
            ("infer", {"x": [[[0.5] * 16]]}, "x"),
            ("faults", {"cell_yield": "0.5"}, "cell_yield"),
            ("faults", {"seed": 1.7}, "seed"),
            ("pipeline", {"workload": "rnn"}, "workload"),
            ("dse", {"objectives": ["latency"]}, "objectives"),
            *((kind, {"workers": "2"}, "workers") for kind in JOB_KINDS),
            ("sweep", {"workers": 2.0}, "workers"),
            ("ecc", {"workers": True}, "workers"),
        ],
    )
    def test_wrong_type_names_the_field(self, kind, params, field):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match=repr(field)) as info:
                await svc.submit({"kind": kind, "params": params})
            return info.value

        assert run(main()).payload()["field"] == field

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("train", {"drift_nus": [float("nan")]}, "drift_nus"),
            ("train", {"drift_nus": [0.0, float("inf")]}, "drift_nus"),
            ("train", {"write_sigma": float("nan")}, "write_sigma"),
            ("train", {"write_sigma": float("inf")}, "write_sigma"),
            ("train", {"lives": [float("inf")]}, "lives"),
            ("sweep", {"separation": float("-inf")}, "separation"),
            ("ecc", {"yields": [float("nan")]}, "yields"),
            ("faults", {"cell_yield": float("nan")}, "cell_yield"),
            ("infer", {"x": [[0.5] * 16],
                       "model": {"separation": float("nan")}}, "separation"),
        ],
    )
    def test_non_finite_floats_name_the_field(self, kind, params, field):
        """JSON admits NaN and Infinity; no float parameter accepts them
        (a response carrying one would not be strict JSON)."""
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="must be finite") as info:
                await svc.submit({"kind": kind, "params": params})
            return info.value

        assert run(main()).payload()["field"] == field

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("pipeline", {"tiles": 0}),
            ("sweep", {"trials": 0}),
            ("faults", {"cell_yield": "x"}),
            ("infer", {"x": [[0.5] * 16], "model": 5}),
            ("faults", {"cell_yield": 0.0}),
            ("infer", {"x": [[0.5] * 16, [0.5] * 15]}),
            ("dse", {"workload": "rnn"}),
            ("sweep", {"yields": [1.5]}),
            ("sweep", {"yields": [-0.5]}),
            ("ecc", {"words_per_array": 0}),
            # BCH (a default code) has no GF(2^m) table this wide.
            ("ecc", {"data_bits": 1024}),
        ],
    )
    def test_bad_values_are_bad_requests(self, kind, params):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError):
                await svc.submit({"kind": kind, "params": params})

        run(main())

    def test_wide_ecc_words_are_served(self):
        # 1036-bit codewords have binomial coefficients beyond float
        # range; the analytic tail used to raise OverflowError (internal).
        params = {"codes": ["secded", "secdaec"], "data_bits": 1024,
                  "yields": [0.9999], "scenarios": ["read_heavy"],
                  "mc_words": 64, "trials": 1}

        async def main():
            return await make_service().submit({"kind": "ecc", "params": params})

        rows = run(main())["result"]["rows"]
        assert [row["codeword_bits"] for row in rows] == [1036, 1036]
        for row in rows:
            assert 0.0 < row["analytic_word_failure"] < 1.0

    @pytest.mark.parametrize(
        "kind, model",
        [
            ("infer", {"wire_resistance": -1.0}),
            ("infer", {"hidden": [0]}),
            ("infer", {"n_samples": 0}),
            ("infer", {"adc_bits": 0}),
            ("faults", {"epochs": -1}),
        ],
    )
    def test_unbuildable_models_are_bad_requests(self, kind, model):
        """A model the library refuses to build used to escape ``submit``
        as a bare ``ValueError`` (an ``internal`` error on the wire)."""
        params = {"model": model}
        if kind == "infer":
            params["x"] = [[0.5] * 16]

        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="bad model") as info:
                await svc.submit({"kind": kind, "params": params})
            # Nothing half-built is cached, and the service still serves.
            assert svc.artifacts.stats()["size"] == 0
            ok = await svc.submit(infer_request(inputs(1)[0]))
            return info.value.payload(), ok

        payload, ok = run(main())
        assert payload["code"] == "bad_request"
        assert payload["field"] == "model"
        assert ok["ok"] is True

    def test_int_accepted_where_default_is_float(self):
        from repro.serve.service import SWEEP_DEFAULTS, _normalize

        cfg = _normalize({"yields": [1, 0.5], "separation": 2}, SWEEP_DEFAULTS, "sweep")
        # Checked, not coerced: the fingerprint sees the value as sent.
        assert cfg["yields"] == [1, 0.5] and isinstance(cfg["separation"], int)


class TestEnergyModelCacheKeys:
    """Static and value-aware runs of the same config must never share
    a warm cache hit: the parsed spec is part of every result key."""

    DSE = {
        "tile_counts": [8],
        "duplication_modes": ["none"],
        "batch_sizes": [16],
    }

    def test_dse_energy_model_forks_the_cache_key(self):
        async def main():
            svc = make_service()
            static = await svc.submit({"kind": "dse", "params": dict(self.DSE)})
            aware = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(self.DSE, energy_model="value_aware"),
                }
            )
            aware_warm = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(self.DSE, energy_model="value_aware"),
                }
            )
            return static, aware, aware_warm

        static, aware, aware_warm = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"  # never a hit off the static entry
        assert aware_warm["cache"] == "hit"
        assert aware_warm["result"] == aware["result"]
        energies = [
            r["result"]["rows"][0]["energy_per_sample"]
            for r in (static, aware)
        ]
        assert energies[0] != energies[1]

    def test_equivalent_energy_model_spellings_share_a_key(self):
        async def main():
            svc = make_service()
            by_name = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(self.DSE, energy_model="value_aware"),
                }
            )
            by_dict = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(
                        self.DSE, energy_model={"name": "value_aware"}
                    ),
                }
            )
            return by_name, by_dict

        by_name, by_dict = run(main())
        assert by_name["cache"] == "miss"
        assert by_dict["cache"] == "hit"  # canonicalized spec, same key

    def test_infer_energy_model_forks_key_but_not_answers(self):
        async def main():
            svc = make_service()
            x = inputs(1)[0]
            static = await svc.submit(infer_request(x))
            aware = await svc.submit(
                {
                    "kind": "infer",
                    "params": {
                        "model": MODEL,
                        "x": [list(x)],
                        "energy_model": "value_aware",
                    },
                }
            )
            return static, aware

        static, aware = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"  # not served from the static entry
        # Pricing must never change behaviour, only the energy ledger.
        assert static["result"]["logits"] == aware["result"]["logits"]
        s_rep = RunReport.from_dict(static["report"])
        a_rep = RunReport.from_dict(aware["report"])
        a_rep.validate()
        assert a_rep.total_energy != s_rep.total_energy

    def test_pipeline_energy_model_forks_the_cache_key(self):
        async def main():
            svc = make_service()
            params = {"tiles": 8, "batch": 16}
            static = await svc.submit({"kind": "pipeline", "params": params})
            aware = await svc.submit(
                {
                    "kind": "pipeline",
                    "params": dict(params, energy_model="value_aware"),
                }
            )
            return static, aware

        static, aware = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"

    @pytest.mark.parametrize(
        "energy_model",
        (
            "quantum",
            "value_aware_statistical",
            {"name": "value_aware", "statistical": True},
        ),
        ids=("quantum", "value_aware_statistical", "statistical_field"),
    )
    def test_bad_energy_model_rejected(self, energy_model):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="energy_model"):
                await svc.submit(
                    {
                        "kind": "dse",
                        "params": dict(self.DSE, energy_model=energy_model),
                    }
                )

        run(main())


class TestPipeline:
    def test_pipeline_reuses_graph_and_allocation_artifacts(self):
        async def main():
            svc = make_service()
            base = {"workload": "cnn", "tiles": 8, "batch": 16}
            first = await svc.submit({"kind": "pipeline", "params": base})
            other_tiles = await svc.submit(
                {"kind": "pipeline", "params": {**base, "tiles": 12}}
            )
            warm = await svc.submit({"kind": "pipeline", "params": base})
            return first, other_tiles, warm

        first, other_tiles, warm = run(main())
        assert first["result"]["artifact_hits"] == {
            "graph": False,
            "alloc": False,
        }
        # Same workload, different tile budget: the traced graph is
        # reused, the allocation is not.
        assert other_tiles["result"]["artifact_hits"] == {
            "graph": True,
            "alloc": False,
        }
        assert warm["cache"] == "hit"
        assert warm["result"] == first["result"]
        assert first["result"]["throughput"] > 0
        RunReport.from_dict(first["report"]).validate()


class TestFaultsAndInvalidation:
    def test_fault_injection_invalidates_stale_results(self):
        """Satellite regression: after mutating a deployed model, the
        service must not serve pre-mutation cached results or reuse the
        stale deployment for new inference."""

        async def main():
            svc = make_service()
            x = inputs(1, seed=7)[0]
            before = await svc.submit(infer_request(x))
            faults = await svc.submit(
                {
                    "kind": "faults",
                    "params": {"model": MODEL, "cell_yield": 0.8, "seed": 3},
                }
            )
            after = await svc.submit(infer_request(x))
            return before, faults, after

        before, faults, after = run(main())
        assert before["cache"] == "miss"
        assert faults["ok"] and faults["result"]["fault_rate"] > 0
        assert faults["result"]["invalidated_results"] >= 1
        # The old result was swept out: this is a recompute, not a hit.
        assert after["cache"] == "miss"
        # And it ran on the faulted deployment, not a stale artifact.
        assert after["result"]["logits"] != before["result"]["logits"]
        assert (
            after["result"]["model_version"]
            == before["result"]["model_version"] + 1
        )

    def test_fault_injection_invalidates_lu_factorizations(self):
        """The deployed tiles' LU caches must be flushed on fault
        injection — conductances changed, factorizations are stale."""

        async def main():
            svc = make_service()
            x = inputs(1, seed=8)[0]
            await svc.submit(infer_request(x))
            artifact, hit = svc.model_artifact(MODEL)
            assert hit
            tiles = [
                core
                for stage in artifact.deployed.stages
                for row in stage.replicas[0].tiles
                for core in row
            ]
            cached_before = sum(t._ir_solver.cache_len for t in tiles)
            await svc.submit(
                {
                    "kind": "faults",
                    "params": {"model": MODEL, "cell_yield": 0.8, "seed": 3},
                }
            )
            cached_after = sum(t._ir_solver.cache_len for t in tiles)
            return cached_before, cached_after

        cached_before, cached_after = run(main())
        assert cached_before > 0
        assert cached_after == 0

    def test_invalidate_model_drops_artifact_and_results(self):
        async def main():
            svc = make_service()
            x = inputs(1, seed=9)[0]
            await svc.submit(infer_request(x))
            dropped = svc.invalidate_model(MODEL)
            after = await svc.submit(infer_request(x))
            return dropped, after

        dropped, after = run(main())
        assert dropped == {"artifacts": 1, "results": 1}
        assert after["cache"] == "miss"  # redeployed and recomputed

    def test_faults_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="cell_yield"):
                await svc.submit(
                    {"kind": "faults", "params": {"cell_yield": 1.5}}
                )

        run(main())


ECC = {
    "codes": ["secded", "bch"],
    "yields": [0.999, 0.99],
    "mc_words": 256,
    "trials": 1,
}


class TestEcc:
    def test_ecc_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "ecc", "params": ECC})
            warm = await svc.submit({"kind": "ecc", "params": ECC})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        assert cold["report"] == warm["report"]
        rows = cold["result"]["rows"]
        assert len(rows) == 2 * 2 * 3  # codes x yields x scenarios
        advice = cold["result"]["advice"]
        assert advice["front"]
        assert advice["knee"]["code"] in ("secded", "bch")
        assert advice["recommendations"]
        report = RunReport.from_dict(cold["report"])
        report.validate()
        assert report.total_energy > 0

    def test_ecc_energy_model_forks_the_cache_key(self):
        async def main():
            svc = make_service()
            static = await svc.submit({"kind": "ecc", "params": ECC})
            aware = await svc.submit(
                {
                    "kind": "ecc",
                    "params": {**ECC, "energy_model": "value_aware"},
                }
            )
            return static, aware

        static, aware = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"  # never shares the static entry
        # Pricing changes costs, never statistics.
        for s, a in zip(static["result"]["rows"], aware["result"]["rows"]):
            assert a["coverage"] == s["coverage"]
            assert a["energy_per_word_J"] <= s["energy_per_word_J"]

    def test_ecc_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown ecc"):
                await svc.submit(
                    {"kind": "ecc", "params": {"codez": ["secded"]}}
                )
            with pytest.raises(BadRequestError, match="bad ecc request"):
                await svc.submit(
                    {"kind": "ecc", "params": {**ECC, "codes": ["rs255"]}}
                )

        run(main())


ATTENTION = {
    "seqs": [4],
    "d_heads": [4],
    "micro_batches": [2],
    "d_model": 8,
    "batch": 8,
}

TRAIN = {"lives": [8.0], "drift_nus": [0.01], "epochs": 2}


class TestWorkloadKinds:
    def test_attention_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "attention", "params": ATTENTION})
            warm = await svc.submit({"kind": "attention", "params": ATTENTION})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        rows = cold["result"]["rows"]
        assert rows[0]["feasible"] is True
        assert rows[0]["bit_identical"] is True
        RunReport.from_dict(cold["report"]).validate()

    def test_train_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "train", "params": TRAIN})
            warm = await svc.submit({"kind": "train", "params": TRAIN})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        rows = cold["result"]["rows"]
        assert rows[0]["total_pulses"] > 0
        report = RunReport.from_dict(cold["report"])
        report.validate()
        assert report.total_energy > 0  # programming energy was charged

    def test_workload_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown attention"):
                await svc.submit(
                    {"kind": "attention", "params": {"seqz": [4]}}
                )
            # The update backend is a library test oracle, not a serve knob.
            with pytest.raises(BadRequestError, match="unknown train"):
                await svc.submit(
                    {"kind": "train", "params": {**TRAIN, "backend": "tpu"}}
                )

        run(main())


#: One small request per job kind, for the checks that cover every kind.
SMALL = {
    "sweep": SWEEP,
    "dse": {
        "tile_counts": [4, 8],
        "duplication_modes": ["none"],
        "batch_sizes": [16],
    },
    "pipeline": {"batch": 16},
    "ecc": ECC,
    "attention": ATTENTION,
    "train": TRAIN,
}

#: A different request of the same kind.  The pipeline one keeps the
#: seed and changes only the batch, so it reuses the cached allocation.
NEIGHBOUR = {kind: {**params, "seed": 1} for kind, params in SMALL.items()}
NEIGHBOUR["pipeline"] = {"batch": 32}


def same_bytes(a, b):
    return json.dumps(a) == json.dumps(b)


class TestEveryJobKind:
    """Serving guarantees checked uniformly across every compute kind."""

    @pytest.mark.parametrize("kind", sorted(JOB_KINDS))
    def test_workers_stays_out_of_the_cache_key(self, kind):
        """Worker count never changes a served result or report, so it
        must not fork a cache entry: a parallel cold run answers a serial
        warm request, and both match a serial run on a fresh service."""

        def submit(svc, workers):
            params = {**SMALL[kind], "workers": workers}
            return svc.submit({"kind": kind, "params": params})

        async def main():
            svc = make_service()
            cold = await submit(svc, 2)
            warm = await submit(svc, 0)
            serial = await submit(make_service(), 0)
            return cold, warm, serial

        cold, warm, serial = run(main())
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]
        for response in (cold, warm):
            assert same_bytes(response["result"], serial["result"])
            assert same_bytes(response["report"], serial["report"])
        RunReport.from_dict(serial["report"]).validate()
        assert serial["report"]["totals"]["energy"] > 0

    @pytest.mark.parametrize("kind", sorted(JOB_KINDS))
    def test_energy_model_forks_the_cache_key(self, kind):
        """The parsed energy-model spec is part of every result key: a
        value-aware run is never served a static entry, and a repeated
        value-aware run is a hit on its own entry."""

        def submit(svc, energy_model):
            params = {**SMALL[kind], "energy_model": energy_model}
            return svc.submit({"kind": kind, "params": params})

        async def main():
            svc = make_service()
            static = await submit(svc, "static")
            aware = await submit(svc, "value_aware")
            again = await submit(svc, "value_aware")
            return static, aware, again

        static, aware, again = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"
        assert again["cache"] == "hit"
        assert again["result"] == aware["result"]

    @pytest.mark.parametrize("kind", sorted(JOB_KINDS))
    def test_result_is_independent_of_server_history(self, kind):
        """A served run is priced into per-run accumulators, so serving
        it after an infer, a fault injection, every other kind and a
        neighbouring request of its own kind changes nothing — except a
        pipeline's ``artifact_hits``, which records the reused cached
        allocation."""
        request = {"kind": kind, "params": SMALL[kind]}

        async def fresh():
            return await make_service().submit(request)

        async def after_history():
            svc = make_service()
            await svc.submit(infer_request(inputs(1)[0]))
            await svc.submit(
                {
                    "kind": "faults",
                    "params": {"model": MODEL, "cell_yield": 0.8, "seed": 3},
                }
            )
            for other in sorted(JOB_KINDS):
                if other != kind:
                    await svc.submit({"kind": other, "params": SMALL[other]})
            await svc.submit({"kind": kind, "params": NEIGHBOUR[kind]})
            return await svc.submit(request)

        clean, reused = run(fresh()), run(after_history())
        assert reused["cache"] == "miss"
        if kind == "pipeline":
            assert reused["result"].pop("artifact_hits")["alloc"] is True
            assert clean["result"].pop("artifact_hits")["alloc"] is False
        assert same_bytes(reused["result"], clean["result"])
        assert same_bytes(reused["report"], clean["report"])


#: One small request per computing kind: every job kind plus ``infer``
#: and ``faults``.
COMPUTING = {
    **{kind: {**params, "workers": 0} for kind, params in SMALL.items()},
    "infer": {"model": MODEL, "x": [list(inputs(1)[0])]},
    "faults": {"model": MODEL, "cell_yield": 0.8, "seed": 3},
}


class TestLedgerClosure:
    """A served report holds exactly what its job booked: per category,
    its energy, latency and data moved equal the sums of the
    ``EnergyModel._book`` calls made while the job ran."""

    @pytest.mark.parametrize("kind", sorted(COMPUTING))
    def test_report_equals_booked_charges(self, kind, booked):
        async def main():
            svc = make_service()
            # Build the cached artifacts first (the deployed model, and the
            # pipeline's allocation through a neighbouring request): their
            # programming belongs to no one request.
            svc.model_artifact(MODEL)
            await svc.submit({"kind": "pipeline", "params": NEIGHBOUR["pipeline"]})
            booked.clear()
            return await svc.submit({"kind": kind, "params": COMPUTING[kind]})

        report = RunReport.from_dict(run(main())["report"])
        sums = {}
        for category, *charge in booked:
            entry = sums.setdefault(category, [0.0, 0.0, 0.0])
            for i, value in enumerate(charge):
                entry[i] += value
        assert set(report.categories) == set(sums)
        for category, expected in sums.items():
            got = report.categories[category]
            for field, value in zip(("energy", "latency", "data_moved"), expected):
                assert got[field] == pytest.approx(value, rel=1e-15, abs=0), (
                    category, field
                )


class TestAdmissionControl:
    def test_queue_full_is_a_structured_rejection(self):
        async def main():
            svc = make_service(max_inflight=2, max_batch=100)
            xs = inputs(3, seed=11)
            parked = [
                asyncio.ensure_future(svc.submit(infer_request(x)))
                for x in xs[:2]
            ]

            async def third():
                # Same loop turn as the two parked submits, before their
                # next-turn flush: both still hold an in-flight slot.
                assert svc.inflight == 2
                with pytest.raises(QueueFullError) as excinfo:
                    await svc.submit(infer_request(xs[2]))
                svc.batcher.flush_all()
                return excinfo.value.payload()

            payload = await asyncio.ensure_future(third())
            done = await asyncio.gather(*parked)
            return svc, payload, done

        svc, payload, done = run(main())
        assert payload["code"] == "queue_full"
        assert payload["inflight"] == 2
        assert payload["limit"] == 2
        assert all(r["ok"] for r in done)
        assert svc.requests_rejected == 1
        assert svc.inflight == 0

    def test_rejected_requests_free_no_slots(self):
        async def main():
            svc = make_service(max_inflight=1)
            await svc.submit({"kind": "stats"})
            return svc

        svc = run(main())
        assert svc.inflight == 0
        assert svc.requests_completed == 1


class TestStatsAndLifetime:
    def test_lifetime_report_merges_computed_requests_only(self):
        async def main():
            svc = make_service()
            x = inputs(1, seed=13)[0]
            cold = await svc.submit(infer_request(x))
            await svc.submit(infer_request(x))  # warm hit: no new work
            stats = await svc.submit({"kind": "stats"})
            return cold, stats

        cold, stats = run(main())
        lifetime = RunReport.from_dict(stats["report"])
        lifetime.validate()
        # One computed infer -> lifetime total equals that one request.
        assert lifetime.total_energy == pytest.approx(
            cold["report"]["totals"]["energy"]
        )
        result = stats["result"]
        assert result["requests_by_kind"]["infer"] == 2
        assert result["results_cache"]["request_hits"] == 1
        assert result["batcher"]["requests"] == 1

    def test_bad_kind_and_shape_rejections(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown request kind"):
                await svc.submit({"kind": "noop"})
            with pytest.raises(BadRequestError, match="JSON object"):
                await svc.submit([1, 2, 3])
            with pytest.raises(BadRequestError, match="params"):
                await svc.submit({"kind": "stats", "params": [1]})

        run(main())
