"""Seed-reproducibility of the ported statistical sweeps.

The acceptance bar for the sweep engine: the same seed yields
bit-identical results whether a sweep runs serially (``workers=0``, the
tier-1 default) or fanned out over a process pool — for every consumer
that was ported onto it.
"""

import numpy as np
import pytest

from repro.apps.cnn import cnn_accuracy_vs_yield
from repro.apps.nn import accuracy_vs_yield
from repro.costs import use_model
from repro.faults.sweeps import endurance_capability_sweep, yield_fault_rate_sweep
from repro.pipeline.explore import explore_pipeline
from repro.testing.ecc import EccAnalysis, HammingSecDed, _mc_failure_rate_scalar
from repro.utils import telemetry
from repro.utils.telemetry import RunReport

# Small configurations: these tests check determinism, not statistics.
_NN_KW = dict(yields=(1.0, 0.8), trials=2, n_samples=120, epochs=15)
_CNN_KW = dict(yields=(1.0, 0.7), trials=2, n_samples=90, epochs=8)

#: Every ported consumer must be bit-identical across this worker ladder
#: (0 = serial reference; the pool sizes cover n_jobs < workers too).
WORKER_LADDER = (1, 2, 4)


def scoped_report(sweep, label, **kw):
    """Run ``sweep(**kw)`` inside a fresh telemetry scope; return its
    output and the counters the scope captured, as a report."""
    with telemetry.scoped() as scope:
        out = sweep(**kw)
    counters = scope.snapshot(include_timers=False)["counters"]
    return out, RunReport.from_counters(counters, label=label)


class TestAccuracyVsYield:
    def test_same_seed_identical_rows(self):
        assert accuracy_vs_yield(rng=0, **_NN_KW) == accuracy_vs_yield(
            rng=0, **_NN_KW
        )

    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_serial_vs_parallel_bit_identical(self, workers):
        serial = accuracy_vs_yield(rng=0, workers=0, **_NN_KW)
        parallel = accuracy_vs_yield(rng=0, workers=workers, **_NN_KW)
        assert serial == parallel

    def test_different_seed_differs(self):
        a = accuracy_vs_yield(rng=0, **_NN_KW)
        b = accuracy_vs_yield(rng=1, **_NN_KW)
        assert a != b


class TestCnnAccuracyVsYield:
    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_serial_vs_parallel_bit_identical(self, workers):
        serial = cnn_accuracy_vs_yield(rng=0, workers=0, **_CNN_KW)
        parallel = cnn_accuracy_vs_yield(rng=0, workers=workers, **_CNN_KW)
        assert serial == parallel

    def test_row_schema(self):
        rows = cnn_accuracy_vs_yield(rng=0, **_CNN_KW)
        assert [r["yield"] for r in rows] == list(_CNN_KW["yields"])
        for row in rows:
            assert set(row) == {
                "yield",
                "fault_rate",
                "accuracy",
                "clean_accuracy",
                "drop",
            }


class TestEccMonteCarlo:
    @pytest.fixture(scope="class")
    def analysis(self):
        return EccAnalysis(HammingSecDed(16))

    def test_same_rng_identical_rate(self, analysis):
        a = analysis.monte_carlo_failure_rate(0.02, trials=2000, rng=7)
        b = analysis.monte_carlo_failure_rate(0.02, trials=2000, rng=7)
        assert a == b

    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_serial_vs_parallel_bit_identical(self, analysis, workers):
        serial = analysis.monte_carlo_failure_rate(
            0.02, trials=2000, rng=7, workers=0
        )
        parallel = analysis.monte_carlo_failure_rate(
            0.02, trials=2000, rng=7, workers=workers
        )
        assert serial == parallel

    def test_vectorized_matches_scalar_statistics(self, analysis):
        """The vectorized path is a different (blocked) rng consumption
        order, so rates are not bit-equal to the scalar loop — but both
        estimate the same probability."""
        vec = analysis.monte_carlo_failure_rate(0.02, trials=4000, rng=0)
        scalar = _mc_failure_rate_scalar(analysis.code, 0.02, 4000, rng=0)
        analytic = analysis.word_failure_probability(0.02)
        assert vec == pytest.approx(analytic, rel=0.35)
        assert scalar == pytest.approx(analytic, rel=0.35)


class TestFaultSweeps:
    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_yield_sweep_serial_vs_parallel(self, workers):
        kw = dict(yields=(0.9, 0.7), shape=(16, 16), trials=4, rng=0)
        assert yield_fault_rate_sweep(workers=0, **kw) == yield_fault_rate_sweep(
            workers=workers, **kw
        )

    def test_yield_sweep_rates_track_yield(self):
        rows = yield_fault_rate_sweep(
            yields=(0.95, 0.7), shape=(32, 32), trials=8, rng=0
        )
        assert rows[0]["mean_rate"] == pytest.approx(0.05, abs=0.03)
        assert rows[1]["mean_rate"] == pytest.approx(0.30, abs=0.05)

    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_endurance_sweep_serial_vs_parallel(self, workers):
        kw = dict(trials=3, shape=(16, 16), rng=0)
        assert endurance_capability_sweep(
            workers=0, **kw
        ) == endurance_capability_sweep(workers=workers, **kw)

    def test_endurance_sweep_exceeds_within_horizon(self):
        out = endurance_capability_sweep(trials=4, shape=(16, 16), rng=0)
        assert out["exceeded_fraction"] == 1.0
        assert np.isfinite(out["mean_exceeded_at"])


class TestPipelineExplore:
    """The DSE consumer: point-major grid over tiles x duplication."""

    _KW = dict(
        tile_counts=(4, 8),
        duplication_modes=("none",),
        batch_sizes=(16,),
        workload="mlp",
        micro_batch=4,
        seed=0,
    )

    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_serial_vs_parallel_bit_identical(self, workers):
        serial = explore_pipeline(workers=0, **self._KW)
        parallel = explore_pipeline(workers=workers, **self._KW)
        assert serial == parallel


class TestSweepReports:
    """Telemetry capture must not break determinism: the report a caller's
    scope receives is bit-identical at any worker count, and capture
    leaves results alone."""

    def test_yield_sweep_report_serial_vs_parallel(self):
        kw = dict(yields=(0.9, 0.8), shape=(16, 16), trials=4, rng=0)
        rows0, rep0 = scoped_report(
            yield_fault_rate_sweep, "yield", workers=0, **kw
        )
        rows2, rep2 = scoped_report(
            yield_fault_rate_sweep, "yield", workers=2, **kw
        )
        assert rows0 == rows2
        assert rep0.to_json() == rep2.to_json()
        assert rep0.counters["faults.injected_cells"] > 0

    def test_capture_does_not_change_rows(self):
        kw = dict(yields=(0.9,), shape=(16, 16), trials=3, rng=0)
        plain = yield_fault_rate_sweep(**kw)
        rows, _ = scoped_report(yield_fault_rate_sweep, "yield", **kw)
        assert plain == rows

    def test_endurance_summary_carries_report(self):
        summary, report = scoped_report(
            endurance_capability_sweep,
            "endurance_capability_sweep",
            trials=2, shape=(16, 16), total_writes=1e4, step=5e3,
        )
        assert len(summary["trials"]) == 2
        report.validate()
        assert report.label == "endurance_capability_sweep"
        # Wear-out injects hard faults inside the jobs; the caller's
        # scope sees them.
        assert report.counters["faults.injected_cells"] > 0

    def test_nn_sweep_report_serial_vs_parallel(self):
        rows0, rep0 = scoped_report(
            accuracy_vs_yield, "nn", rng=0, workers=0, **_NN_KW
        )
        rows2, rep2 = scoped_report(
            accuracy_vs_yield, "nn", rng=0, workers=2, **_NN_KW
        )
        assert rows0 == rows2
        assert rep0.to_json() == rep2.to_json()
        # The captured breakdown covers the analog datapath.
        assert rep0.categories["adc"]["energy"] > 0


class TestValueAwareSweeps:
    """Value-aware pricing must survive the worker ladder bit-for-bit:
    the active spec ships through the pool initializer, and both pricing
    modes are pure functions of the charged values."""

    _KW = dict(
        tile_counts=(4, 8),
        duplication_modes=("none",),
        batch_sizes=(16,),
        adc_bits=(6, 8),
        workload="mlp",
        micro_batch=4,
        seed=0,
    )

    @pytest.mark.parametrize("workers", WORKER_LADDER)
    def test_explore_serial_vs_parallel_bit_identical(self, workers):
        with use_model("value_aware"):
            serial = explore_pipeline(workers=0, **self._KW)
            parallel = explore_pipeline(workers=workers, **self._KW)
        assert serial == parallel

    def test_value_aware_changes_energy_only(self):
        static_rows = explore_pipeline(workers=0, **self._KW)
        with use_model("value_aware"):
            va_rows = explore_pipeline(workers=0, **self._KW)
        feasible = [
            (s, v)
            for s, v in zip(static_rows, va_rows)
            if s["feasible"]
        ]
        assert feasible
        assert any(
            s["energy_per_sample"] != v["energy_per_sample"]
            for s, v in feasible
        )
        # Pricing never touches behaviour or timing.
        for s, v in feasible:
            assert s["accuracy"] == v["accuracy"]
            assert s["throughput"] == v["throughput"]
            assert s["area_mm2"] == v["area_mm2"]

    def test_nn_sweep_value_aware_report_serial_vs_parallel(self):
        with use_model("value_aware"):
            rows0, rep0 = scoped_report(
                accuracy_vs_yield, "nn", rng=0, workers=0, **_NN_KW
            )
            rows2, rep2 = scoped_report(
                accuracy_vs_yield, "nn", rng=0, workers=2, **_NN_KW
            )
        assert rows0 == rows2
        assert rep0.to_json() == rep2.to_json()
        rep0.validate()
        assert rep0.categories["adc"]["energy"] > 0
