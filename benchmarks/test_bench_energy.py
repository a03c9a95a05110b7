"""Benchmarks: the unified cost-model layer (repro.costs).

The value-aware pricing refactor moved every energy charge behind
``repro.costs`` so the same telemetry can be priced statically (the
historical constants) or by the values flowing through the datapath.
Gates:

* exact value-aware pricing costs <= 2x the static-pricing wall time on
  the CIMCore VMM hot loop (per-element pricing is a few numpy
  reductions per event, cheap enough for sweeps);
* the value-aware Pareto DSE (accuracy x energy x area x throughput) is
  bit-identical between serial and 2-worker runs — the active pricing
  spec ships through the pool initializer, and the front/knee derived
  from the rows must not depend on worker count.

Metrics land in ``BENCH_energy.json`` via
:func:`conftest.record_energy_metrics` so the pricing-overhead
trajectory is tracked across PRs.
"""

import time

import numpy as np

from conftest import print_table, record_energy_metrics

VALUE_AWARE_OVERHEAD_GATE = 2.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_value_aware_pricing_overhead(run_once):
    """The overhead gate: exact value-aware pricing must stay within 2x
    of static pricing on the VMM hot loop."""
    from repro.core.cim_core import CIMCore, CIMCoreParams
    from repro.costs import use_model
    from repro.utils import telemetry
    from repro.utils.telemetry import RunReport

    params = CIMCoreParams(rows=64, logical_cols=32)
    weights = np.random.default_rng(5).uniform(-1, 1, (64, 32))
    x = np.random.default_rng(6).uniform(0, 1, (256, 64))
    reps = 5

    def run_mode(model):
        # Fresh core and scope per mode: programming energy charges at
        # program time and the scope should isolate one pricing model.
        core = CIMCore(params, rng=7)
        with use_model(model), telemetry.scoped() as scope:
            core.program_weights(weights)
            for _ in range(reps):
                core.vmm_batch(x)
        return RunReport.from_counters(scope.counters).total_energy

    def experiment():
        # Warm-up outside the timed region (imports, allocator).
        run_mode("static")
        out = {}
        for model in ("static", "value_aware"):
            # min-of-3 to shave scheduler noise off a 1-CPU container.
            times = []
            for _ in range(3):
                energy, t = _timed(run_mode, model)
                times.append(t)
            out[model] = (energy, min(times))
        return out

    out = run_once(experiment)
    t_static = out["static"][1]
    t_exact = out["value_aware"][1]

    rows = [
        {
            "pricing": model,
            "total_energy_J": energy,
            "wall_s": t,
            "overhead_vs_static": t / t_static,
        }
        for model, (energy, t) in out.items()
    ]
    print_table(
        f"CIMCore 64x32, {reps}x vmm_batch(256) per mode (min of 3)", rows
    )
    record_energy_metrics(
        "pricing_overhead",
        {
            "rows": 64,
            "logical_cols": 32,
            "batch": 256,
            "reps": reps,
            "static_wall_s": t_static,
            "value_aware_wall_s": t_exact,
            "value_aware_overhead_vs_static": t_exact / t_static,
            "static_energy_j": out["static"][0],
            "value_aware_energy_j": out["value_aware"][0],
        },
    )

    # Pricing changes the ledger, not by accident: on uniform [0, 1)
    # inputs value-aware totals must land below the worst-case static
    # constants.
    assert out["value_aware"][0] < out["static"][0]
    assert t_exact <= VALUE_AWARE_OVERHEAD_GATE * t_static, (
        f"value-aware pricing overhead {t_exact / t_static:.2f}x exceeds "
        f"the {VALUE_AWARE_OVERHEAD_GATE}x gate"
    )


def test_pareto_dse_worker_invariant(run_once):
    """Serial and 2-worker value-aware DSE runs must produce
    bit-identical rows AND bit-identical Pareto analyses."""
    from repro.costs import use_model
    from repro.costs.pareto import pareto_front
    from repro.pipeline import explore_pipeline, pareto_analysis

    kw = dict(
        tile_counts=(4, 8),
        duplication_modes=("none",),
        batch_sizes=(16,),
        adc_bits=(4, 8),
        workload="mlp",
        micro_batch=4,
        seed=0,
    )

    def experiment():
        with use_model("value_aware"):
            serial, t_serial = _timed(explore_pipeline, workers=0, **kw)
            parallel, t_par = _timed(explore_pipeline, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    analysis_serial = pareto_analysis(serial)
    analysis_parallel = pareto_analysis(parallel)

    print_table(
        "value-aware Pareto front (accuracy x energy x area x throughput)",
        [
            {
                "tiles": r["tiles"],
                "adc_bits": r["adc_bits"],
                "accuracy": r["accuracy"],
                "energy_per_sample_J": r["energy_per_sample"],
                "area_mm2": r["area_mm2"],
                "samples_per_s": r["throughput"],
                "knee": r["knee"],
            }
            for r in analysis_serial["front"]
        ],
    )
    n_points = len(serial)
    record_energy_metrics(
        "pareto_determinism",
        {
            "grid_points": n_points,
            "feasible_points": analysis_serial["feasible_points"],
            "front_size": len(analysis_serial["front"]),
            "knee_adc_bits": analysis_serial["knee"]["adc_bits"],
            "points_per_sec_serial": n_points / t_serial,
            "points_per_sec_parallel": n_points / t_par,
            "parallel_speedup": t_serial / t_par,
            "bit_identical": serial == parallel,
        },
    )

    assert serial == parallel, "DSE rows must be worker-count invariant"
    assert analysis_serial == analysis_parallel, (
        "Pareto analysis must be worker-count invariant"
    )
    # The front is a real front: no member dominates another (re-running
    # pareto_front over the front's own rows removes nothing).
    front_rows = analysis_serial["front"]
    assert pareto_front(front_rows, analysis_serial["objectives"]) == list(
        range(len(front_rows))
    )
    assert analysis_serial["knee"] is not None
