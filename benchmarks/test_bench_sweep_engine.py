"""Benchmarks: the parallel, deterministic Monte Carlo sweep engine.

Measures trials/sec of the statistical layer's three backends — serial
scalar, chunked-vectorized, and process-parallel — on the two hottest
consumers (ECC failure-rate Monte Carlo and the accuracy-vs-yield grid),
gates the speedup at >= 3x, and proves identical-seed runs are
bit-identical at any worker count.  Results are also written to
``BENCH_sweep.json`` (via :func:`conftest.record_sweep_metrics`) so the
perf trajectory is tracked across PRs.

Parallel-scaling gates (multi-core hosts only; single-core runners
record the numbers but skip the throughput assertions — time-slicing two
processes on one core cannot beat serial):

* the persistent-pool engine itself must scale on a CPU-bound grid
  (``>= PARALLEL_SCALING_GATE`` with 2 workers), and
* ``accuracy_vs_yield`` parallel must be at least as fast as serial
  (``>= YIELD_PARALLEL_GATE``) — the regression this file once recorded
  silently (``speedup_parallel: 0.78``, per-chunk pickling of the full
  model state) can no longer land quietly.
"""

import os
import time

import numpy as np
import pytest

from conftest import print_table, record_sweep_metrics

SPEEDUP_GATE = 3.0
#: Engine scaling on a CPU-bound synthetic grid, 2 workers on >= 2 cores.
PARALLEL_SCALING_GATE = 1.3
#: accuracy_vs_yield parallel vs serial on >= 2 cores (serial includes the
#: one-off training prologue, so this is a floor, not the 2x ideal).
YIELD_PARALLEL_GATE = 1.0

_MULTICORE = (os.cpu_count() or 1) >= 2


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _busy_point(point, trial, rng, size):
    """CPU-bound grid job: repeated small matmuls, no shared state."""
    a = rng.random((size, size))
    acc = 0.0
    for _ in range(6):
        a = a @ a
        a /= np.abs(a).max() + 1.0
        acc += float(a.sum())
    return acc


def test_engine_parallel_scaling(run_once):
    """The persistent-pool engine on a purely CPU-bound grid: with the
    per-chunk payload reduced to ``(lo, hi)`` descriptors, 2 workers on a
    multi-core host must actually beat serial.  Skipped on single-core
    runners (gated in CI by the 2-core scaling smoke step)."""
    from repro.utils.parallel import run_grid

    # ~400 ms of serial matmul work: large enough that the ~30 ms pool
    # startup cannot mask real scaling on a 2-core runner.
    kw = dict(points=list(range(8)), trials=2, seed=0, task_args=(400,))

    def experiment():
        serial, t_serial = _timed(run_grid, _busy_point, workers=0, **kw)
        parallel, t_par = _timed(run_grid, _busy_point, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    speedup = t_serial / t_par
    print_table(
        "engine scaling (16 CPU-bound grid jobs)",
        [
            {"backend": "serial (workers=0)", "seconds": t_serial},
            {"backend": "parallel (workers=2)", "seconds": t_par},
            {"backend": "speedup", "seconds": speedup},
        ],
    )
    record_sweep_metrics(
        "engine_scaling",
        {
            "grid_jobs": 16,
            "cpu_count": os.cpu_count(),
            "speedup_parallel": speedup,
        },
    )
    assert serial == parallel, "identical seed must be worker-count invariant"
    if not _MULTICORE:
        pytest.skip("single-core host: parallel throughput gate not meaningful")
    assert speedup >= PARALLEL_SCALING_GATE, (
        f"persistent-pool engine speedup {speedup:.2f}x below the "
        f"{PARALLEL_SCALING_GATE}x scaling gate on {os.cpu_count()} cores"
    )


def test_ecc_monte_carlo_backends(run_once):
    """Vectorized/parallel ECC Monte Carlo vs the scalar serial loop.

    The scalar word-at-a-time encode/flip/decode loop is the PR-1-era
    baseline; the block codec turns it into column reductions.  Gate:
    the best non-scalar backend is >= 3x the baseline throughput.
    """
    from repro.testing.ecc import (
        EccAnalysis,
        HammingSecDed,
        _mc_failure_rate_scalar,
    )

    analysis = EccAnalysis(HammingSecDed(64))
    ber, trials = 0.01, 4000

    def experiment():
        scalar, t_scalar = _timed(
            _mc_failure_rate_scalar, analysis.code, ber, trials, rng=0
        )
        vec, t_vec = _timed(
            analysis.monte_carlo_failure_rate,
            ber,
            trials=trials,
            rng=0,
            workers=0,
        )
        par, t_par = _timed(
            analysis.monte_carlo_failure_rate,
            ber,
            trials=trials,
            rng=0,
            workers=2,
        )
        return scalar, vec, par, t_scalar, t_vec, t_par

    scalar, vec, par, t_scalar, t_vec, t_par = run_once(experiment)

    rows = [
        {
            "backend": "serial scalar",
            "seconds": t_scalar,
            "trials_per_sec": trials / t_scalar,
            "failure_rate": scalar,
        },
        {
            "backend": "vectorized (workers=0)",
            "seconds": t_vec,
            "trials_per_sec": trials / t_vec,
            "failure_rate": vec,
        },
        {
            "backend": "parallel (workers=2)",
            "seconds": t_par,
            "trials_per_sec": trials / t_par,
            "failure_rate": par,
        },
    ]
    print_table("ECC Monte Carlo backends (72,64 SEC-DED)", rows)
    record_sweep_metrics(
        "ecc_monte_carlo",
        {
            "trials": trials,
            "ber": ber,
            "trials_per_sec_serial": trials / t_scalar,
            "trials_per_sec_vectorized": trials / t_vec,
            "trials_per_sec_parallel": trials / t_par,
            "speedup_vectorized": t_scalar / t_vec,
            "speedup_parallel": t_scalar / t_par,
        },
    )

    # Determinism: same seed, any worker count -> bit-identical rate.
    assert vec == par
    # Perf gate: best engine backend >= 3x the serial scalar baseline.
    best = max(t_scalar / t_vec, t_scalar / t_par)
    assert best >= SPEEDUP_GATE, (
        f"sweep engine speedup {best:.1f}x below the {SPEEDUP_GATE}x gate"
    )


def test_yield_sweep_backends(run_once):
    """Accuracy-vs-yield: batched-serial vs process-parallel grid, with
    the analytic per-trial work batched through forward_batch either way.

    On multi-core hosts the parallel row shows the fan-out win; on
    single-core CI it documents the (bounded) process overhead.  Either
    way the rows must be bit-identical — that is the gate here, the
    throughput gate lives on the ECC benchmark above.
    """
    from repro.apps.nn import accuracy_vs_yield

    # 24 grid jobs: enough sweep work to amortize the serial training
    # prologue and the pool startup when measuring parallel scaling.
    kw = dict(
        yields=(1.0, 0.9, 0.8, 0.6),
        n_samples=240,
        trials=6,
        epochs=30,
        rng=0,
    )

    def experiment():
        serial, t_serial = _timed(accuracy_vs_yield, workers=0, **kw)
        parallel, t_par = _timed(accuracy_vs_yield, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    n_jobs = len(kw["yields"]) * kw["trials"]

    print_table(
        "accuracy_vs_yield grid (12 deployments)",
        [
            {
                "backend": "serial (workers=0)",
                "seconds": t_serial,
                "trials_per_sec": n_jobs / t_serial,
            },
            {
                "backend": "parallel (workers=2)",
                "seconds": t_par,
                "trials_per_sec": n_jobs / t_par,
            },
        ],
    )
    record_sweep_metrics(
        "accuracy_vs_yield",
        {
            "grid_jobs": n_jobs,
            "cpu_count": os.cpu_count(),
            "trials_per_sec_serial": n_jobs / t_serial,
            "trials_per_sec_parallel": n_jobs / t_par,
            "speedup_parallel": t_serial / t_par,
        },
    )
    assert serial == parallel, "identical seed must be worker-count invariant"
    accs = [row["accuracy"] for row in serial]
    assert accs[-1] < accs[0], "yield sweep lost its degradation shape"
    # The explicit anti-regression gate: on a multi-core host the parallel
    # grid must never lose to serial again (0.78x went unflagged once).
    if _MULTICORE:
        assert t_serial / t_par >= YIELD_PARALLEL_GATE, (
            f"accuracy_vs_yield parallel speedup {t_serial / t_par:.2f}x "
            f"fell below serial on {os.cpu_count()} cores — job payload "
            f"regression?"
        )


def test_device_hot_kernels(run_once):
    """The single-core hot loops the sweeps spend their time in: memristor
    ODE stepping (pulse + I-V sweep) and the ReRAM write-verify iteration,
    fast path vs the private stepped reference.  Bit-equality is pinned
    in tier-1; here the fast paths must clear >= 2x."""
    from repro.devices.memristor import LinearIonDriftMemristor, VTEAMMemristor
    from repro.devices.reram import ReRAMCell
    from repro.devices.variability import (
        DriftModel,
        ReadNoiseModel,
        VariabilityStack,
        WriteVariationModel,
    )

    def _cell(seed):
        cell = ReRAMCell(
            variability=VariabilityStack(
                write=WriteVariationModel(sigma=0.15),
                read=ReadNoiseModel(sigma=0.0),
                drift=DriftModel(nu=0.0),
            ),
            rng=seed,
        )
        cell.form()
        return cell

    def experiment():
        _, t_sweep_scalar = _timed(
            lambda: LinearIonDriftMemristor(x0=0.3)._sweep_stepped(
                1.5, 50.0, cycles=2, points_per_cycle=2000
            )
        )
        _, t_sweep_fast = _timed(
            lambda: LinearIonDriftMemristor(x0=0.3).sweep(
                1.5, 50.0, cycles=2, points_per_cycle=2000
            )
        )
        _, t_pulse_scalar = _timed(
            lambda: VTEAMMemristor(x0=0.1)._apply_voltage_stepped(
                1.2, duration=0.02, dt=1e-6
            )
        )
        _, t_pulse_fast = _timed(
            lambda: VTEAMMemristor(x0=0.1).apply_voltage(
                1.2, duration=0.02, dt=1e-6
            )
        )
        # Cell construction is identical overhead on both paths — build
        # the fleets outside the timed region so the gate measures the
        # write-verify loop itself.
        scalar_cells = [_cell(s) for s in range(300)]
        fast_cells = [_cell(s) for s in range(300)]
        _, t_wv_scalar = _timed(
            lambda: [
                c._program_with_verify_stepped(1, max_iterations=20)
                for c in scalar_cells
            ]
        )
        _, t_wv_fast = _timed(
            lambda: [
                c.program_with_verify(1, max_iterations=20)
                for c in fast_cells
            ]
        )
        return (
            t_sweep_scalar, t_sweep_fast, t_pulse_scalar, t_pulse_fast,
            t_wv_scalar, t_wv_fast,
        )

    (t_ss, t_sf, t_ps, t_pf, t_ws, t_wf) = run_once(experiment)
    rows = [
        {"kernel": "memristor I-V sweep (4000 steps)",
         "scalar_s": t_ss, "fast_s": t_sf, "speedup": t_ss / t_sf},
        {"kernel": "VTEAM pulse (20k steps)",
         "scalar_s": t_ps, "fast_s": t_pf, "speedup": t_ps / t_pf},
        {"kernel": "write-verify (300 cells)",
         "scalar_s": t_ws, "fast_s": t_wf, "speedup": t_ws / t_wf},
    ]
    print_table("device hot kernels: fast vs scalar reference", rows)
    record_sweep_metrics(
        "device_kernels",
        {
            "speedup_memristor_sweep": t_ss / t_sf,
            "speedup_vteam_pulse": t_ps / t_pf,
            "speedup_write_verify": t_ws / t_wf,
        },
    )
    assert t_ss / t_sf >= 2.0, "memristor sweep fast kernel below 2x"
    assert t_ps / t_pf >= 2.0, "VTEAM pulse fast kernel below 2x"
    assert t_ws / t_wf >= 1.2, "write-verify fast path below 1.2x"


def test_bnn_engine_vectorized(run_once):
    """The satellite XNOR-popcount vectorization: numpy equality path vs
    the switch-level cell walk."""
    from repro.ferfet.bnn_engine import XnorPopcountEngine

    rng = np.random.default_rng(0)
    engine = XnorPopcountEngine(rng.choice([-1, 1], size=(64, 16)))
    xs = [rng.choice([-1, 1], size=64) for _ in range(20)]

    def experiment():
        _, t_cells = _timed(lambda: [engine.dot_cells(x) for x in xs])
        _, t_vec = _timed(lambda: [engine.dot(x) for x in xs])
        mismatch = any(
            not np.array_equal(engine.dot(x), engine.dot_cells(x)) for x in xs
        )
        return t_cells, t_vec, mismatch

    t_cells, t_vec, mismatch = run_once(experiment)
    print_table(
        "BNN XNOR-popcount (64x16 cells, 20 inputs)",
        [
            {"path": "cell walk", "seconds": t_cells},
            {"path": "vectorized", "seconds": t_vec},
            {"path": "speedup", "seconds": t_cells / t_vec},
        ],
    )
    record_sweep_metrics(
        "bnn_xnor_popcount", {"speedup_vectorized": t_cells / t_vec}
    )
    assert not mismatch
    assert t_cells / t_vec >= SPEEDUP_GATE
