"""Tests for the parallel, deterministic Monte Carlo sweep engine."""

import os
import sys

import numpy as np
import pytest

from repro.utils import telemetry
from repro.utils.parallel import (
    ENV_WORKERS,
    SharedArrayPack,
    child_seed,
    resolve_workers,
    run_blocks,
    run_grid,
    run_trials,
    seed_sequence_from,
    spawn_trial_seeds,
)


def _shm_names():
    """Names of live POSIX shared-memory segments (Linux only)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# Module-level tasks: the process backend pickles them by reference.
def _draw(trial, rng):
    return (trial, float(rng.random()))


def _grid_draw(point, trial, rng):
    return (point, trial, float(rng.random()))


def _block_draw(count, rng):
    return rng.random(count)


def _with_args(trial, rng, offset, scale):
    return offset + scale * trial


def _sum_array(trial, rng, arr):
    return float(arr.sum()) + trial


def _array_probe(trial, rng, arr):
    """Report what the task actually sees: content checksum + writability."""
    return (float(arr.sum()), bool(arr.flags.writeable))


def _nested_probe(trial, rng, payload):
    """Payload is {'xs': [arr, arr], 'meta': (arr, 'tag')} — exercise the
    recursive shared-memory extraction."""
    total = sum(float(a.sum()) for a in payload["xs"])
    arr, tag = payload["meta"]
    return (total + float(arr.sum()), tag)


def _crash_on_three(trial, rng, arr):
    if trial == 3:
        os._exit(13)  # hard worker death, not an exception
    return trial


def _raise_on_two(trial, rng, arr):
    if trial == 2:
        raise ValueError("task failure on trial 2")
    return trial


#: Probe increments whose floating-point sum depends on the order of
#: addition (1e16 + 1.0 == 1e16).
_PALETTE = (1e16, 1.0, -1e16, 3.0)


def _probe_draws(count, rng):
    """Add ``count`` palette values to the ``probe`` counter one at a time
    and return them in the order they were added."""
    values = [float(v) for v in rng.choice(_PALETTE, size=count)]
    for v in values:
        telemetry.current().incr("probe", v)
    return values


def _probe_trial(trial, rng):
    return tuple(_probe_draws(3, rng))


def _probe_grid(point, trial, rng):
    return tuple(_probe_draws(3, rng))


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == 0

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_workers(None) == 3

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(ValueError, match=ENV_WORKERS):
            resolve_workers(None)

    def test_minus_one_means_all_cores(self):
        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_minus_one_via_env(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "-1")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_other_negatives_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestSeeding:
    def test_int_seed_reproducible(self):
        a = spawn_trial_seeds(7, 5)
        b = spawn_trial_seeds(7, 5)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_streams_independent(self):
        seeds = spawn_trial_seeds(0, 4)
        draws = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(draws)) == 4

    def test_generator_branch_covers_full_seed_range(self):
        """Regression: the Generator branch must draw over the *closed*
        range [0, 2**63 - 1] (``endpoint=True``) — the historical
        exclusive bound silently dropped the top value."""
        for k in (0, 1, 7, 12345):
            expected = np.random.default_rng(k).integers(
                0, 2**63 - 1, endpoint=True
            )
            assert seed_sequence_from(np.random.default_rng(k)).entropy == int(
                expected
            )

    def test_child_seed_matches_spawn(self):
        """The engine's seeding contract: stateless per-index derivation
        is bit-identical to SeedSequence.spawn, at any nesting."""
        for kids_root in (
            np.random.SeedSequence(42),
            np.random.SeedSequence(42).spawn(3)[2],
        ):
            spawned = kids_root.spawn(5)
            for i, kid in enumerate(spawned):
                manual = child_seed(kids_root, i)
                assert np.array_equal(
                    kid.generate_state(8), manual.generate_state(8)
                )

    def test_child_seed_preserves_pool_size(self):
        root = np.random.SeedSequence(1, pool_size=8)
        assert child_seed(root, 0).pool_size == 8
        assert np.array_equal(
            root.spawn(1)[0].generate_state(4),
            child_seed(root, 0).generate_state(4),
        )

    def test_spawn_trial_seeds_equal_spawn(self):
        root = np.random.SeedSequence(9)
        ours = spawn_trial_seeds(np.random.SeedSequence(9), 4)
        theirs = root.spawn(4)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a.generate_state(4), b.generate_state(4))

    def test_generator_input_draws_once(self):
        gen1 = np.random.default_rng(3)
        gen2 = np.random.default_rng(3)
        s1 = seed_sequence_from(gen1)
        s2 = seed_sequence_from(gen2)
        assert s1.entropy == s2.entropy
        # The generator advanced: a second derivation differs.
        assert seed_sequence_from(gen1).entropy != s1.entropy

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            seed_sequence_from("seed")


class TestRunTrials:
    def test_ordered_results(self):
        results = run_trials(_draw, 8, seed=0, workers=0)
        assert [r[0] for r in results] == list(range(8))

    def test_serial_deterministic(self):
        assert run_trials(_draw, 6, seed=1) == run_trials(_draw, 6, seed=1)

    def test_seed_changes_results(self):
        assert run_trials(_draw, 6, seed=1) != run_trials(_draw, 6, seed=2)

    def test_parallel_matches_serial_bit_identical(self):
        serial = run_trials(_draw, 10, seed=42, workers=0)
        for workers, chunk in ((1, None), (2, None), (2, 1), (3, 4)):
            parallel = run_trials(
                _draw, 10, seed=42, workers=workers, chunk_size=chunk
            )
            assert parallel == serial

    def test_task_args_forwarded(self):
        results = run_trials(
            _with_args, 3, seed=0, task_args=(10.0, 2.0)
        )
        assert results == [10.0, 12.0, 14.0]

    def test_zero_trials(self):
        assert run_trials(_draw, 0, seed=0) == []

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            run_trials(_draw, -1)


class TestRunGrid:
    def test_shape_and_order(self):
        grid = run_grid(_grid_draw, ["a", "b", "c"], trials=2, seed=0)
        assert len(grid) == 3
        assert all(len(row) == 2 for row in grid)
        assert grid[2][1][:2] == ("c", 1)

    def test_parallel_matches_serial(self):
        serial = run_grid(_grid_draw, [0.1, 0.2], trials=3, seed=5, workers=0)
        parallel = run_grid(_grid_draw, [0.1, 0.2], trials=3, seed=5, workers=2)
        assert parallel == serial

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_grid(_grid_draw, [1], trials=0)


class TestRunBlocks:
    def test_concatenated_length(self):
        out = run_blocks(_block_draw, 1000, block_size=128, seed=0)
        assert out.shape == (1000,)

    def test_partial_last_block(self):
        out = run_blocks(_block_draw, 10, block_size=4, seed=0)
        assert out.shape == (10,)

    def test_worker_count_invariant(self):
        serial = run_blocks(_block_draw, 500, block_size=64, seed=9, workers=0)
        parallel = run_blocks(
            _block_draw, 500, block_size=64, seed=9, workers=2
        )
        assert np.array_equal(serial, parallel)

    def test_block_size_is_part_of_the_experiment(self):
        a = run_blocks(_block_draw, 256, block_size=64, seed=0)
        b = run_blocks(_block_draw, 256, block_size=32, seed=0)
        assert not np.array_equal(a, b)

    def test_zero_trials(self):
        assert run_blocks(_block_draw, 0, block_size=8, seed=0).size == 0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            run_blocks(_block_draw, 10, block_size=0)


def _probe_trials(workers):
    out = run_trials(_probe_trial, 6, seed=0, workers=workers)
    return out, out


def _probe_grid_sweep(workers):
    out = run_grid(
        _probe_grid, ["a", "b", "c"], trials=2, seed=0, workers=workers
    )
    return out, [job for point in out for job in point]


def _probe_blocks(workers):
    out = run_blocks(_probe_draws, 10, block_size=3, seed=0, workers=workers)
    return out, [out[lo : lo + 3] for lo in range(0, 10, 3)]


def _sequential_sum(values, start=0.0):
    total = start
    for v in values:
        total += v
    return total


class TestTelemetryFold:
    """Each job runs in its own telemetry scope; the engine folds the
    per-job counters in flat job order and adds the sum once into the
    caller's scope, so the caller's counters never depend on the worker
    count."""

    #: What the caller's scope already holds when the sweep starts.
    PRESET = 1.0

    @pytest.mark.parametrize(
        "sweep",
        (_probe_trials, _probe_grid_sweep, _probe_blocks),
        ids=("run_trials", "run_grid", "run_blocks"),
    )
    def test_caller_scope_receives_the_job_order_fold(self, sweep):
        counters, outputs = {}, {}
        for workers in (0, 2):
            with telemetry.scoped() as scope:
                scope.incr("probe", self.PRESET)
                outputs[workers], jobs = sweep(workers)
            counters[workers] = scope.snapshot(include_timers=False)["counters"]
        job_sums = [_sequential_sum(job) for job in jobs]
        expected = self.PRESET + _sequential_sum(job_sums)
        # The probe values are order-sensitive: adding every increment,
        # or every job's sum, straight into the caller's scope would give
        # another total.
        increments = (v for job in jobs for v in job)
        assert expected != _sequential_sum(increments, self.PRESET)
        assert expected != _sequential_sum(job_sums, self.PRESET)
        assert counters[0] == counters[2]
        assert counters[0] == {"probe": expected}
        unscoped, _ = sweep(0)
        for workers in (0, 2):
            assert np.array_equal(outputs[workers], unscoped)


class TestSharedMemoryArgs:
    """The persistent-pool shared-memory argument path."""

    def test_array_args_reach_workers_bit_identical(self):
        arr = np.random.default_rng(0).random(4096)
        serial = run_trials(_sum_array, 4, seed=0, workers=0, task_args=(arr,))
        pooled = run_trials(_sum_array, 4, seed=0, workers=2, task_args=(arr,))
        assert pooled == serial

    def test_worker_views_are_read_only(self):
        arr = np.arange(256, dtype=float)
        (checksum, writeable), *_ = run_trials(
            _array_probe, 2, seed=0, workers=1, task_args=(arr,)
        )
        assert checksum == float(arr.sum())
        assert writeable is False  # shared views must not be mutable

    def test_nested_containers_round_trip(self):
        rng = np.random.default_rng(3)
        payload = {
            "xs": [rng.random(100), rng.random(50)],
            "meta": (rng.random(10), "tag"),
        }
        serial = run_trials(
            _nested_probe, 3, seed=1, workers=0, task_args=(payload,)
        )
        pooled = run_trials(
            _nested_probe, 3, seed=1, workers=2, task_args=(payload,)
        )
        assert pooled == serial

    def test_pack_round_trips_arrays(self):
        arrays = [
            np.arange(7, dtype=np.float64),
            np.zeros((0,)),
            np.arange(12, dtype=np.int32).reshape(3, 4),
        ]
        pack = SharedArrayPack(arrays)
        try:
            shm, views = SharedArrayPack.attach(pack.name, pack.specs)
            try:
                for orig, view in zip(arrays, views):
                    assert view.dtype == orig.dtype
                    assert np.array_equal(view, orig)
                    assert not view.flags.writeable
            finally:
                del views
                shm.close()
        finally:
            pack.release()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="/dev/shm is Linux-only"
    )
    def test_segment_unlinked_on_normal_exit(self):
        before = _shm_names()
        run_trials(
            _sum_array, 6, seed=0, workers=2,
            task_args=(np.ones(2048),),
        )
        assert _shm_names() <= before

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="/dev/shm is Linux-only"
    )
    def test_segment_unlinked_on_task_exception(self):
        before = _shm_names()
        with pytest.raises(ValueError, match="trial 2"):
            run_trials(
                _raise_on_two, 6, seed=0, workers=2,
                task_args=(np.ones(2048),),
            )
        assert _shm_names() <= before


class TestPoolLifecycle:
    """Edge cases of the persistent pool itself."""

    def test_worker_crash_surfaces_clear_error(self):
        """A worker dying mid-chunk (os._exit, segfault analogue) must
        raise promptly with a descriptive message — never hang."""
        before = _shm_names()
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_trials(
                _crash_on_three, 8, seed=0, workers=2,
                task_args=(np.ones(1024),),
            )
        if sys.platform.startswith("linux"):
            assert _shm_names() <= before  # released despite the crash

    def test_chunk_size_one_bit_identical(self):
        serial = run_trials(_draw, 9, seed=4, workers=0)
        assert run_trials(_draw, 9, seed=4, workers=2, chunk_size=1) == serial

    def test_fewer_jobs_than_workers(self):
        serial = run_trials(_draw, 2, seed=4, workers=0)
        assert run_trials(_draw, 2, seed=4, workers=4) == serial

    def test_single_job_pool(self):
        serial = run_trials(_draw, 1, seed=0, workers=0)
        assert run_trials(_draw, 1, seed=0, workers=2) == serial
