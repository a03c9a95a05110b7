"""Parallel, deterministic Monte Carlo sweep engine.

Every statistical experiment in the library — accuracy-vs-yield, ECC
failure-rate Monte Carlo, endurance wear-out sweeps — reduces to the same
shape: a grid of sweep points times a number of independent trials, each
trial consuming its own random stream.  This module is the one place that
shape is implemented, with three hard guarantees:

**Determinism.**  Per-trial generators come from
``numpy.random.SeedSequence`` children of the sweep's root sequence: the
child for flat job ``i`` is ``SeedSequence(root.entropy,
spawn_key=root.spawn_key + (i,))`` — exactly what ``root.spawn`` would
produce, but derivable independently in any process from the root alone
(see :func:`child_seed`).  The stream a job sees therefore depends only on
the root seed and the job's index — never on the worker count, the
chunking, or the scheduling order — so the same seed yields bit-identical
results whether the sweep runs serially, on 2 workers, or on 64.

**Ordered collection.**  Results are returned in job order regardless of
completion order: chunks are submitted contiguously and reassembled by
position.

**Serial fallback.**  ``workers=0`` (the default, also via the
``REPRO_WORKERS`` environment variable) runs every job in-process with the
identical seeding, so test suites stay single-process and the parallel
path can be validated against the serial one bit-for-bit.

**Telemetry.**  Every job runs in its own
:func:`repro.utils.telemetry.scoped` scope, in pool workers and on the
serial path alike.  The per-job counters (not timers: wall clocks are
not deterministic) are folded in flat job order into one fresh dict,
which is then added once, key by key, into the caller's
:func:`repro.utils.telemetry.current` scope.  The caller's counters
therefore never depend on the worker count; a caller that wants a
sweep's report wraps the call in ``telemetry.scoped()``.

Process backend (persistent workers, shared-memory arguments)
-------------------------------------------------------------

With ``workers >= 1`` the pool is *persistent for the sweep*: each worker
process initializes **once**, through the pool initializer, with the task,
the root seed and the full ``task_args`` — and every ``numpy`` array found
anywhere inside ``task_args`` (nested tuples/lists/dicts included) is
carried in a single :mod:`multiprocessing.shared_memory` segment rather
than pickled.  After initialization, submitting a chunk of jobs ships only
an ``(index_lo, index_hi)`` descriptor: workers re-derive each job's seed
from the root and read the experiment state they attached at startup.

This is what fixes the "parallel loses to serial" regression recorded in
``BENCH_sweep.json``: the previous engine re-pickled ``task_args`` (model
weights, train/test sets) into every submitted chunk, so job payloads
dominated the actual Monte Carlo work.

Worker-side arrays are *read-only views* of the shared segment.  Tasks
must not mutate ``task_args`` (they never could portably: the serial path
shares the caller's arrays across all jobs).  The segment is unlinked when
the sweep finishes, normally or by exception.

Tasks submitted to the process backend must be picklable — i.e. defined at
module level, not closures.  Consumers (``repro.apps.nn``,
``repro.testing.ecc``, ``repro.faults.sweeps``) each define a module-level
trial function and pass experiment state through ``task_args``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng

#: Environment variable consulted when ``workers`` is not given explicitly.
ENV_WORKERS = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count: explicit argument, else ``REPRO_WORKERS``,
    else ``0`` (serial in-process execution).

    ``0`` means *serial*; ``n >= 1`` means a pool of ``n`` processes;
    ``-1`` means *all cores* (``os.cpu_count()``), both as an explicit
    argument and through ``REPRO_WORKERS=-1``.
    """
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "0")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_WORKERS} must be an integer, got {raw!r}"
            ) from None
    if workers == -1:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (or -1 = all cores), got {workers}")
    return workers


def seed_sequence_from(rng: RNGLike) -> np.random.SeedSequence:
    """Build the root :class:`~numpy.random.SeedSequence` for a sweep.

    ``None`` gives fresh entropy; an ``int`` seeds directly; an existing
    ``Generator`` contributes one draw from its stream (so a caller that
    has already consumed entropy — e.g. for training — hands the sweep a
    reproducible continuation of that stream).  The Generator draw covers
    the full closed range ``[0, 2**63 - 1]`` (``endpoint=True``; the
    historical exclusive bound silently dropped the top seed value).
    """
    if rng is None:
        return np.random.SeedSequence()
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.SeedSequence(int(rng))
    if isinstance(rng, np.random.Generator):
        return np.random.SeedSequence(
            int(rng.integers(0, 2**63 - 1, endpoint=True))
        )
    raise TypeError(
        f"rng must be None, an int seed, a SeedSequence or a Generator, "
        f"got {type(rng).__name__}"
    )


def child_seed(
    root: np.random.SeedSequence, index: int
) -> np.random.SeedSequence:
    """The child sequence for flat job ``index``.

    Bit-identical to ``root.spawn(index + 1)[index]`` (numpy spawns
    children as ``SeedSequence(entropy, spawn_key=parent_key + (i,))``),
    but stateless: any process holding only the root can derive any job's
    stream without shipping per-job ``SeedSequence`` objects.  This
    equivalence is the engine's seeding contract and is pinned by tests.
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (index,),
        pool_size=root.pool_size,
    )


def spawn_trial_seeds(
    rng: RNGLike, count: int
) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent child seed sequences, one per job."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    root = seed_sequence_from(rng)
    return [child_seed(root, i) for i in range(count)]


# --------------------------------------------------------------------------
# Shared-memory argument registry
# --------------------------------------------------------------------------


class _SharedRef:
    """Placeholder left in the ``task_args`` template where an array was
    lifted into the shared segment; resolved back to a view in workers."""

    def __init__(self, index: int) -> None:
        self.index = index


def _extract_shared(obj: Any, arrays: List[np.ndarray]) -> Any:
    """Replace every plain ndarray in ``obj`` (recursing through tuples,
    lists and dicts) with a :class:`_SharedRef`, collecting the arrays."""
    if type(obj) is np.ndarray and not obj.dtype.hasobject:
        arrays.append(obj)
        return _SharedRef(len(arrays) - 1)
    if isinstance(obj, tuple):
        return tuple(_extract_shared(v, arrays) for v in obj)
    if isinstance(obj, list):
        return [_extract_shared(v, arrays) for v in obj]
    if isinstance(obj, dict):
        return {k: _extract_shared(v, arrays) for k, v in obj.items()}
    return obj


def _resolve_shared(obj: Any, views: Sequence[np.ndarray]) -> Any:
    """Inverse of :func:`_extract_shared`: swap refs back for array views."""
    if isinstance(obj, _SharedRef):
        return views[obj.index]
    if isinstance(obj, tuple):
        return tuple(_resolve_shared(v, views) for v in obj)
    if isinstance(obj, list):
        return [_resolve_shared(v, views) for v in obj]
    if isinstance(obj, dict):
        return {k: _resolve_shared(v, views) for k, v in obj.items()}
    return obj


class SharedArrayPack:
    """All of a sweep's arrays packed into one shared-memory segment.

    The parent copies each array in once at 64-byte-aligned offsets;
    workers attach by name and rebuild zero-copy read-only views from the
    ``(offset, shape, dtype)`` specs.  One segment per sweep keeps the
    fd/unlink bookkeeping trivial regardless of how many arrays ride in
    ``task_args``.
    """

    def __init__(self, arrays: Sequence[np.ndarray]) -> None:
        self.specs: List[Tuple[int, Tuple[int, ...], str]] = []
        staged: List[Tuple[int, np.ndarray]] = []
        offset = 0
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            offset = -(-offset // 64) * 64
            self.specs.append((offset, arr.shape, arr.dtype.str))
            staged.append((offset, arr))
            offset += arr.nbytes
        self.shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for off, arr in staged:
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=self.shm.buf, offset=off
            )
            view[...] = arr

    @property
    def name(self) -> str:
        """Segment name workers attach to."""
        return self.shm.name

    @staticmethod
    def attach(
        name: str, specs: Sequence[Tuple[int, Tuple[int, ...], str]]
    ) -> Tuple[shared_memory.SharedMemory, List[np.ndarray]]:
        """Worker side: attach the segment and rebuild read-only views."""
        shm = shared_memory.SharedMemory(name=name)
        views = []
        for off, shape, dtype in specs:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off
            )
            view.flags.writeable = False
            views.append(view)
        return shm, views

    def release(self) -> None:
        """Close and unlink the segment (parent side, idempotent)."""
        try:
            self.shm.close()
        finally:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# --------------------------------------------------------------------------
# Worker process state
# --------------------------------------------------------------------------

#: Per-worker-process sweep state, installed once by the pool initializer.
_WORKER_STATE: Dict[str, Any] = {}


def _worker_init(
    task: Callable[..., Any],
    root: np.random.SeedSequence,
    template: Any,
    pack_name: Optional[str],
    specs: Sequence[Tuple[int, Tuple[int, ...], str]],
    energy_spec: Optional[Dict[str, Any]] = None,
) -> None:
    """Pool initializer: runs once per worker process.

    Attaches the shared-memory segment (if any), resolves the
    ``task_args`` template back into arrays, installs the parent's active
    energy-model spec as the worker's process default (so value-aware
    sweeps stay bit-identical to the serial path), and stashes everything
    in a module global so per-chunk submissions carry indices only.
    """
    if energy_spec is not None:
        # Deferred import: repro.costs pulls in repro.core, and the sweep
        # engine must stay importable below both.
        import repro.costs.models as energy_models

        energy_models.set_process_default(
            energy_models.EnergyModelSpec.parse(energy_spec)
        )
    shm, views = (None, [])
    if pack_name is not None:
        shm, views = SharedArrayPack.attach(pack_name, specs)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        task=task,
        task_args=_resolve_shared(template, views),
        root=root,
        shm=shm,  # keep the mapping alive for the worker's lifetime
    )


def _worker_chunk(lo: int, hi: int) -> List[Tuple[Any, Dict[str, float]]]:
    """Worker entry point: run jobs ``[lo, hi)`` from the installed state.

    The entire per-chunk payload is this ``(lo, hi)`` descriptor — seeds
    are re-derived from the root via :func:`child_seed`.
    """
    state = _WORKER_STATE
    seeds = [child_seed(state["root"], i) for i in range(lo, hi)]
    return _run_chunk(state["task"], range(lo, hi), seeds, state["task_args"])


def _run_chunk(
    task: Callable[..., Any],
    indices: Sequence[int],
    seeds: Sequence[np.random.SeedSequence],
    task_args: Tuple[Any, ...],
) -> List[Tuple[Any, Dict[str, float]]]:
    """Run a contiguous chunk of jobs in-process, each inside its own
    telemetry scope; returns ``(result, counters)`` pairs.

    Only counters are snapshotted — wall-clock timers vary run to run,
    and per-job capture must stay bit-identical between the serial and
    process backends.
    """
    out: List[Tuple[Any, Dict[str, float]]] = []
    for i, ss in zip(indices, seeds):
        with telemetry.scoped() as scope:
            result = task(i, np.random.default_rng(ss), *task_args)
        out.append((result, scope.snapshot(include_timers=False)["counters"]))
    return out


def _chunk_bounds(n_jobs: int, workers: int, chunk_size: Optional[int]) -> int:
    if chunk_size is None:
        # ~4 chunks per worker keeps the pool busy; per-chunk payloads are
        # two integers, so granularity is nearly free.
        chunk_size = max(1, -(-n_jobs // (workers * 4)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def _run_pooled(
    task: Callable[..., Any],
    n_jobs: int,
    root: np.random.SeedSequence,
    workers: int,
    chunk: int,
    task_args: Tuple[Any, ...],
) -> List[Tuple[Any, Dict[str, float]]]:
    """Fan ``n_jobs`` out over a persistent, shared-memory-initialized
    worker pool; returns ``(result, counters)`` pairs in job order."""
    arrays: List[np.ndarray] = []
    template = _extract_shared(task_args, arrays)
    pack = SharedArrayPack(arrays) if arrays else None
    import repro.costs.models as energy_models  # deferred: avoids cycle

    energy_spec = energy_models.active_spec().to_dict()
    results: List[Tuple[Any, Dict[str, float]]] = []
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                task,
                root,
                template,
                pack.name if pack is not None else None,
                pack.specs if pack is not None else (),
                energy_spec,
            ),
        ) as pool:
            bounds = [
                (lo, min(lo + chunk, n_jobs))
                for lo in range(0, n_jobs, chunk)
            ]
            futures = [pool.submit(_worker_chunk, lo, hi) for lo, hi in bounds]
            for (lo, hi), future in zip(bounds, futures):
                try:
                    results.extend(future.result())
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        f"sweep worker crashed while running jobs "
                        f"[{lo}, {hi}) of {n_jobs} (pool of {workers}); "
                        f"the shared-memory segment has been released"
                    ) from exc
    finally:
        if pack is not None:
            pack.release()
    return results


def run_trials(
    task: Callable[..., Any],
    n_trials: int,
    *,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    task_args: Tuple[Any, ...] = (),
) -> List[Any]:
    """Run ``task(trial_index, rng, *task_args)`` for every trial.

    Results are returned in trial order and are bit-identical for a given
    ``seed`` at any ``workers``/``chunk_size`` setting (each trial's
    generator is derived from the root seed by index, never shared).

    Every trial runs in its own telemetry scope.  The per-trial counters
    are folded in trial order into one fresh dict, which is then added
    once into :func:`repro.utils.telemetry.current` — so the caller's
    scope receives the same counters, bit for bit, at every worker count.

    Parameters
    ----------
    task:
        Module-level callable ``task(trial, rng, *task_args)``.  Must be
        picklable when ``workers >= 1``.
    n_trials:
        Number of independent trials (jobs).
    seed:
        Root seed (``None`` / int / ``Generator`` / ``SeedSequence``).
    workers:
        ``0`` = serial; ``n >= 1`` = persistent process pool of ``n``;
        ``-1`` = all cores; ``None`` = consult ``REPRO_WORKERS`` (default
        serial).  Workers initialize once from the shared-memory argument
        pack; jobs ship as index ranges only.
    chunk_size:
        Jobs per submitted chunk (parallel backend only); affects
        scheduling granularity, never results.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    workers = resolve_workers(workers)
    root = seed_sequence_from(seed)
    if workers == 0 or n_trials == 0:
        seeds = [child_seed(root, i) for i in range(n_trials)]
        pairs = _run_chunk(task, range(n_trials), seeds, task_args)
    else:
        chunk = _chunk_bounds(n_trials, workers, chunk_size)
        pairs = _run_pooled(task, n_trials, root, workers, chunk, task_args)
    folded: Dict[str, float] = {}
    for _, counters in pairs:
        telemetry._merge_numeric(folded, counters)
    scope = telemetry.current()
    for name in sorted(folded):
        scope.incr(name, folded[name])
    return [result for result, _ in pairs]


def _grid_job(
    job: int,
    rng: np.random.Generator,
    task: Callable[..., Any],
    points: Sequence[Any],
    trials: int,
    task_args: Tuple[Any, ...],
) -> Any:
    point = points[job // trials]
    trial = job % trials
    return task(point, trial, rng, *task_args)


def run_grid(
    task: Callable[..., Any],
    points: Sequence[Any],
    *,
    trials: int = 1,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    task_args: Tuple[Any, ...] = (),
) -> List[List[Any]]:
    """Fan a trial grid out: ``task(point, trial, rng, *task_args)`` for
    every ``(point, trial)`` pair, point-major.

    Returns ``results[p][t]`` nested by point then trial, in order.  Job
    seeding is flat over the ``len(points) * trials`` grid, so adding
    workers — or re-slicing the same points into separate calls with the
    same flat indices — never changes any trial's stream.  Telemetry is
    folded in flat (point-major) job order — see :func:`run_trials`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    points = list(points)
    flat = run_trials(
        _grid_job,
        len(points) * trials,
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        task_args=(task, points, trials, task_args),
    )
    return [flat[p * trials : (p + 1) * trials] for p in range(len(points))]


def _block_job(
    block: int,
    rng: np.random.Generator,
    task: Callable[..., Any],
    n_trials: int,
    block_size: int,
    task_args: Tuple[Any, ...],
) -> Any:
    lo = block * block_size
    count = min(block_size, n_trials - lo)
    return task(count, rng, *task_args)


def run_blocks(
    task: Callable[..., Any],
    n_trials: int,
    *,
    block_size: int = 512,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    task_args: Tuple[Any, ...] = (),
) -> np.ndarray:
    """Vectorized-backend variant: trials are partitioned into fixed
    blocks and ``task(block_count, rng, *task_args)`` evaluates a whole
    block at once (returning one result per trial in the block, e.g. a
    boolean failure vector).  Results are concatenated in trial order.

    The unit of determinism is the *block*: one derived stream per block,
    so results depend on ``seed`` and ``block_size`` but never on the
    worker count.  Callers should treat ``block_size`` as part of the
    experiment configuration, not a tuning knob.  Telemetry is folded
    per *block* in block order — see :func:`run_trials`.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    n_blocks = -(-n_trials // block_size)
    per_block = run_trials(
        _block_job,
        n_blocks,
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        task_args=(task, n_trials, block_size, task_args),
    )
    if not per_block:
        return np.asarray([])
    return np.concatenate([np.asarray(b) for b in per_block])
