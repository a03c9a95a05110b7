"""Request batcher: coalesce concurrent small inference requests.

Single-sample inference requests are the worst case for the compute
backend: every one pays the full per-call overhead of walking the
deployed model's layers and tiles, and — on IR-drop-aware tiles — one
conductance fingerprint and transfer-matrix product per layer per tile.
The backend's ``forward_batch`` / ``vmm_batch`` path amortizes all of
that across a batch, so the serving layer's job is to *make* batches out
of concurrent requests.

:class:`RequestBatcher` groups pending requests by a caller-supplied key
(one key per deployed model artifact — inputs for different models can
never be stacked) and flushes a group when either

* the group reaches ``max_batch`` requests (flushed inline by the
  arriving request), or
* the event loop turns over: the group's first request schedules its
  flush with ``loop.call_soon``, so it runs after every callback already
  queued for this turn.

This is natural batching: nothing waits on a timer, and a batch holds
whatever entered the loop together — a ``gather`` burst, several lines
read from one socket buffer, or the requests that arrived while a flush
or a job blocked the loop.  Batches grow with load, and a lone request
is computed one loop turn after it arrives.

Each request contributes a block of input rows; the flush stacks all
blocks into one array, invokes the runner once, and demuxes the output
rows back to each request's future.  On IR-drop-aware models, demuxed
rows are bit-identical to running each request alone: every step of the
batched clean forward path (clipping, the ``einsum`` read through each
tile's one-RHS-solved transfer matrix, ADC quantization, differential
decode) operates on batch rows independently, a property the serve tests
assert.  Ideal-wire tiles read through a BLAS matmul, which does not
give a row the same bits alone as inside a batch; their served logits
agree only because the ADC absorbs the last-bit difference.

``max_batch=1`` degrades to one-request-at-a-time execution — the
sequential baseline the ``BENCH_serve.json`` coalescing gate compares
against.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.utils import telemetry

__all__ = ["BatcherStats", "RequestBatcher"]


@dataclass
class _Pending:
    """One enqueued request: its input rows and the future its demuxed
    output rows resolve."""

    x: np.ndarray                      # (n_rows, features)
    future: "asyncio.Future[np.ndarray]"


@dataclass
class _Group:
    """Per-key accumulation state between flushes."""

    runner: Callable[[np.ndarray], np.ndarray]
    pending: List[_Pending] = field(default_factory=list)
    flush: Optional[asyncio.Handle] = None   # the next-turn flush


@dataclass
class BatcherStats:
    """Lifetime coalescing statistics."""

    requests: int = 0
    flushes: int = 0
    coalesced_flushes: int = 0     # flushes serving > 1 request
    max_batch_rows: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "flushes": self.flushes,
            "coalesced_flushes": self.coalesced_flushes,
            "max_batch_rows": self.max_batch_rows,
        }


class RequestBatcher:
    """Next-turn + max-batch coalescing of inference requests."""

    def __init__(self, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.stats = BatcherStats()
        self._groups: Dict[Any, _Group] = {}

    async def submit(
        self,
        key: Any,
        x: np.ndarray,
        runner: Callable[[np.ndarray], np.ndarray],
    ) -> "tuple[np.ndarray, Dict[str, float]]":
        """Enqueue ``x`` (``(n_rows, features)``) for the model behind
        ``key`` and await ``(output_rows, counters)``.

        ``runner`` executes the stacked batch (``runner(stacked) ->
        (total_rows, out_features)``); all requests coalesced into one
        flush must pass the same runner (they do: the key identifies the
        deployed artifact).  ``counters`` is this request's share of the
        flush's telemetry counters — the flush runs inside its own
        telemetry scope and the captured counters are apportioned by each
        request's row share, so per-request cost reports stay
        conservation-valid and sum (up to float rounding) to the true
        batch total.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(
                f"x must be (n_rows >= 1, features), got {x.shape}"
            )
        self.stats.requests += 1
        telemetry.current().incr("serve.batch.requests")

        loop = asyncio.get_running_loop()
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(runner=runner)
        pending = _Pending(x=x, future=loop.create_future())
        group.pending.append(pending)

        if len(group.pending) >= self.max_batch:
            self._flush(key)
        elif group.flush is None:
            group.flush = loop.call_soon(self._flush, key)
        return await pending.future

    def _flush(self, key: Any) -> None:
        """Run every pending request under ``key`` as one stacked batch
        and demux the outputs."""
        group = self._groups.pop(key, None)
        if group is None or not group.pending:
            return
        if group.flush is not None:
            group.flush.cancel()
        batch = group.pending
        self.stats.flushes += 1
        telemetry.current().incr("serve.batch.flushes")
        if len(batch) > 1:
            self.stats.coalesced_flushes += 1
            telemetry.current().incr("serve.batch.coalesced_flushes")
        try:
            # Inside the try: blocks of mismatched widths must fail every
            # waiter, not escape from a loop callback and strand them.
            stacked = (
                batch[0].x
                if len(batch) == 1
                else np.concatenate([p.x for p in batch], axis=0)
            )
            self.stats.max_batch_rows = max(
                self.stats.max_batch_rows, stacked.shape[0]
            )
            telemetry.current().incr("serve.batch.rows", stacked.shape[0])
            with telemetry.scoped() as scope:
                out = group.runner(stacked)
            counters = scope.snapshot(include_timers=False)["counters"]
        except Exception as exc:  # demux the failure to every waiter
            for p in batch:
                if not p.future.done():
                    p.future.set_exception(exc)
            return
        total_rows = stacked.shape[0]
        lo = 0
        for p in batch:
            hi = lo + p.x.shape[0]
            share = p.x.shape[0] / total_rows
            if not p.future.done():
                p.future.set_result(
                    (
                        np.asarray(out[lo:hi]),
                        {k: v * share for k, v in counters.items()},
                    )
                )
            lo = hi

    def flush_all(self) -> None:
        """Flush every pending group immediately (shutdown/test hook)."""
        for key in list(self._groups):
            self._flush(key)

    @property
    def pending_requests(self) -> int:
        """Requests currently parked awaiting a flush."""
        return sum(len(g.pending) for g in self._groups.values())
