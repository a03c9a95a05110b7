"""Tests for the inference request batcher (coalescing + demux)."""

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.batcher import RequestBatcher
from repro.utils import telemetry


def run(coro):
    return asyncio.run(coro)


def doubling_runner(stacked):
    telemetry.current().incr("runner.calls")
    telemetry.current().incr("runner.rows", stacked.shape[0])
    return stacked * 2.0


class TestCoalescing:
    def test_concurrent_requests_share_one_flush(self):
        async def main():
            batcher = RequestBatcher(max_batch=8)
            xs = [np.full((1, 3), float(k)) for k in range(5)]
            results = await asyncio.gather(
                *[batcher.submit("m", x, doubling_runner) for x in xs]
            )
            return batcher, results

        batcher, results = run(main())
        assert batcher.stats.flushes == 1
        assert batcher.stats.coalesced_flushes == 1
        assert batcher.stats.requests == 5
        assert batcher.stats.max_batch_rows == 5
        for k, (out, counters) in enumerate(results):
            np.testing.assert_array_equal(out, np.full((1, 3), 2.0 * k))
            assert counters["runner.calls"] == pytest.approx(1 / 5)

    def test_max_batch_caps_a_flush_and_flushes_inline(self):
        """Seven requests entering in one turn at ``max_batch=3``: the
        3rd and 6th arrivals flush inline, within that turn, and the
        7th waits for the next turn alone."""

        async def main():
            batcher = RequestBatcher(max_batch=3)
            tasks = [
                asyncio.ensure_future(
                    batcher.submit("m", np.full((1, 2), float(k)), doubling_runner)
                )
                for k in range(7)
            ]

            async def same_turn():
                # Scheduled after the seven submits, so it runs right
                # after them in the same loop turn.
                return batcher.stats.flushes, batcher.pending_requests

            in_turn = await asyncio.ensure_future(same_turn())
            results = await asyncio.wait_for(asyncio.gather(*tasks), 5.0)
            return batcher, in_turn, results

        batcher, in_turn, results = run(main())
        assert in_turn == (2, 1)
        assert batcher.stats.flushes == 3
        assert batcher.stats.coalesced_flushes == 2
        assert batcher.stats.max_batch_rows == 3
        for k, (out, _) in enumerate(results):
            np.testing.assert_array_equal(out, np.full((1, 2), 2.0 * k))

    def test_max_batch_one_degrades_to_sequential(self):
        async def main():
            batcher = RequestBatcher(max_batch=1)
            return await asyncio.gather(
                *[
                    batcher.submit("m", np.full((1, 2), float(k)), doubling_runner)
                    for k in range(4)
                ]
            ), batcher

        results, batcher = run(main())
        for k, (out, _) in enumerate(results):
            np.testing.assert_array_equal(out, np.full((1, 2), 2.0 * k))
        assert batcher.stats.flushes == 4
        assert batcher.stats.coalesced_flushes == 0

    def test_sequential_awaits_never_coalesce(self):
        async def main():
            batcher = RequestBatcher(max_batch=32)
            for k in range(4):
                out, _ = await batcher.submit(
                    "m", np.full((1, 2), float(k)), doubling_runner
                )
                np.testing.assert_array_equal(out, np.full((1, 2), 2.0 * k))
            return batcher

        batcher = run(main())
        assert batcher.stats.flushes == 4
        assert batcher.stats.coalesced_flushes == 0

    def test_different_keys_never_stack(self):
        async def main():
            batcher = RequestBatcher(max_batch=8)
            return await asyncio.gather(
                batcher.submit("a", np.ones((1, 2)), doubling_runner),
                batcher.submit("b", np.ones((1, 4)), doubling_runner),
            ), batcher

        (ra, rb), batcher = run(main())
        assert ra[0].shape == (1, 2)
        assert rb[0].shape == (1, 4)
        assert batcher.stats.flushes == 2
        assert batcher.stats.coalesced_flushes == 0

    def test_multi_row_requests_demux_block_wise(self):
        async def main():
            batcher = RequestBatcher(max_batch=8)
            return await asyncio.gather(
                batcher.submit("m", np.zeros((2, 3)), doubling_runner),
                batcher.submit("m", np.ones((3, 3)), doubling_runner),
            )

        (out_a, c_a), (out_b, c_b) = run(main())
        assert out_a.shape == (2, 3)
        assert out_b.shape == (3, 3)
        np.testing.assert_array_equal(out_b, np.full((3, 3), 2.0))
        # Counters are apportioned by row share and sum to the batch total.
        assert c_a["runner.rows"] + c_b["runner.rows"] == pytest.approx(5.0)
        assert c_a["runner.rows"] == pytest.approx(2.0)


class TestNextTurnFlush:
    def test_lone_request_resolves_within_a_few_turns(self):
        """A lone request is flushed by a ``call_soon`` callback, not a
        timer: it resolves after three bare loop turns (enqueue, flush,
        wake-up), and no task besides the caller's ever exists."""

        async def main():
            batcher = RequestBatcher(max_batch=8)
            task = asyncio.ensure_future(
                batcher.submit("m", np.ones((1, 2)), doubling_runner)
            )
            tasks_seen = set()
            for _ in range(3):
                await asyncio.sleep(0)
                tasks_seen |= asyncio.all_tasks()
            return task, tasks_seen, asyncio.current_task()

        task, tasks_seen, me = run(main())
        assert task.done()
        out, _ = task.result()
        np.testing.assert_array_equal(out, np.full((1, 2), 2.0))
        assert tasks_seen <= {task, me}

    def test_arrivals_while_the_loop_is_blocked_share_one_flush(self):
        """Requests that arrive while a flush blocks the loop enter the
        next turn together and coalesce into one flush."""

        async def main():
            loop = asyncio.get_running_loop()
            batcher = RequestBatcher(max_batch=8)
            late = []

            def arrive():  # another thread: three requests mid-flush
                for k in range(3):
                    late.append(
                        asyncio.run_coroutine_threadsafe(
                            batcher.submit(
                                "m", np.full((1, 2), float(k)), doubling_runner
                            ),
                            loop,
                        )
                    )

            def blocking_runner(stacked):
                client = threading.Thread(target=arrive)
                client.start()
                client.join(timeout=10)
                assert not client.is_alive()
                return doubling_runner(stacked)

            first, _ = await batcher.submit("m", np.ones((1, 2)), blocking_runner)
            results = await asyncio.wait_for(
                asyncio.gather(*[asyncio.wrap_future(f) for f in late]), 5.0
            )
            return batcher, first, results

        batcher, first, results = run(main())
        np.testing.assert_array_equal(first, np.full((1, 2), 2.0))
        for k, (out, _) in enumerate(results):
            np.testing.assert_array_equal(out, np.full((1, 2), 2.0 * k))
        assert batcher.stats.requests == 4
        assert batcher.stats.flushes == 2
        assert batcher.stats.coalesced_flushes == 1
        assert batcher.stats.max_batch_rows == 3


class TestDemuxFidelity:
    def test_demux_is_bit_identical_to_solo_runs(self):
        """Outputs demuxed from a coalesced flush must equal running each
        request alone — bit-for-bit, not approximately.

        This holds whenever the runner treats batch rows independently.
        The deployed IR-drop inference path does: clean reads go through
        each tile's transfer matrix with ``einsum``, whose rows are
        solved one right-hand side at a time, and quantization/decode are
        elementwise.  A multi-RHS LU back-substitution or a whole-batch
        BLAS matmul would *not* qualify: neither gives a row alone the
        bits it gets inside a batch.  That is why served models in these
        tests run with ``wire_resistance > 0`` (pinned in the service
        tests).
        """
        rng = np.random.default_rng(5)
        scale = rng.normal(size=(1, 4))

        def runner(stacked):
            # Row-independent: elementwise affine + clip + running sum
            # along features only.
            return np.maximum(stacked * scale - 0.25, 0.0).cumsum(axis=1)

        xs = [rng.uniform(0, 1, size=(1, 4)) for _ in range(6)]

        async def main():
            batcher = RequestBatcher(max_batch=16)
            return await asyncio.gather(
                *[batcher.submit("m", x, runner) for x in xs]
            )

        results = run(main())
        for x, (out, _) in zip(xs, results):
            solo = runner(x)
            assert np.array_equal(out, solo)  # exact, no tolerance

    def test_flush_telemetry_is_captured_not_leaked(self):
        """Runner counters go to the per-flush scope (and are handed back
        apportioned); they must not leak into the ambient scope."""

        async def main():
            with telemetry.scoped() as ambient:
                batcher = RequestBatcher(max_batch=8)
                await asyncio.gather(
                    *[
                        batcher.submit("m", np.ones((1, 2)), doubling_runner)
                        for _ in range(3)
                    ]
                )
            return ambient

        ambient = run(main())
        counters = ambient.snapshot()["counters"]
        assert "runner.calls" not in counters
        assert counters["serve.batch.requests"] == 3
        assert counters["serve.batch.flushes"] == 1
        assert counters["serve.batch.rows"] == 3


class TestErrors:
    def test_runner_failure_propagates_to_every_waiter(self):
        def broken(stacked):
            raise RuntimeError("kaboom")

        async def main():
            batcher = RequestBatcher(max_batch=8)
            results = await asyncio.gather(
                *[
                    batcher.submit("m", np.ones((1, 2)), broken)
                    for _ in range(3)
                ],
                return_exceptions=True,
            )
            return results

        results = run(main())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_unstackable_blocks_fail_every_waiter(self):
        """Blocks of different widths cannot be stacked; the next-turn
        flush must fail every future instead of leaving them pending."""

        async def main():
            batcher = RequestBatcher(max_batch=8)
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("m", np.ones((1, 16)), doubling_runner),
                    batcher.submit("m", np.ones((1, 3)), doubling_runner),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        results = run(main())
        assert len(results) == 2
        assert all(isinstance(r, ValueError) for r in results)

    def test_rejects_bad_input_shapes(self):
        async def main():
            batcher = RequestBatcher()
            await batcher.submit("m", np.ones(3), doubling_runner)

        with pytest.raises(ValueError, match="n_rows"):
            run(main())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            RequestBatcher(max_batch=0)

    def test_flush_all_releases_parked_requests(self):
        async def main():
            batcher = RequestBatcher(max_batch=100)
            task = asyncio.ensure_future(
                batcher.submit("m", np.ones((1, 2)), doubling_runner)
            )

            async def release():
                # Same loop turn as the submit, before its next-turn
                # flush: the request is still parked.
                assert batcher.pending_requests == 1
                batcher.flush_all()

            await asyncio.ensure_future(release())
            out, _ = await asyncio.wait_for(task, timeout=5.0)
            assert batcher.pending_requests == 0
            assert batcher.stats.flushes == 1
            return out

        out = run(main())
        np.testing.assert_array_equal(out, np.full((1, 2), 2.0))
