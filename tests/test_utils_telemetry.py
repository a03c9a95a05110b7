"""Tests for the telemetry subsystem: counters, timers, scopes, reports."""

import json

import pytest

from repro.utils import telemetry
from repro.utils.telemetry import (
    COST_PREFIXES,
    ManualClock,
    NullTelemetry,
    RunReport,
    Telemetry,
)


class TestCounters:
    def test_incr_and_count(self):
        tel = Telemetry()
        tel.incr("x")
        tel.incr("x", 2.5)
        assert tel.count("x") == 3.5
        assert tel.count("never") == 0.0

    def test_charge_mirrors_cost_counters(self):
        tel = Telemetry()
        tel.charge("adc", energy=1.0, latency=2.0, data_moved=3.0)
        tel.charge("adc", energy=0.5, latency=0.0, data_moved=0.0)
        assert tel.count("cost.energy.adc") == 1.5
        assert tel.count("cost.latency.adc") == 2.0
        assert tel.count("cost.data_moved.adc") == 3.0

    def test_reset_clears_everything(self):
        tel = Telemetry(clock=ManualClock())
        tel.incr("x")
        tel.record_time("t", 1.0)
        tel.reset()
        assert tel.counters == {}
        assert tel.timers == {}
        assert tel.timer_counts == {}


class TestTimers:
    def test_manual_clock_timer(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock)
        with tel.timer("phase"):
            clock.advance(2.5)
        with tel.timer("phase"):
            clock.advance(0.5)
        assert tel.timers["phase"] == pytest.approx(3.0)
        assert tel.timer_counts["phase"] == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Telemetry().record_time("t", -1.0)

    def test_manual_clock_rejects_backwards(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_snapshot_can_exclude_timers(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock)
        tel.incr("c")
        with tel.timer("t"):
            clock.advance(1.0)
        full = tel.snapshot()
        assert full["timers"] == {"t": 1.0}
        bare = tel.snapshot(include_timers=False)
        assert "timers" not in bare
        assert bare["counters"] == {"c": 1.0}


class TestScoping:
    def test_scoped_isolates_increments(self):
        before = telemetry.current().count("scoped.probe")
        with telemetry.scoped() as scope:
            telemetry.current().incr("scoped.probe")
            assert scope.count("scoped.probe") == 1.0
        assert telemetry.current().count("scoped.probe") == before

    def test_scoped_restores_on_exception(self):
        outer = telemetry.current()
        with pytest.raises(RuntimeError):
            with telemetry.scoped():
                raise RuntimeError("boom")
        assert telemetry.current() is outer

    def test_disabled_records_nothing(self):
        with telemetry.disabled():
            tel = telemetry.current()
            tel.incr("x")
            tel.charge("adc", 1.0, 1.0, 1.0)
            tel.record_time("t", 1.0)
            with tel.timer("t2"):
                pass
            assert tel.counters == {}
            assert tel.timers == {}

    def test_null_telemetry_is_a_telemetry(self):
        assert isinstance(NullTelemetry(), Telemetry)

    def test_nested_scope_folds_into_enclosing(self):
        with telemetry.scoped() as outer:
            telemetry.current().charge("adc", 1.0, 0.5, 0.0)
            with telemetry.nested() as inner:
                telemetry.current().charge("adc", 2.0, 1.0, 0.0)
            assert inner.counters["cost.energy.adc"] == 2.0
        assert outer.count("cost.energy.adc") == 3.0
        assert outer.count("cost.latency.adc") == 1.5

    def test_nested_scope_folds_when_the_block_raises(self):
        with telemetry.scoped() as outer:
            with pytest.raises(RuntimeError):
                with telemetry.nested():
                    telemetry.current().incr("work", 2.0)
                    raise RuntimeError("failed")
        assert outer.counters == {"work": 2.0}


class TestAsyncScopeIsolation:
    """The scope stack lives in a ``contextvars.ContextVar``, so every
    asyncio task captures its own stack: two concurrently-scoped captures
    must never cross-contaminate even when their awaits interleave."""

    def test_concurrent_tasks_do_not_cross_contaminate(self):
        import asyncio

        async def capture(name, n, pause):
            with telemetry.scoped() as scope:
                for _ in range(n):
                    telemetry.current().incr(name)
                    telemetry.current().charge(name, 1.0, 0.5, 0.0)
                    await asyncio.sleep(pause)
            return scope

        async def main():
            # Different pause lengths force the two tasks' awaits to
            # interleave in the event loop.
            return await asyncio.gather(
                capture("task_a", 5, 0.001), capture("task_b", 3, 0.0015)
            )

        scope_a, scope_b = asyncio.run(main())
        assert scope_a.count("task_a") == 5.0
        assert scope_a.count("task_b") == 0.0
        assert scope_b.count("task_b") == 3.0
        assert scope_b.count("task_a") == 0.0
        report_a = RunReport.from_counters(
            scope_a.snapshot(include_timers=False)["counters"], label="a"
        )
        report_b = RunReport.from_counters(
            scope_b.snapshot(include_timers=False)["counters"], label="b"
        )
        report_a.validate()
        report_b.validate()
        assert report_a.total_energy == 5.0
        assert report_b.total_energy == 3.0
        assert list(report_a.categories) == ["task_a"]
        assert list(report_b.categories) == ["task_b"]

    def test_nested_scope_inside_task_pops_to_task_scope(self):
        import asyncio

        async def main():
            with telemetry.scoped() as outer:
                with telemetry.scoped() as inner:
                    telemetry.current().incr("inner.only")
                telemetry.current().incr("outer.only")
                await asyncio.sleep(0)
            return outer, inner

        outer, inner = asyncio.run(main())
        assert inner.count("inner.only") == 1.0
        assert inner.count("outer.only") == 0.0
        assert outer.count("outer.only") == 1.0
        assert outer.count("inner.only") == 0.0

    def test_to_thread_inherits_ambient_scope(self):
        """``asyncio.to_thread`` copies the submitting task's context, so
        compute pushed off the event loop still records into the scope
        that launched it — the property the serving layer's heavy job
        kinds rely on."""
        import asyncio

        def work():
            telemetry.current().incr("threaded.work")

        async def main():
            with telemetry.scoped() as scope:
                await asyncio.to_thread(work)
            return scope

        scope = asyncio.run(main())
        assert scope.count("threaded.work") == 1.0


class TestRunReport:
    def _sample(self):
        return RunReport(
            label="sample",
            categories={
                "adc": {"energy": 3.0, "latency": 1.0, "data_moved": 0.0},
                "dac": {"energy": 1.0, "latency": 1.0, "data_moved": 4.0},
            },
            counters={"ops": 7.0},
            timers={"phase": 0.5},
            area={"adc": 0.9, "rest": 0.1},
        )

    def test_totals(self):
        r = self._sample()
        assert r.total_energy == 4.0
        assert r.total_latency == 2.0
        assert r.total_data_moved == 4.0
        assert r.total_area == pytest.approx(1.0)

    def test_fractions_sum_to_one(self):
        r = self._sample()
        assert sum(r.energy_fractions().values()) == pytest.approx(1.0)
        assert r.energy_fractions()["adc"] == pytest.approx(0.75)
        assert r.area_fractions()["adc"] == pytest.approx(0.9)
        r.validate()

    def test_empty_report_fractions_are_zero(self):
        r = RunReport()
        assert r.energy_fractions() == {}
        r.validate()

    def test_json_round_trip(self):
        r = self._sample()
        restored = RunReport.from_json(r.to_json())
        assert restored == r
        # Derived fields present in the serialized form.
        data = json.loads(r.to_json())
        assert data["totals"]["energy"] == 4.0
        assert data["fractions"]["energy"]["adc"] == pytest.approx(0.75)

    def test_merge_sums_elementwise(self):
        a, b = self._sample(), self._sample()
        merged = a.merge(b)
        assert merged.total_energy == 8.0
        assert merged.counters["ops"] == 14.0
        assert merged.area["adc"] == pytest.approx(1.8)
        # Inputs untouched.
        assert a.total_energy == 4.0

    def test_reduce_in_job_order_matches_pairwise(self):
        reports = [self._sample() for _ in range(4)]
        reduced = RunReport.reduce(reports, label="all")
        assert reduced.label == "all"
        assert reduced.total_energy == 16.0
        step = reports[0].merge(reports[1]).merge(reports[2]).merge(reports[3])
        assert reduced.categories == step.categories

    def test_from_counters_folds_cost_prefixes(self):
        counters = {
            "cost.energy.adc": 2.0,
            "cost.latency.adc": 1.0,
            "cost.data_moved.adc": 0.5,
            "plain.counter": 9.0,
        }
        r = RunReport.from_counters(counters, label="fold")
        assert r.categories["adc"] == {
            "energy": 2.0,
            "latency": 1.0,
            "data_moved": 0.5,
        }
        assert r.counters == {"plain.counter": 9.0}
        assert all(
            not k.startswith(COST_PREFIXES) for k in r.counters
        )

    def test_category_table_rows(self):
        rows = self._sample().category_table()
        assert [row["category"] for row in rows] == ["adc", "dac"]
        assert rows[0]["energy_share"] == pytest.approx(0.75)

    def test_validate_rejects_bad_fractions(self):
        r = RunReport(categories={"a": {"energy": -1.0, "latency": 0.0,
                                        "data_moved": 0.0},
                                  "b": {"energy": 2.0, "latency": 0.0,
                                        "data_moved": 0.0}})
        with pytest.raises(ValueError):
            r.validate()
