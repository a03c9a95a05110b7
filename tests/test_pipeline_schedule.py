"""Tests for the pipelined schedule simulator (repro.pipeline.schedule)."""

import dataclasses

import numpy as np
import pytest

from repro.apps.cnn import SimpleCNN, CrossbarCNN
from repro.apps.nn import MLP, CrossbarMLP
from repro.pipeline import (
    PipelineScheduler,
    ScheduleParams,
    StageAllocation,
    TileInventory,
    allocate,
    trace_cnn,
    trace_mlp,
)
from repro.pipeline.explore import (
    _pipeline_point,
    reference_conv_graph,
    reference_graph,
)
from repro.utils import telemetry
from repro.workloads.attention import attention_graph, run_attention


def _mlp_setup(n_tiles=8, duplication="auto", seed=42):
    graph = reference_graph()
    alloc = allocate(
        graph, TileInventory(n_tiles=n_tiles), duplication=duplication, rng=seed
    )
    x = np.random.default_rng(7).uniform(0, 1, (32, graph.in_features))
    return graph, alloc, x


def _assert_results_equal(a, b):
    """Every field of two ``ScheduleResult`` objects is exactly equal."""
    for f in dataclasses.fields(a):
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, np.ndarray):
            assert left.tobytes() == right.tobytes(), f.name
        else:
            assert left == right, f.name


class TestNumericalIdentity:
    def test_pipelined_equals_sequential_noiseless(self):
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        seq = sched.run(x, mode="sequential", noisy=False)
        pipe = sched.run(x, mode="pipelined", noisy=False)
        assert np.array_equal(seq.outputs, pipe.outputs)

    def test_pipelined_equals_sequential_noisy(self):
        """Bit-identity must survive stochastic read noise: per-replica
        call order is schedule-invariant, so RNG streams line up."""
        graph = reference_graph()
        x = np.random.default_rng(7).uniform(0, 1, (32, graph.in_features))
        outs = []
        for mode in ("sequential", "pipelined"):
            alloc = allocate(
                graph, TileInventory(n_tiles=8), duplication="auto", rng=42
            )
            sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
            outs.append(sched.run(x, mode=mode, noisy=True).outputs)
        assert np.array_equal(outs[0], outs[1])

    def test_matches_crossbar_mlp(self, rng):
        """One replica per stage + the traced IR must reproduce the
        existing CrossbarMLP deployment.  CrossbarMLP pre-multiplies
        ``w_scale * input_scale`` where the stage multiplies twice, so
        agreement is to the last ulp rather than bit-exact."""
        mlp = MLP((16, 24, 12, 5), rng=rng)
        calib = rng.uniform(0, 1, (32, 16))
        x = rng.uniform(0, 1, (20, 16))
        ref = CrossbarMLP(mlp, calib, rng=0).forward_batch(x, noisy=False)
        graph = trace_mlp(mlp, calib)
        alloc = allocate(graph, TileInventory(n_tiles=3), rng=0)
        out = (
            PipelineScheduler(alloc, ScheduleParams(micro_batch=20))
            .run(x, mode="pipelined")
            .outputs
        )
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)

    def test_matches_crossbar_cnn_exactly(self, rng):
        cnn = SimpleCNN(rng=rng)
        calib = rng.uniform(0, 1, (20, 8, 8))
        imgs = rng.uniform(0, 1, (10, 8, 8))
        ref = CrossbarCNN(cnn, calib, rng=0).forward_batch(imgs, noisy=False)
        graph = trace_cnn(cnn, calib)
        alloc = allocate(graph, TileInventory(n_tiles=4), rng=0)
        out = (
            PipelineScheduler(alloc, ScheduleParams(micro_batch=10))
            .run(imgs, mode="pipelined")
            .outputs
        )
        assert np.array_equal(out, ref)


class TestTiming:
    def test_pipelining_beats_sequential(self):
        _, alloc, x = _mlp_setup(duplication="none", n_tiles=4)
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        seq = sched.run(x, mode="sequential")
        pipe = sched.run(x, mode="pipelined")
        assert pipe.makespan < seq.makespan
        assert pipe.throughput > seq.throughput

    def test_single_microbatch_modes_agree(self):
        """With one micro-batch there is nothing to overlap: both modes
        must produce the same makespan."""
        _, alloc, x = _mlp_setup(duplication="none", n_tiles=4)
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=32))
        seq = sched.run(x, mode="sequential")
        pipe = sched.run(x, mode="pipelined")
        assert seq.makespan == pytest.approx(pipe.makespan)

    def test_duplication_speeds_up_bottleneck(self):
        """Replicating the conv stage must raise pipelined throughput."""
        graph = reference_conv_graph()
        imgs = np.random.default_rng(3).uniform(0, 1, (16, 8, 8))
        results = {}
        for dup in ("none", "auto"):
            alloc = allocate(
                graph, TileInventory(n_tiles=16), duplication=dup, rng=0
            )
            sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=2))
            results[dup] = sched.run(imgs, mode="pipelined")
        assert (
            results["auto"].throughput > 1.5 * results["none"].throughput
        )

    def test_sequential_buffers_deeper_than_pipelined(self):
        _, alloc, x = _mlp_setup(duplication="none", n_tiles=4)
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        seq = sched.run(x, mode="sequential")
        pipe = sched.run(x, mode="pipelined")
        assert max(seq.buffer_peaks) >= max(pipe.buffer_peaks)
        # Layer-sequential stages (nearly) the whole batch between layers
        # (the last micro-batch hands off at the barrier instant).
        assert max(seq.buffer_peaks) >= seq.n_microbatches - 1

    def test_utilization_bounds(self):
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        assert 0 < res.utilization() <= 1
        for u in res.stage_utilization():
            assert 0 < u <= 1

    def test_steady_state_at_least_end_to_end(self):
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        # Steady state excludes ramp-up, so it can only be faster.
        assert res.steady_state_throughput >= res.throughput


class TestAccounting:
    def test_energy_is_schedule_invariant(self):
        """Both modes time one functional pass, so the charged
        categories are exactly equal."""
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        trace = sched.execute(x)
        seq = trace.schedule("sequential")
        pipe = trace.schedule("pipelined")
        assert seq.categories == pipe.categories
        assert seq.total_energy == pipe.total_energy > 0
        assert seq.transfer_bytes == pipe.transfer_bytes

    def test_report_conserves(self):
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        report = res.report("pipeline_test")
        report.validate()  # fractions sum to 1, nothing negative
        assert report.energy_fractions()
        assert sum(report.energy_fractions().values()) == pytest.approx(1.0)
        assert "interconnect" in report.categories
        assert report.counters["pipeline.transfer.bytes"] > 0
        assert report.counters["pipeline.tile_busy_s"] > 0
        assert report.area  # machine area attached

    def test_run_costs_exclude_programming(self):
        """The per-run report covers the inference phase only; the
        allocation-time programming charge stays out of the delta."""
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        assert "programming" not in res.categories
        assert "programming" in alloc.total_costs().by_category

    def test_side_counters_reach_enclosing_scope(self):
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        with telemetry.scoped() as scope:
            sched.run(x)
        counters = scope.snapshot(include_timers=False)["counters"]
        assert counters["pipeline.samples"] == 32
        assert counters["pipeline.transfer.bytes"] > 0
        assert counters["pipeline.tile_busy_s"] > 0
        assert any(k.startswith("pipeline.stage.") for k in counters)

    def test_transfer_bytes_match_payloads(self):
        graph = reference_graph()
        alloc = allocate(graph, TileInventory(n_tiles=4), rng=0)
        x = np.random.default_rng(7).uniform(0, 1, (8, graph.in_features))
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=8))
        res = sched.run(x)
        widths = [graph.in_features] + [n.out_features for n in graph]
        expected = sum(w * 8 * 2 for w in widths)  # 2 B/value, batch 8
        assert res.transfer_bytes == expected


class TestPurity:
    """A run is a pure function of (allocation, input, micro_batch,
    noisy): costs go into per-run accumulators, never priced as the
    delta of the tiles' lifetime totals."""

    @pytest.mark.parametrize("mode", ["sequential", "pipelined"])
    def test_same_mode_rerun_is_byte_equal(self, mode):
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        first = sched.run(x, mode=mode)
        second = sched.run(x, mode=mode)
        assert first.outputs.tobytes() == second.outputs.tobytes()
        assert first.service_times == second.service_times
        assert first.makespan == second.makespan
        assert first.categories == second.categories

    def test_lifetime_totals_still_cover_every_run(self):
        """The per-run accumulators merge back: the tiles' lifetime
        totals grow by exactly what each run charged."""
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        res = sched.run(x)
        assert alloc.total_costs().as_dict()["adc"] == res.categories["adc"]
        sched.run(x)
        assert alloc.total_costs().by_category["adc"].energy == pytest.approx(
            2 * res.categories["adc"]["energy"]
        )
        link = sched.interconnect.costs.total.data_moved
        assert link == 2 * res.transfer_bytes


class TestTwoRunOracle:
    """Two ``run`` calls on fresh allocations are two independent
    functional passes; one ``execute`` timed under both modes must
    reproduce them exactly."""

    @pytest.mark.parametrize("noisy", [False, True])
    def test_execute_once_equals_two_runs(self, noisy):
        graph = reference_graph()
        x = np.random.default_rng(7).uniform(0, 1, (32, graph.in_features))

        def fresh():
            alloc = allocate(
                graph, TileInventory(n_tiles=8), duplication="auto", rng=42
            )
            return PipelineScheduler(alloc, ScheduleParams(micro_batch=4))

        seq = fresh().run(x, mode="sequential", noisy=noisy)
        pipe = fresh().run(x, mode="pipelined", noisy=noisy)
        trace = fresh().execute(x, noisy=noisy)
        _assert_results_equal(trace.schedule("sequential"), seq)
        _assert_results_equal(trace.schedule("pipelined"), pipe)

    def test_schedule_runs_no_vmm_and_no_transfer(self):
        _, alloc, x = _mlp_setup()
        trace = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).execute(x)
        with telemetry.scoped() as scope:
            trace.schedule("sequential")
            trace.schedule("pipelined")
        counters = scope.snapshot(include_timers=False)["counters"]
        assert counters["pipeline.samples"] == 2 * 32
        assert "core.vmm_batches" not in counters
        assert "pipeline.transfers" not in counters

    @staticmethod
    def _count_apply(monkeypatch):
        calls = []
        apply = StageAllocation.apply

        def counted(self, *args, **kwargs):
            calls.append(self.name)
            return apply(self, *args, **kwargs)

        monkeypatch.setattr(StageAllocation, "apply", counted)
        return calls

    def test_dse_point_runs_each_stage_microbatch_once(self, monkeypatch):
        calls = self._count_apply(monkeypatch)
        row = _pipeline_point(
            (16, "auto", 32, 8),
            0,
            np.random.default_rng(0),
            workload="cnn",
            layer_sizes=(),
            micro_batch=8,
            model_seed=1234,
            noisy=False,
        )
        assert row["feasible"]
        n_stages = len(reference_conv_graph(1234))
        assert len(calls) == n_stages * (32 // 8)

    def test_attention_runs_each_stage_microbatch_once(self, monkeypatch):
        calls = self._count_apply(monkeypatch)
        row = run_attention(batch=16, micro_batch=4)
        assert row["bit_identical"]
        assert len(calls) == len(attention_graph()) * (16 // 4)


class TestValidation:
    def test_bad_mode_rejected(self):
        _, alloc, x = _mlp_setup()
        with pytest.raises(ValueError, match="mode"):
            PipelineScheduler(alloc).run(x, mode="dataflow")

    def test_empty_batch_rejected(self):
        graph, alloc, _ = _mlp_setup()
        with pytest.raises(ValueError, match="at least one"):
            PipelineScheduler(alloc).run(
                np.empty((0, graph.in_features))
            )

    def test_bad_micro_batch_rejected(self):
        with pytest.raises(ValueError, match="micro_batch"):
            ScheduleParams(micro_batch=0)
