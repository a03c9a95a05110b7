"""The batched analog read path of :meth:`CIMCore.vmm_batch`.

The batch is encoded, driven and power-summed in one call each instead of
one call per input row.  These tests keep the per-row formulation as a
local oracle and pin the batched path to it bit for bit: outputs, cost
breakdown, telemetry counters and generator state.  A counting spy keeps
the per-row loops from coming back, and the scheduler's per-step
service times are pinned to the latency the tiles charged.
"""

from collections import defaultdict

import numpy as np
import pytest

import repro.costs.models as energy_models
from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.costs import use_model
from repro.crossbar.array import CrossbarArray
from repro.devices.variability import VariabilityStack
from repro.periphery.drivers import WordlineDriver
from repro.pipeline import PipelineScheduler, ScheduleParams, TileInventory, allocate
from repro.pipeline.explore import reference_conv_graph, reference_graph
from repro.utils import telemetry
from repro.utils.telemetry import RunReport
from repro.workloads.attention import AttentionParams, attention_graph

ROWS, COLS = 24, 6


def per_row_vmm_batch(core: CIMCore, x: np.ndarray, noisy: bool) -> np.ndarray:
    """The read path as it was before batching: encode, drive and price
    the array power one input row at a time (reference only)."""
    p = core.params
    x = np.asarray(x, dtype=float)
    batch = x.shape[0]
    telemetry.current().incr("core.vmm_batches")
    telemetry.current().incr("core.vmm_inputs", batch)
    activations_before = core.driver.activations
    voltages = np.stack(
        [core.driver.drive_analog(core.encoder.amplitude(row)) for row in x]
    )
    if core._ir_solver is not None:
        g = core.array.read_conductances() if noisy else core.array.conductances()
        # The core's own solver call: this oracle pins encode, drive and
        # power batching, not the solver.
        currents = core._ir_solver.solve_batch(
            g, voltages, transfer=not noisy
        ).column_currents
    else:
        currents = core.array.mvm_batch(voltages, noisy=noisy)
    volts = currents * p.transimpedance
    codes = core.adc.quantize_array(volts)
    digitized = core.adc.reconstruct(codes) / p.transimpedance
    y = core.mapping.decode(digitized, voltages, v_scale=p.v_read)
    settle_power = sum(
        core.array.dynamic_read_power(voltages[k]) for k in range(batch)
    )
    model = energy_models.active_model()
    model.charge_dac(
        core.dac, rows=p.rows, batch=batch,
        voltages=voltages, v_ref=p.v_read,
    )
    model.charge_array(
        settle_power=settle_power,
        settle_time=p.array_settle_time, batch=batch,
        column_volts=volts, v_fs=core.adc.config.v_max,
    )
    model.charge_adc(
        core.adc, n_cols=core.array.cols, batch=batch, codes=codes
    )
    model.charge_driver(
        core.driver.config,
        activations=core.driver.activations - activations_before,
        batch=batch, voltages=voltages, v_ref=p.v_read,
    )
    return y


def _programmed_core(wire_resistance: float) -> CIMCore:
    core = CIMCore(
        CIMCoreParams(rows=ROWS, logical_cols=COLS, wire_resistance=wire_resistance),
        variability=VariabilityStack.typical(),
        rng=7,
    )
    weights = np.random.default_rng(1).uniform(-1, 1, (ROWS, COLS))
    core.program_weights(weights)
    return core


def _inputs(batch: int) -> np.ndarray:
    x = np.random.default_rng(batch).uniform(0, 1, (batch, ROWS))
    x[:, ::5] = 0.0           # idle wordlines: activation counts must differ
    return x


def _run(read, core, x, noisy, energy_model):
    with use_model(energy_model), telemetry.scoped() as scope:
        # Two reads, so the second starts from non-zero counters.
        y = [read(core, x, noisy), read(core, x[::-1], noisy)]
        counters = scope.snapshot(include_timers=False)["counters"]
    return y, counters


class TestBitIdentityOracle:
    @pytest.mark.parametrize("wire_resistance", [0.0, 1.0], ids=["ideal", "ir_drop"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("energy_model", ["static", "value_aware"])
    @pytest.mark.parametrize("batch", [1, 37])
    def test_batched_equals_per_row(self, wire_resistance, noisy, energy_model, batch):
        fast_core = _programmed_core(wire_resistance)
        ref_core = _programmed_core(wire_resistance)
        x = _inputs(batch)

        fast_y, fast_counters = _run(
            lambda c, v, n: c.vmm_batch(v, noisy=n), fast_core, x, noisy, energy_model
        )
        ref_y, ref_counters = _run(per_row_vmm_batch, ref_core, x, noisy, energy_model)

        for got, want in zip(fast_y, ref_y):
            assert np.array_equal(got, want)
        # The scope counters carry the cost breakdown (``cost.*``) too.
        assert fast_counters == ref_counters
        assert fast_core.driver.activations == ref_core.driver.activations
        assert (
            fast_core.array.read_operations == ref_core.array.read_operations
        )
        assert (
            fast_core.array._rng.bit_generator.state
            == ref_core.array._rng.bit_generator.state
        )

    def test_dynamic_read_power_rows_match_1d_calls(self):
        core = _programmed_core(0.0)
        core.array.stick_cell(2, 3, 1e-6)      # the fault overlay is priced too
        v = _inputs(64) * core.params.v_read
        batched = core.array.dynamic_read_power(v)
        assert batched.shape == (64,)
        assert batched.tolist() == [core.array.dynamic_read_power(row) for row in v]

    def test_drive_analog_batch_counts_like_rows(self):
        v = _inputs(9) * 0.2
        one, rows = WordlineDriver(ROWS), WordlineDriver(ROWS)
        with telemetry.scoped() as a:
            out = one.drive_analog(v)
        with telemetry.scoped() as b:
            expected = np.stack([rows.drive_analog(row) for row in v])
        assert np.array_equal(out, expected)
        assert one.activations == rows.activations == np.count_nonzero(v)
        assert a.snapshot()["counters"] == b.snapshot()["counters"]


@pytest.fixture
def call_counts(monkeypatch):
    """Counts of ``CrossbarArray.conductances`` and
    ``WordlineDriver.drive_analog`` calls, via wrapping spies."""
    calls = {"conductances": 0, "drive_analog": 0}

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    spy(CrossbarArray, "conductances")
    spy(WordlineDriver, "drive_analog")
    return calls


class TestNoPerRowLoop:
    @pytest.mark.parametrize("wire_resistance", [0.0, 1.0], ids=["ideal", "ir_drop"])
    def test_calls_do_not_scale_with_batch(self, call_counts, wire_resistance):
        per_batch = {}
        for batch in (1, 64):
            core = _programmed_core(wire_resistance)
            call_counts.update(conductances=0, drive_analog=0)
            core.vmm_batch(_inputs(batch), noisy=True)
            per_batch[batch] = dict(call_counts)
        assert per_batch[64] == per_batch[1]
        assert per_batch[64]["drive_analog"] == 1
        assert per_batch[64]["conductances"] <= 2


@pytest.fixture
def tile_latency(monkeypatch):
    """Latency charged per tile (keyed by ``id(core)``), measured
    independently of the scheduler's step scopes: every ``CIMCore`` read
    and (re)programming runs in its own nested scope."""
    charged = defaultdict(float)

    def spy(name):
        original = getattr(CIMCore, name)

        def wrapper(self, *args, **kwargs):
            with telemetry.nested() as scope:
                out = original(self, *args, **kwargs)
            charged[id(self)] += RunReport.from_counters(
                scope.counters
            ).total_latency
            return out

        monkeypatch.setattr(CIMCore, name, wrapper)

    spy("vmm_batch")
    spy("program_weights")
    return charged


def _assert_service_times_conserve(alloc, x, micro_batch, tile_latency) -> None:
    """Each stage's service times, scaled back by the replica's tile
    count, sum to the latency its tiles charged during the pass, and all
    stages together to the compute latency a scope around ``execute``
    saw."""
    tile_latency.clear()            # this pass's charges only
    with telemetry.scoped() as scope:
        trace = PipelineScheduler(
            alloc, ScheduleParams(micro_batch=micro_batch)
        ).execute(x)
    charged = RunReport.from_counters(scope.counters)
    compute = charged.total_latency - charged.categories["interconnect"]["latency"]
    served = 0.0
    for stage, row in zip(alloc.stages, trace.service_times):
        tiles = stage.replicas[0].n_tiles
        stage_latency = sum(
            tile_latency[id(core)]
            for accel in stage.replicas
            for core, _, _ in accel.blocks()
        )
        assert sum(row) * tiles == pytest.approx(stage_latency, rel=1e-15, abs=0)
        served += sum(row) * tiles
    assert served == pytest.approx(compute, rel=1e-15, abs=0)


class TestAccumulatedLatency:
    """The latency the tiles charge during a pass matches the merged
    service times: each stage's row, scaled back by its replica's tile
    count, and all stages together."""

    def test_fresh_accelerator(self, tile_latency):
        """The first pass on freshly programmed tiles: the programming
        charged at allocation stays out of the service times."""
        graph = reference_graph()
        with telemetry.scoped() as scope:
            alloc = allocate(
                graph, TileInventory(n_tiles=16), duplication="none", rng=0
            )
        programmed = RunReport.from_counters(scope.counters).total_latency
        assert programmed > 0
        x = np.random.default_rng(4).uniform(0, 1, (32, graph.in_features))
        _assert_service_times_conserve(alloc, x, 8, tile_latency)

    def test_matches_merge_after_cnn_pipeline(self, tile_latency):
        graph = reference_conv_graph(1234)
        alloc = allocate(graph, TileInventory(n_tiles=16), duplication="auto", rng=0)
        edge = graph.nodes[0].image_size
        x = np.random.default_rng(5).uniform(0, 1, (16, edge, edge))
        _assert_service_times_conserve(alloc, x, 4, tile_latency)

    def test_matches_merge_after_attention(self, tile_latency):
        """Attention reprograms its matmul stages per sample, so their
        steps carry programming as well as read charges."""
        params = AttentionParams(seq=4, d_model=8, d_head=4)
        graph = attention_graph(params, model_seed=3)
        alloc = allocate(graph, TileInventory(n_tiles=16), rng=0)
        x = np.random.default_rng(6).uniform(0, 1, (8, params.seq * params.d_model))
        _assert_service_times_conserve(alloc, x, 2, tile_latency)
