"""Tests for the tile allocator (repro.pipeline.allocate)."""

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorParams
from repro.pipeline import (
    AllocationError,
    GraphBuilder,
    TileInventory,
    allocate,
    deploy,
    tiles_required,
)
from repro.pipeline.explore import reference_conv_graph, reference_graph
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


def _mlp_graph(rng, sizes=(32, 32, 32, 10)):
    builder = GraphBuilder()
    for k, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        builder.dense(
            rng.uniform(-1, 1, (fi, fo)),
            activation="none" if k == len(sizes) - 2 else "relu",
        )
    return builder.build()


class TestTilesRequired:
    def test_exact_fit_is_one_tile(self, rng):
        g = _mlp_graph(rng, (64, 32, 10))
        inv = TileInventory(n_tiles=4, tile_rows=64, tile_cols=32)
        assert tiles_required(g.nodes[0], inv) == 1

    def test_non_divisible_rounds_up(self, rng):
        g = _mlp_graph(rng, (100, 50, 10))
        inv = TileInventory(n_tiles=16, tile_rows=64, tile_cols=32)
        assert tiles_required(g.nodes[0], inv) == 4  # ceil(100/64)*ceil(50/32)


class TestDeploy:
    def test_one_replica_per_stage_on_the_callers_tiles(self, rng):
        g = _mlp_graph(rng, (100, 50, 10))
        params = AcceleratorParams(tile_rows=64, tile_cols=32, adc_bits=6)
        stages = deploy(g, params, rng=0)
        inv = TileInventory(n_tiles=16, tile_rows=64, tile_cols=32)
        assert [s.n_replicas for s in stages] == [1, 1]
        assert [s.n_tiles for s in stages] == [
            tiles_required(node, inv) for node in g
        ]
        assert all(s.replicas[0].params is params for s in stages)

    def test_replica_counts_are_checked(self, rng):
        g = _mlp_graph(rng)
        for counts in ([1, 1], [1, 0, 1]):
            with pytest.raises(ValueError, match="replicas"):
                deploy(g, replicas=counts)


class TestAllocate:
    def test_does_not_fit_raises(self, rng):
        g = _mlp_graph(rng)
        with pytest.raises(AllocationError, match="tiles"):
            allocate(g, TileInventory(n_tiles=2))

    def test_one_replica_per_stage_by_default(self, rng):
        g = _mlp_graph(rng)
        alloc = allocate(g, TileInventory(n_tiles=8), rng=0)
        assert alloc.replica_counts() == [1, 1, 1]
        assert alloc.tiles_used == 3
        assert alloc.tiles_free == 5

    def test_auto_duplication_fills_inventory(self, rng):
        g = _mlp_graph(rng)
        alloc = allocate(g, TileInventory(n_tiles=8), duplication="auto", rng=0)
        assert alloc.tiles_used == 8
        assert all(c >= 2 for c in alloc.replica_counts())

    def test_auto_duplication_targets_bottleneck(self):
        """The conv stage (36 patches/sample) must soak up the spare tiles
        before the balanced dense stages get a second replica."""
        g = reference_conv_graph()
        alloc = allocate(g, TileInventory(n_tiles=16), duplication="auto", rng=0)
        counts = alloc.replica_counts()
        assert counts[0] > counts[1] and counts[0] > counts[2]

    def test_explicit_duplication_respected(self, rng):
        g = _mlp_graph(rng)
        alloc = allocate(
            g, TileInventory(n_tiles=8), duplication=[2, 1, 1], rng=0
        )
        assert alloc.replica_counts() == [2, 1, 1]

    def test_explicit_duplication_overflow_raises(self, rng):
        g = _mlp_graph(rng)
        with pytest.raises(AllocationError, match="duplication"):
            allocate(g, TileInventory(n_tiles=4), duplication=[2, 2, 2])

    def test_bad_duplication_string_raises(self, rng):
        g = _mlp_graph(rng)
        with pytest.raises(ValueError, match="duplication"):
            allocate(g, TileInventory(n_tiles=8), duplication="greedy")

    def test_same_seed_programs_identical_replicas(self, rng):
        g = _mlp_graph(rng)
        a = allocate(g, TileInventory(n_tiles=8), duplication="auto", rng=42)
        b = allocate(g, TileInventory(n_tiles=8), duplication="auto", rng=42)
        x = np.random.default_rng(1).uniform(0, 1, (4, 32))
        for sa, sb in zip(a.stages, b.stages):
            for m in range(sa.n_replicas):
                assert np.array_equal(
                    sa.apply(x, m, noisy=True), sb.apply(x, m, noisy=True)
                )

    def test_replica_for_is_static_round_robin(self, rng):
        g = _mlp_graph(rng)
        alloc = allocate(
            g, TileInventory(n_tiles=8), duplication=[3, 1, 1], rng=0
        )
        stage = alloc.stages[0]
        assert [stage.replica_for(m) for m in range(6)] == [0, 1, 2, 0, 1, 2]


class TestStageApply:
    def test_dense_stage_matches_reference_at_high_adc(self, rng):
        g = _mlp_graph(rng, (32, 16, 8))
        inv = TileInventory(n_tiles=4, adc_bits=14)
        alloc = allocate(g, inv, rng=0)
        h = rng.uniform(0, 1, (6, 32))
        out = alloc.stages[0].apply(h, 0, noisy=False)
        ref = g.nodes[0].reference_forward(h)
        assert np.corrcoef(out.ravel(), ref.ravel())[0, 1] > 0.999

    def test_conv_stage_shape(self):
        g = reference_conv_graph()
        alloc = allocate(g, TileInventory(n_tiles=8), rng=0)
        imgs = np.random.default_rng(2).uniform(0, 1, (3, 8, 8))
        out = alloc.stages[0].apply(imgs, 0, noisy=False)
        assert out.shape == (3, g.nodes[0].out_features)


class TestAccounting:
    def test_total_costs_cover_programming(self, rng):
        g = _mlp_graph(rng)
        with telemetry.scoped() as scope:
            allocate(g, TileInventory(n_tiles=8), duplication="auto", rng=0)
        costs = RunReport.from_counters(scope.counters)
        assert costs.total_energy > 0
        assert "programming" in costs.categories

    def test_area_scales_with_replication(self, rng):
        g = _mlp_graph(rng)
        single = allocate(g, TileInventory(n_tiles=8), rng=0)
        doubled = allocate(
            g, TileInventory(n_tiles=8), duplication=[2, 2, 2], rng=0
        )
        a1 = sum(single.area_breakdown().values())
        a2 = sum(doubled.area_breakdown().values())
        assert a2 == pytest.approx(2 * a1)

    def test_summary_rows(self, rng):
        g = _mlp_graph(rng)
        alloc = allocate(g, TileInventory(n_tiles=8), rng=0)
        rows = alloc.summary()
        assert [r["stage"] for r in rows] == [n.name for n in g]
        assert all(r["tiles"] >= 1 for r in rows)
