"""Tests for in-situ training (repro.workloads.training)."""

import numpy as np
import pytest

from repro.devices.reram import ConductanceLevels, ReRAMCell, ReRAMCellParams
from repro.devices.variability import (
    DriftModel,
    ReadNoiseModel,
    VariabilityStack,
    WriteVariationModel,
)
from repro.workloads import training
from repro.workloads.training import (
    InSituDense,
    InSituTrainer,
    TrainingParams,
    explore_training,
    outer_product_delta,
    train_insitu,
)


class TestOuterProductDelta:
    def test_fast_bit_equal_to_scalar(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (16, 12))
        d = rng.normal(size=(16, 5))
        assert np.array_equal(
            outer_product_delta(x, d),
            training._outer_product_delta_scalar(x, d),
        )

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (8, 4))
        d = rng.normal(size=(8, 3))
        assert np.allclose(outer_product_delta(x, d), x.T @ d)

    def test_mismatched_batch_rejected(self):
        for fn in (outer_product_delta, training._outer_product_delta_scalar):
            with pytest.raises(ValueError, match="batch"):
                fn(np.zeros((2, 2)), np.zeros((3, 2)))


class TestInSituDense:
    def test_targets_on_conductance_ladder(self):
        params = TrainingParams(n_features=6, n_classes=3)
        layer = InSituDense(params, rng=0, write_rng=1)
        gp, gn = layer.targets()
        ladder = layer.levels.targets()
        for g in (gp, gn):
            dist = np.min(np.abs(g[..., None] - ladder[None, None]), axis=-1)
            assert np.all(dist < 1e-12)

    def test_forward_tracks_shadow_weights(self):
        # With fresh devices (no noise/faults/drift yet) the analog
        # forward must agree with the shadow weights up to ladder
        # quantization.
        params = TrainingParams(n_features=8, n_classes=4, n_levels=64)
        layer = InSituDense(params, rng=0, write_rng=1)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (10, 8))
        analog = layer.forward(x)
        digital = x @ layer.w + layer.bias
        # One ladder step of conductance error per weight, amplified by
        # the row count, bounds the logit deviation.
        tol = 8 * layer.levels.spacing * layer._g_scale
        assert np.max(np.abs(analog - digital)) <= tol + 1e-12

    def test_write_verify_only_pulses_moved_cells(self):
        params = TrainingParams(
            n_features=4, n_classes=2, write_sigma=0.0, n_levels=16
        )
        layer = InSituDense(params, rng=0, write_rng=1)
        before = layer.pos.write_counts()
        # Reprogramming to the *current* targets must be a no-op.
        gp, _ = layer.targets()
        writes = layer._write_verify(layer.pos, gp)
        assert writes.sum() == 0
        assert np.array_equal(layer.pos.write_counts(), before)

    def test_dead_cells_not_pulsed(self):
        params = TrainingParams(n_features=4, n_classes=2, write_sigma=0.0)
        layer = InSituDense(params, rng=0, write_rng=1)
        layer.pos.stick_cell(0, 0, layer.levels.g_max)
        target = np.full(layer.pos.shape, layer.levels.g_min)
        writes = layer._write_verify(layer.pos, target)
        assert writes[0, 0] == 0
        assert writes[1:].sum() > 0 or writes[0, 1] > 0


class TestWriteVerifyOracle:
    def test_pulse_math_matches_reram_cell(self):
        """The array write-verify loop is per-pulse bit-identical to
        ReRAMCell.program_with_verify: same lognormal landing, same clip,
        same noise-margin acceptance, same rng draw order."""
        sigma = 0.2
        levels = ConductanceLevels(n_levels=16)
        target_level = 3

        cell = ReRAMCell(
            ReRAMCellParams(levels=levels, endurance=10**9),
            variability=VariabilityStack(
                write=WriteVariationModel(sigma=sigma),
                read=ReadNoiseModel(sigma=0.0),
                drift=DriftModel(nu=0.0),
            ),
            rng=np.random.default_rng(42),
        )
        cell.form()  # consumes one uniform draw; lands at g_max

        write_rng = np.random.default_rng(42)
        write_rng.random()  # mirror the cell's forming draw
        params = TrainingParams(
            n_features=1,
            n_classes=1,
            write_sigma=sigma,
            max_write_iterations=10,
            n_levels=16,
        )
        layer = InSituDense(params, rng=0, write_rng=write_rng)
        layer.pos.program(np.full((1, 1), levels.g_max))

        pulses = cell.program_with_verify(target_level, max_iterations=10)
        target = np.full((1, 1), levels.target(target_level))
        writes = layer._write_verify(layer.pos, target)

        assert int(writes[0, 0]) == pulses
        assert layer.pos.conductances()[0, 0] == pytest.approx(
            cell.conductance, rel=0, abs=0
        )


class TestTrainerDeterminism:
    def test_fast_scalar_bit_identical_including_rng_state(self, monkeypatch):
        p = TrainingParams(epochs=2)
        fast = InSituTrainer(p, rng=7)
        fast_rows = fast.run()
        monkeypatch.setattr(
            training, "outer_product_delta",
            training._outer_product_delta_scalar,
        )
        monkeypatch.setattr(
            training, "_write_noise", training._write_noise_scalar
        )
        scalar = InSituTrainer(p, rng=7)
        assert fast_rows == scalar.run()
        assert (
            fast.layer.write_rng.bit_generator.state
            == scalar.layer.write_rng.bit_generator.state
        )
        assert np.array_equal(
            fast.layer.pos.conductances(), scalar.layer.pos.conductances()
        )
        assert np.array_equal(
            fast.layer.neg.write_counts(), scalar.layer.neg.write_counts()
        )

    def test_same_seed_same_trajectory(self):
        p = TrainingParams(epochs=2)
        assert (
            InSituTrainer(p, rng=3).run() == InSituTrainer(p, rng=3).run()
        )


class TestEnduranceAndAging:
    def test_dead_cells_accumulate_over_epochs(self):
        result = train_insitu(
            TrainingParams(epochs=5, characteristic_life=8.0), rng=3
        )
        dead = [row["dead_cells"] for row in result["history"]]
        assert dead == sorted(dead)
        assert dead[-1] > dead[0] > 0

    def test_huge_endurance_keeps_cells_alive(self):
        result = train_insitu(
            TrainingParams(epochs=3, characteristic_life=1e9), rng=3
        )
        assert result["dead_cells"] == 0
        assert result["final_accuracy"] > 0.9

    def test_programming_energy_charged(self):
        result = train_insitu(TrainingParams(epochs=2), rng=0)
        assert result["write_energy_j"] > 0
        assert result["total_pulses"] > 0

    def test_energy_scales_with_pulses(self):
        trainer = InSituTrainer(TrainingParams(epochs=2), rng=0)
        trainer.run()
        per_array = [
            (sim.costs.total.energy, sim.write_cycles.sum())
            for sim in trainer.endurance
        ]
        for energy, pulses in per_array:
            assert pulses > 0
            assert energy > 0

    def test_drift_degrades_against_driftless(self):
        base = TrainingParams(
            epochs=3, characteristic_life=1e9, aging_seconds=1e7
        )
        still = train_insitu(
            TrainingParams(**{**base.__dict__, "drift_nu": 0.0}), rng=3
        )
        drifting = train_insitu(
            TrainingParams(**{**base.__dict__, "drift_nu": 0.3}), rng=3
        )
        # Heavy drift shrinks the differential signal; it must never
        # *improve* the final model.
        assert (
            drifting["final_accuracy"] <= still["final_accuracy"]
        )


class TestExploreTraining:
    def test_rows_cover_grid(self):
        rows = explore_training(
            lives=(8.0, 1e6), drift_nus=(0.01,), epochs=2, workers=0
        )
        assert len(rows) == 2
        assert all(r["feasible"] for r in rows)
        assert {r["characteristic_life"] for r in rows} == {8.0, 1e6}
        assert all("accuracy_epoch1" in r for r in rows)

    def test_serial_parallel_bit_identical(self):
        kwargs = dict(lives=(8.0, 1e6), drift_nus=(0.01,), epochs=2, seed=4)
        assert explore_training(workers=0, **kwargs) == explore_training(
            workers=2, **kwargs
        )

    def test_empty_grid(self):
        assert explore_training(lives=(), workers=0) == []
