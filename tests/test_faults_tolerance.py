"""Tests for fault-tolerance schemes (retraining [38], remapping [43])."""

import numpy as np
import pytest

from repro.apps.datasets import gaussian_blobs
from repro.apps.nn import MLP, CrossbarMLP
from repro.faults.tolerance import (
    RowRemapRepair,
    fault_aware_retrain,
)


@pytest.fixture(scope="module")
def faulty_deployment():
    x, y = gaussian_blobs(
        n_samples=400, n_features=16, n_classes=6, separation=1.5, rng=0
    )
    mlp = MLP([16, 12, 6], rng=1)
    mlp.train(x[:280], y[:280], epochs=60, rng=2)
    deployed = CrossbarMLP(mlp, calibration=x[:280], rng=3)
    clean = deployed.accuracy(x[280:], y[280:], noisy=False)
    deployed.inject_yield_faults(0.8, rng=4)
    return deployed, x, y, clean


class TestFaultIntrospection:
    def test_masks_match_stuck_cells(self, faulty_deployment):
        deployed, *_ = faulty_deployment
        masks = deployed.layer_fault_masks()
        assert len(masks) == len(deployed.stages)
        # ~20% cell faults, differential pairs double the exposure.
        assert 0.2 < masks[0].mean() < 0.6

    def test_effective_weights_deviate_where_masked(self, faulty_deployment):
        deployed, *_ = faulty_deployment
        masks = deployed.layer_fault_masks()
        effective = deployed.effective_weights()
        for w_true, w_eff, mask in zip(
            deployed.mlp.weights, effective, masks
        ):
            # Healthy weights decode back to the trained values.
            healthy_err = np.abs(w_eff[~mask] - w_true[~mask])
            assert healthy_err.max() < 1e-6
            # Faulty weights deviate.
            if mask.any():
                assert np.abs(w_eff[mask] - w_true[mask]).max() > 0.01

    def test_reprogram_shape_checked(self, faulty_deployment):
        deployed, *_ = faulty_deployment
        with pytest.raises(ValueError):
            deployed.reprogram([np.zeros((2, 2))])


class TestFaultAwareRetraining:
    def test_recovers_most_of_the_drop(self, faulty_deployment):
        """The [38] result: retraining around frozen faulty weights
        recovers a large share of the yield-induced accuracy loss."""
        deployed, x, y, clean = faulty_deployment
        report = fault_aware_retrain(
            deployed, x[:280], y[:280], x[280:], y[280:], epochs=40, rng=5
        )
        drop = clean - report.accuracy_before
        assert drop > 0.15                       # the fault hit was real
        assert report.recovered > drop * 0.5     # most of it comes back
        assert report.accuracy_after > 0.8

    def test_frozen_fraction_reported(self, faulty_deployment):
        deployed, x, y, _ = faulty_deployment
        report = fault_aware_retrain(
            deployed, x[:280], y[:280], x[280:], y[280:], epochs=5, rng=6
        )
        assert len(report.frozen_fraction) == 2
        assert all(0 < f < 1 for f in report.frozen_fraction)

    def test_validation(self, faulty_deployment):
        deployed, x, y, _ = faulty_deployment
        with pytest.raises(ValueError):
            fault_aware_retrain(
                deployed, x[:10], y[:10], x[:10], y[:10], epochs=0
            )


class TestNoiseAwareTraining:
    """[42]-style variation-aware training."""

    @pytest.fixture(scope="class")
    def models(self):
        from repro.faults.tolerance import noise_aware_train

        x, y = gaussian_blobs(
            n_samples=400, n_features=16, n_classes=6, separation=1.5, rng=0
        )
        baseline = MLP([16, 12, 6], rng=1)
        baseline.train(x[:280], y[:280], epochs=60, rng=2)
        hardened = MLP([16, 12, 6], rng=1)
        noise_aware_train(
            hardened, x[:280], y[:280],
            weight_noise_sigma=0.5, epochs=60, rng=2,
        )
        return baseline, hardened, x, y

    @staticmethod
    def _noisy_accuracy(model, x, y, sigma, trials=30):
        gen = np.random.default_rng(9)
        accs = []
        for _ in range(trials):
            saved = [w.copy() for w in model.weights]
            for w in model.weights:
                w *= np.exp(sigma * gen.standard_normal(w.shape))
            accs.append(model.accuracy(x, y))
            for k, s in enumerate(saved):
                model.weights[k] = s
        return float(np.mean(accs))

    def test_hardened_model_more_robust(self, models):
        baseline, hardened, x, y = models
        b = self._noisy_accuracy(baseline, x[280:], y[280:], sigma=0.5)
        h = self._noisy_accuracy(hardened, x[280:], y[280:], sigma=0.5)
        assert h > b + 0.03

    def test_clean_accuracy_cost_bounded(self, models):
        """Robustness costs some clean accuracy — but not much."""
        baseline, hardened, x, y = models
        b = baseline.accuracy(x[280:], y[280:])
        h = hardened.accuracy(x[280:], y[280:])
        assert h > b - 0.15

    def test_validation(self):
        from repro.faults.tolerance import noise_aware_train

        with pytest.raises(ValueError):
            noise_aware_train(
                MLP([4, 2], rng=0),
                np.zeros((4, 4)),
                np.zeros(4, dtype=int),
                weight_noise_sigma=-0.1,
            )


class TestRowRemapRepair:
    def test_plans_worst_rows_first(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, :5] = True   # 5 faults
        mask[6, :2] = True   # 2 faults
        repair = RowRemapRepair(n_spare=1)
        assert repair.plan(mask) == [2]

    def test_repair_rate(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, :5] = True
        mask[6, :2] = True
        repair = RowRemapRepair(n_spare=2)
        assert repair.repaired_fault_count(mask) == 0
        assert repair.repair_rate(mask) == 1.0
        half = RowRemapRepair(n_spare=1)
        assert half.repair_rate(mask) == pytest.approx(5 / 7)

    def test_no_spares_no_repair(self):
        mask = np.ones((4, 4), dtype=bool)
        repair = RowRemapRepair(n_spare=0)
        assert repair.plan(mask) == []
        assert repair.repair_rate(mask) == 0.0

    def test_clean_array_trivially_repaired(self):
        assert RowRemapRepair(n_spare=2).repair_rate(np.zeros((4, 4), bool)) == 1.0

    def test_negative_spares_rejected(self):
        with pytest.raises(ValueError):
            RowRemapRepair(n_spare=-1)
