"""Tests for the neuromorphic MLP on CIM, the deployed-network class both
networks share, and the [38] yield experiment."""

import numpy as np
import pytest

from repro.apps.datasets import gaussian_blobs
from repro.apps.cnn import CrossbarCNN, SimpleCNN, cnn_accuracy_vs_yield
from repro.apps.nn import MLP, CrossbarMLP, accuracy_vs_yield


@pytest.fixture(params=["mlp", "cnn"])
def network(request):
    """``(deploy(rng), x, y)`` for each deployed network: the trained MLP
    as a :class:`CrossbarMLP`, the trained CNN as a :class:`CrossbarCNN`."""
    cls = {"mlp": CrossbarMLP, "cnn": CrossbarCNN}[request.param]
    model, x, y = request.getfixturevalue(f"trained_{request.param}")
    return (lambda rng: cls(model, calibration=x[:200], rng=rng)), x, y


class TestSoftwareMLP:
    def test_training_improves_accuracy(self):
        x, y = gaussian_blobs(n_samples=200, rng=3)
        mlp = MLP([16, 12, 4], rng=4)
        before = mlp.accuracy(x, y)
        mlp.train(x, y, epochs=30, rng=5)
        assert mlp.accuracy(x, y) > max(before, 0.8)

    def test_forward_is_distribution(self, trained_mlp):
        mlp, x, _ = trained_mlp
        probs = mlp.forward(x[:10])
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_layer_size_validation(self):
        with pytest.raises(ValueError):
            MLP([16])
        with pytest.raises(ValueError):
            MLP([16, 0, 4])


class TestCrossbarDeployment:
    def test_deployed_accuracy_close_to_software(self, trained_mlp):
        mlp, x, y = trained_mlp
        deployed = CrossbarMLP(mlp, calibration=x[:200], rng=6)
        sw = mlp.accuracy(x[200:], y[200:])
        hw = deployed.accuracy(x[200:], y[200:], noisy=False)
        assert hw >= sw - 0.1

    def test_predictions_mostly_agree(self, trained_mlp):
        mlp, x, y = trained_mlp
        deployed = CrossbarMLP(mlp, calibration=x[:200], rng=7)
        agreement = np.mean(
            deployed.predict(x[200:250], noisy=False) == mlp.predict(x[200:250])
        )
        assert agreement > 0.9


class TestDeployedNetwork:
    """The one deployed-network code, on the MLP and the CNN graph."""

    def test_batched_forward_matches_per_sample(self, network):
        """predict/accuracy send the whole batch through vmm_batch; the
        result must equal the per-sample path exactly (noisy=False)."""
        deploy, x, _ = network
        deployed = deploy(7)
        batched = deployed.forward_batch(x[200:220])
        looped = np.stack([deployed.forward_one(s) for s in x[200:220]])
        assert np.allclose(batched, looped, atol=1e-12)

    def test_forward_batch_shape_validated(self, network):
        deploy, x, _ = network
        with pytest.raises(ValueError, match="batch"):
            deploy(8).forward_batch(x[0])

    def test_faults_degrade_accuracy(self, network):
        deploy, x, y = network
        deployed = deploy(8)
        clean = deployed.accuracy(x[200:], y[200:])
        rate = deployed.inject_yield_faults(0.6, rng=9)
        faulty = deployed.accuracy(x[200:], y[200:])
        assert rate == pytest.approx(0.4, abs=0.06)
        assert faulty < clean


class TestYieldSweepValidation:
    """Both yield sweeps check their grid before generating data."""

    @pytest.mark.parametrize(
        "sweep, model",
        [(accuracy_vs_yield, MLP), (cnn_accuracy_vs_yield, SimpleCNN)],
        ids=["mlp", "cnn"],
    )
    @pytest.mark.parametrize(
        "bad",
        [{"yields": (1.0, 1.5)}, {"yields": (-0.5,)}, {"trials": 0}],
        ids=["yield-above-1", "yield-below-0", "no-trials"],
    )
    def test_rejected_before_training(self, monkeypatch, sweep, model, bad):
        def train(*args, **kwargs):
            raise AssertionError("trained before the grid was checked")

        monkeypatch.setattr(model, "train", train)
        with pytest.raises(ValueError, match="yield|trials"):
            sweep(**bad)


class TestAccuracyVsYield:
    """The [38] experiment the paper quotes."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return accuracy_vs_yield(
            yields=(1.0, 0.9, 0.8, 0.6), n_samples=300, rng=0
        )

    def test_clean_network_is_accurate(self, sweep):
        assert sweep[0]["accuracy"] > 0.9

    def test_accuracy_degrades_with_yield(self, sweep):
        accs = [row["accuracy"] for row in sweep]
        assert accs[-1] < accs[0]
        assert sweep[-1]["drop"] > sweep[1]["drop"]

    def test_drop_at_80_percent_yield_substantial(self, sweep):
        """'reduced by 35% when the yield drops to 80%' — we require the
        same order of magnitude (>= 20 points) on the synthetic stand-in."""
        row = next(r for r in sweep if r["yield"] == 0.8)
        assert row["drop"] >= 0.20

    def test_fault_rates_match_yield(self, sweep):
        for row in sweep:
            if row["yield"] < 1.0:
                assert row["fault_rate"] == pytest.approx(
                    1 - row["yield"], abs=0.05
                )
