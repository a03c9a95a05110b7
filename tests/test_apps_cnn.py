"""Tests for the CNN-on-CIM application."""

import numpy as np
import pytest

from repro.apps.cnn import CrossbarCNN, SimpleCNN, im2col, synthetic_images


class TestSyntheticImages:
    def test_shapes_and_range(self):
        x, y = synthetic_images(n_samples=50, size=8, rng=0)
        assert x.shape == (50, 8, 8)
        assert y.shape == (50,)
        assert x.min() >= 0 and x.max() <= 1
        assert set(np.unique(y)).issubset({0, 1, 2})

    def test_classes_are_separable_patterns(self):
        x, y = synthetic_images(n_samples=200, noise=0.0, rng=1)
        # Horizontal stripes: rows constant; vertical: columns constant.
        horizontal = x[y == 0][0]
        assert np.allclose(horizontal, horizontal[:, :1])
        vertical = x[y == 1][0]
        assert np.allclose(vertical, vertical[:1, :])

    def test_size_validated(self):
        with pytest.raises(ValueError):
            synthetic_images(size=2)


class TestIm2col:
    def test_patch_count_and_content(self):
        images = np.arange(16, dtype=float).reshape(1, 4, 4)
        patches = im2col(images, 3)
        assert patches.shape == (1, 4, 9)
        assert np.allclose(patches[0, 0], images[0, :3, :3].ravel())
        assert np.allclose(patches[0, 3], images[0, 1:4, 1:4].ravel())

    def test_conv_as_matmul(self, rng):
        """im2col @ kernel == direct convolution."""
        images = rng.uniform(0, 1, (2, 6, 6))
        kernel = rng.normal(0, 1, (3, 3))
        patches = im2col(images, 3)
        via_matmul = (patches @ kernel.ravel()).reshape(2, 4, 4)
        direct = np.zeros((2, 4, 4))
        for r in range(4):
            for c in range(4):
                direct[:, r, c] = (
                    images[:, r : r + 3, c : c + 3] * kernel
                ).sum(axis=(1, 2))
        assert np.allclose(via_matmul, direct)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 4, 4)), 5)


class TestSoftwareCNN:
    def test_learns_oriented_stripes(self, trained_cnn):
        cnn, x, y = trained_cnn
        assert cnn.accuracy(x[200:], y[200:]) > 0.9

    def test_forward_distribution(self, trained_cnn):
        cnn, x, _ = trained_cnn
        probs = cnn.forward(x[:5])
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_kernel_size_validated(self):
        with pytest.raises(ValueError):
            SimpleCNN(image_size=4, kernel=4)


class TestCrossbarDeployment:
    def test_deployed_accuracy_holds(self, trained_cnn):
        cnn, x, y = trained_cnn
        deployed = CrossbarCNN(cnn, calibration=x[:200], rng=3)
        assert deployed.accuracy(x[200:250], y[200:250]) > 0.9

    def test_logits_track_software(self, trained_cnn):
        cnn, x, _ = trained_cnn
        deployed = CrossbarCNN(cnn, calibration=x[:200], rng=4)
        patches, pre = cnn._conv_forward(x[:1])
        hidden = np.maximum(pre, 0).reshape(1, -1)
        sw_logits = (hidden @ cnn.dense_w + cnn.dense_b)[0]
        hw_logits = deployed.forward_one(x[0])
        assert np.corrcoef(sw_logits, hw_logits)[0, 1] > 0.99

    def test_fault_introspection(self, trained_cnn):
        """Fault masks, decoded weights and reprogramming cover the conv
        and the dense stage, as they do the MLP's layers."""
        cnn, x, _ = trained_cnn
        deployed = CrossbarCNN(cnn, calibration=x[:200], rng=9)
        deployed.inject_yield_faults(0.8, rng=10)
        trained = [cnn.conv_w, cnn.dense_w]
        masks = deployed.layer_fault_masks()
        assert [m.shape for m in masks] == [w.shape for w in trained]
        for w_true, w_eff, mask in zip(
            trained, deployed.effective_weights(), masks
        ):
            assert mask.any()
            assert np.abs(w_eff[~mask] - w_true[~mask]).max() < 1e-6
        deployed.reprogram([np.zeros_like(w) for w in trained])
        for w_eff, mask in zip(deployed.effective_weights(), masks):
            assert np.abs(w_eff[~mask]).max() < 1e-6
        with pytest.raises(ValueError):
            deployed.reprogram(trained[:1])
