"""Convolutional network inference on CIM crossbars.

Section II-E motivates Fig 5 with "CIM-based implementation of machine
learning algorithms such as CNN and DNN"; ISAAC [32] (our periphery
calibration source) is a CNN accelerator.  This module supplies the CNN
side of the story:

* a minimal NumPy CNN (:class:`SimpleCNN`: conv -> ReLU -> dense ->
  softmax) trained with manual gradients on synthetic oriented-stripe
  images;
* :class:`CrossbarCNN` — the same network traced into a layer graph and
  deployed on :class:`~repro.core.accelerator.CIMAccelerator` tiles, with
  the convolution lowered to matrix multiplication by im2col (each image
  patch becomes one wordline-voltage vector; the kernel bank is the
  stationary conductance matrix — the weight-stationary dataflow every
  crossbar CNN accelerator uses).  It is a
  :class:`~repro.apps.nn.CrossbarMLP` that traces a CNN: inference, fault
  injection and fault introspection are the one deployed-network code;
* :func:`cnn_accuracy_vs_yield` — the [38] accuracy-vs-yield sweep on the
  CNN, through the same sweep body as the MLP's.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.apps.nn import CrossbarMLP, _yield_sweep
from repro.core.accelerator import AcceleratorParams
from repro.pipeline.allocate import deploy
from repro.pipeline.ir import trace_cnn
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive


def synthetic_images(
    n_samples: int = 300,
    size: int = 8,
    noise: float = 0.15,
    rng: RNGLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Oriented-stripe images in three classes (horizontal / vertical /
    diagonal), values in [0, 1] — a task a one-conv-layer net nails."""
    if size < 4:
        raise ValueError(f"size must be >= 4, got {size}")
    gen = ensure_rng(rng)
    labels = gen.integers(0, 3, size=n_samples)
    images = np.zeros((n_samples, size, size))
    grid = np.arange(size)
    for i, label in enumerate(labels):
        phase = int(gen.integers(2))
        if label == 0:    # horizontal stripes
            pattern = ((grid[:, None] + phase) % 2).astype(float)
            pattern = np.broadcast_to(pattern, (size, size))
        elif label == 1:  # vertical stripes
            pattern = ((grid[None, :] + phase) % 2).astype(float)
            pattern = np.broadcast_to(pattern, (size, size))
        else:             # diagonal stripes
            pattern = ((grid[:, None] + grid[None, :] + phase) % 2).astype(
                float
            )
        images[i] = pattern
    images += noise * gen.standard_normal(images.shape)
    return np.clip(images, 0.0, 1.0), labels


def im2col(images: np.ndarray, kernel: int) -> np.ndarray:
    """Extract all valid ``kernel x kernel`` patches.

    ``images``: (batch, H, W) -> (batch, n_patches, kernel*kernel), row-
    major patch order.  This is the lowering that turns convolution into
    the crossbar's native VMM.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 3:
        raise ValueError(f"images must be (batch, H, W), got {images.shape}")
    batch, h, w = images.shape
    if kernel > h or kernel > w:
        raise ValueError(f"kernel {kernel} exceeds image size {h}x{w}")
    out_h, out_w = h - kernel + 1, w - kernel + 1
    patches = np.empty((batch, out_h * out_w, kernel * kernel))
    idx = 0
    for r in range(out_h):
        for c in range(out_w):
            block = images[:, r : r + kernel, c : c + kernel]
            patches[:, idx, :] = block.reshape(batch, -1)
            idx += 1
    return patches


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class SimpleCNN:
    """conv(k x k, 1 -> f) -> ReLU -> flatten -> dense -> softmax."""

    def __init__(
        self,
        image_size: int = 8,
        kernel: int = 3,
        filters: int = 4,
        n_classes: int = 3,
        rng: RNGLike = None,
    ) -> None:
        if kernel >= image_size:
            raise ValueError("kernel must be smaller than the image")
        check_positive("filters", filters)
        check_positive("n_classes", n_classes)
        gen = ensure_rng(rng)
        self.image_size = image_size
        self.kernel = kernel
        self.filters = filters
        self.n_classes = n_classes
        out = image_size - kernel + 1
        self.conv_w = gen.normal(0, 0.3, (kernel * kernel, filters))
        self.conv_b = np.zeros(filters)
        self.dense_w = gen.normal(
            0, np.sqrt(2.0 / (out * out * filters)), (out * out * filters, n_classes)
        )
        self.dense_b = np.zeros(n_classes)

    # ------------------------------------------------------------- forward
    def _conv_forward(self, images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        patches = im2col(images, self.kernel)
        pre = patches @ self.conv_w + self.conv_b
        return patches, pre

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of images."""
        _, pre = self._conv_forward(images)
        hidden = np.maximum(pre, 0.0).reshape(images.shape[0], -1)
        return _softmax(hidden @ self.dense_w + self.dense_b)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Argmax labels."""
        return np.argmax(self.forward(images), axis=-1)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy."""
        return float(np.mean(self.predict(images) == np.asarray(labels)))

    # -------------------------------------------------------------- training
    def train(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        epochs: int = 30,
        lr: float = 0.05,
        batch_size: int = 32,
        rng: RNGLike = None,
    ) -> List[float]:
        """Mini-batch SGD with manual conv/dense gradients."""
        check_positive("epochs", epochs)
        check_positive("lr", lr)
        gen = ensure_rng(rng)
        n = images.shape[0]
        history = []
        for _ in range(epochs):
            order = gen.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                self._step(images[idx], labels[idx], lr)
            history.append(self.accuracy(images, labels))
        return history

    def _step(self, images: np.ndarray, labels: np.ndarray, lr: float) -> None:
        batch = images.shape[0]
        patches, pre = self._conv_forward(images)
        activated = np.maximum(pre, 0.0)
        hidden = activated.reshape(batch, -1)
        probs = _softmax(hidden @ self.dense_w + self.dense_b)

        onehot = np.zeros_like(probs)
        onehot[np.arange(batch), labels] = 1.0
        delta_out = (probs - onehot) / batch

        grad_dense_w = hidden.T @ delta_out
        grad_dense_b = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.dense_w.T).reshape(activated.shape)
        delta_hidden *= pre > 0

        # grad over the shared conv kernel: sum over batch and positions.
        grad_conv_w = np.einsum("bpk,bpf->kf", patches, delta_hidden)
        grad_conv_b = delta_hidden.sum(axis=(0, 1))

        self.dense_w -= lr * grad_dense_w
        self.dense_b -= lr * grad_dense_b
        self.conv_w -= lr * grad_conv_w
        self.conv_b -= lr * grad_conv_b


class CrossbarCNN(CrossbarMLP):
    """The trained CNN deployed on CIM tiles (conv and dense layers).

    Only the trace differs from :class:`~repro.apps.nn.CrossbarMLP`,
    whose inference, fault-injection and introspection methods this
    class inherits: :func:`~repro.pipeline.ir.trace_cnn` gives the conv
    stage the image pixels as they are (``input_scale`` 1) and calibrates
    the dense stage's input scale on the post-conv activations.
    """

    def __init__(
        self,
        cnn: SimpleCNN,
        calibration: np.ndarray,
        accel_params: Optional[AcceleratorParams] = None,
        rng: RNGLike = None,
    ) -> None:
        self.cnn = cnn
        self.stages = deploy(trace_cnn(cnn, calibration), accel_params, rng=rng)


def cnn_accuracy_vs_yield(
    yields=(1.0, 0.9, 0.8, 0.7, 0.6),
    n_samples: int = 240,
    image_size: int = 8,
    trials: int = 3,
    epochs: int = 25,
    rng: RNGLike = 0,
    workers=None,
):
    """Accuracy-vs-yield for the crossbar CNN — the convolutional twin of
    :func:`repro.apps.nn.accuracy_vs_yield`, on the same sweep body.

    Trains :class:`SimpleCNN` once (serial), then fans the
    ``trials x len(yields)`` deployment grid out over the sweep engine;
    every image batch runs through the tiles via the batched patch path.
    Rows are bit-identical for a given ``rng`` at any worker count, and
    so is the telemetry the sweep adds to the caller's scope.
    """

    def train(gen: np.random.Generator):
        x, y = synthetic_images(n_samples=n_samples, size=image_size, rng=gen)
        split = int(0.7 * n_samples)
        cnn = SimpleCNN(image_size=image_size, rng=gen)
        cnn.train(x[:split], y[:split], epochs=epochs, rng=gen)
        return cnn, x[:split], x[split:], y[split:]

    return _yield_sweep(CrossbarCNN, train, yields, trials, rng, workers)
