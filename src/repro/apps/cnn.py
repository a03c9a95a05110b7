"""Convolutional network inference on CIM crossbars.

Section II-E motivates Fig 5 with "CIM-based implementation of machine
learning algorithms such as CNN and DNN"; ISAAC [32] (our periphery
calibration source) is a CNN accelerator.  This module supplies the CNN
side of the story:

* a minimal NumPy CNN (:class:`SimpleCNN`: conv -> ReLU -> dense ->
  softmax) trained with manual gradients on synthetic oriented-stripe
  images;
* :class:`CrossbarCNN` — the same network deployed on
  :class:`~repro.core.accelerator.CIMAccelerator` tiles, with the
  convolution lowered to matrix multiplication by im2col (each image
  patch becomes one wordline-voltage vector; the kernel bank is the
  stationary conductance matrix — the weight-stationary dataflow every
  crossbar CNN accelerator uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.accelerator import AcceleratorParams, CIMAccelerator
from repro.utils.parallel import run_grid, seed_sequence_from
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs
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


class CrossbarCNN:
    """The trained CNN deployed on CIM tiles (conv and dense layers)."""

    def __init__(
        self,
        cnn: SimpleCNN,
        calibration: np.ndarray,
        accel_params: Optional[AcceleratorParams] = None,
        rng: RNGLike = None,
    ) -> None:
        self.cnn = cnn
        rngs = spawn_rngs(rng, 2)
        # Conv kernel bank as a stationary matrix; patch values are
        # already in [0, 1] (image domain), so input_scale is 1.
        self._conv_scale = float(max(np.abs(cnn.conv_w).max(), 1e-12))
        self.conv_accel = CIMAccelerator(
            cnn.conv_w / self._conv_scale,
            params=accel_params,
            rng=rngs[0],
        )
        # Dense layer input scale calibrated on training activations.
        patches, pre = cnn._conv_forward(np.asarray(calibration, dtype=float))
        hidden = np.maximum(pre, 0.0).reshape(calibration.shape[0], -1)
        self._dense_in_scale = float(max(hidden.max(), 1e-12))
        self._dense_scale = float(max(np.abs(cnn.dense_w).max(), 1e-12))
        self.dense_accel = CIMAccelerator(
            cnn.dense_w / self._dense_scale,
            params=accel_params,
            rng=rngs[1],
        )

    def forward_one(self, image: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Logits for one image, every MAC on the crossbars."""
        image = np.asarray(image, dtype=float)
        return self.forward_batch(image[None], noisy=noisy)[0]

    def forward_batch(self, images: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Logits for a batch of images ``(n, H, W)``.

        All patches of all images share the stationary kernel bank, so
        the entire ``n * n_patches`` patch set runs as one multi-RHS pass
        over the conv tiles, and the dense layer sees the whole batch in
        one :meth:`~repro.core.accelerator.CIMAccelerator.vmm_batch` call
        — IR-drop-aware tiles factorize their nodal system once per layer
        per batch instead of once per image.
        """
        images = np.asarray(images, dtype=float)
        if images.ndim != 3:
            raise ValueError(
                f"images must be (batch, H, W), got {images.shape}"
            )
        batch = images.shape[0]
        patches = im2col(images, self.cnn.kernel)
        n_patches = patches.shape[1]
        flat = patches.reshape(batch * n_patches, -1)
        conv_out = (
            self.conv_accel.vmm_batch(np.clip(flat, 0, 1), noisy=noisy)
            * self._conv_scale
            + self.cnn.conv_b
        )
        hidden = np.maximum(conv_out, 0.0).reshape(batch, -1)
        scaled = np.clip(hidden / self._dense_in_scale, 0.0, 1.0)
        return (
            self.dense_accel.vmm_batch(scaled, noisy=noisy)
            * self._dense_scale
            * self._dense_in_scale
            + self.cnn.dense_b
        )

    def predict(self, images: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Labels for a batch (whole batch through the tiles at once)."""
        images = np.asarray(images, dtype=float)
        return np.argmax(self.forward_batch(images, noisy=noisy), axis=-1).astype(
            int
        )

    def accuracy(
        self, images: np.ndarray, labels: np.ndarray, noisy: bool = False
    ) -> float:
        """Classification accuracy of the deployed CNN."""
        return float(
            np.mean(self.predict(images, noisy) == np.asarray(labels))
        )

    def inject_yield_faults(self, cell_yield: float, rng: RNGLike = None) -> float:
        """SA0 fault populations on both layers; returns realized rate."""
        rngs = spawn_rngs(rng, 2)
        r1 = self.conv_accel.inject_yield_faults(cell_yield, rng=rngs[0])
        r2 = self.dense_accel.inject_yield_faults(cell_yield, rng=rngs[1])
        return float((r1 + r2) / 2)


def _cnn_yield_trial(
    cell_yield: float,
    trial: int,
    rng: np.random.Generator,
    cnn: SimpleCNN,
    x_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> dict:
    """One (yield, trial) job for the CNN sweep (picklable, module-level)."""
    deploy_rng, fault_rng = spawn_rngs(rng, 2)
    deployed = CrossbarCNN(cnn, calibration=x_train, rng=deploy_rng)
    rate = 0.0
    if cell_yield < 1.0:
        rate = deployed.inject_yield_faults(cell_yield, rng=fault_rng)
    return {
        "accuracy": deployed.accuracy(x_test, y_test, noisy=False),
        "fault_rate": rate,
    }


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
    :func:`repro.apps.nn.accuracy_vs_yield`.

    Trains :class:`SimpleCNN` once (serial), then fans the
    ``trials x len(yields)`` deployment grid out over the sweep engine;
    every image batch runs through the tiles via the batched patch path.
    Rows are bit-identical for a given ``rng`` at any worker count, and
    so is the telemetry the sweep adds to the caller's scope.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = ensure_rng(rng)
    x, y = synthetic_images(n_samples=n_samples, size=image_size, rng=gen)
    split = int(0.7 * n_samples)
    x_train, y_train = x[:split], y[:split]
    x_test, y_test = x[split:], y[split:]
    cnn = SimpleCNN(image_size=image_size, rng=gen)
    cnn.train(x_train, y_train, epochs=epochs, rng=gen)

    root = seed_sequence_from(gen)
    clean_seq, grid_seq = root.spawn(2)
    clean = CrossbarCNN(
        cnn, calibration=x_train, rng=np.random.default_rng(clean_seq)
    )
    clean_acc = clean.accuracy(x_test, y_test, noisy=False)

    per_point = run_grid(
        _cnn_yield_trial,
        list(yields),
        trials=trials,
        seed=grid_seq,
        workers=workers,
        task_args=(cnn, x_train, x_test, y_test),
    )
    rows = []
    for cell_yield, trial_rows in zip(yields, per_point):
        acc = float(np.mean([t["accuracy"] for t in trial_rows]))
        rate = float(np.mean([t["fault_rate"] for t in trial_rows]))
        rows.append(
            {
                "yield": cell_yield,
                "fault_rate": rate,
                "accuracy": acc,
                "clean_accuracy": clean_acc,
                "drop": clean_acc - acc,
            }
        )
    return rows
