"""Neuromorphic computing on CIM: MLP inference on crossbar accelerators.

Workflow (Section II-D1): an MLP is trained in software (pure NumPy SGD),
its layers are deployed onto :class:`~repro.core.accelerator.CIMAccelerator`
tiles, and inference runs as analog VMMs.  :func:`accuracy_vs_yield`
reproduces the [38] experiment the paper quotes — "classification accuracy
... with random stuck-at-0 faults is reduced by 35% when the yield drops
to 80%" — on the synthetic substitute dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.datasets import gaussian_blobs
from repro.core.accelerator import AcceleratorParams, CIMAccelerator
from repro.utils.parallel import run_grid, seed_sequence_from
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs
from repro.utils.validation import check_positive


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


class MLP:
    """A minimal two-layer (or deeper) MLP with manual-gradient SGD.

    Layer sizes are given as ``[in, hidden..., out]``; hidden layers use
    ReLU, the output layer softmax cross-entropy.
    """

    def __init__(self, layer_sizes: Sequence[int], rng: RNGLike = None) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be >= 1")
        gen = ensure_rng(rng)
        self.layer_sizes = list(layer_sizes)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(gen.normal(0, scale, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        """Number of weight layers."""
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch ``x``."""
        h = np.asarray(x, dtype=float)
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = _relu(z) if k < self.n_layers - 1 else _softmax(z)
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class labels."""
        return np.argmax(self.forward(x), axis=-1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(x, y)``."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 60,
        lr: float = 0.1,
        batch_size: int = 32,
        rng: RNGLike = None,
    ) -> List[float]:
        """Mini-batch SGD with softmax cross-entropy; returns per-epoch
        training accuracy."""
        check_positive("epochs", epochs)
        check_positive("lr", lr)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        gen = ensure_rng(rng)
        n = x.shape[0]
        history = []
        for _ in range(epochs):
            order = gen.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                self._sgd_step(x[idx], y[idx], lr)
            history.append(self.accuracy(x, y))
        return history

    def _sgd_step(self, xb: np.ndarray, yb: np.ndarray, lr: float) -> None:
        # Forward with cached activations.
        activations = [xb]
        h = xb
        pre = []
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = _relu(z) if k < self.n_layers - 1 else _softmax(z)
            activations.append(h)
        # Backward.
        batch = xb.shape[0]
        onehot = np.zeros_like(activations[-1])
        onehot[np.arange(batch), yb] = 1.0
        delta = (activations[-1] - onehot) / batch
        for k in range(self.n_layers - 1, -1, -1):
            grad_w = activations[k].T @ delta
            grad_b = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ self.weights[k].T) * (pre[k - 1] > 0)
            self.weights[k] -= lr * grad_w
            self.biases[k] -= lr * grad_b


@dataclass
class _DeployedLayer:
    """One MLP layer deployed to a crossbar accelerator."""

    accelerator: CIMAccelerator
    bias: np.ndarray
    weight_scale: float       # multiply decoded output by this
    input_scale: float        # inputs were divided by this before encode
    last: bool


class CrossbarMLP:
    """MLP inference engine running every layer on CIM tiles.

    Weights are rescaled to ``[-1, 1]`` per layer; activations are
    rescaled to ``[0, 1]`` using calibration data before encoding.  The
    fault-injection hook perturbs every tile, after which accuracy can be
    re-measured — the accuracy-vs-yield experiment.
    """

    def __init__(
        self,
        mlp: MLP,
        calibration: np.ndarray,
        accel_params: Optional[AcceleratorParams] = None,
        rng: RNGLike = None,
    ) -> None:
        self.mlp = mlp
        calibration = np.asarray(calibration, dtype=float)
        rngs = spawn_rngs(rng, mlp.n_layers)
        self.layers: List[_DeployedLayer] = []
        h = calibration
        for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            input_scale = float(max(h.max(), 1e-12))
            w_scale = float(max(np.abs(w).max(), 1e-12))
            accel = CIMAccelerator(
                w / w_scale,
                params=accel_params,
                rng=rngs[k],
            )
            self.layers.append(
                _DeployedLayer(
                    accelerator=accel,
                    bias=b,
                    weight_scale=w_scale * input_scale,
                    input_scale=input_scale,
                    last=k == mlp.n_layers - 1,
                )
            )
            z = h @ w + b
            h = _relu(z) if k < mlp.n_layers - 1 else z
        self._n_classes = mlp.layer_sizes[-1]

    def forward_one(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Logits for one sample, all VMMs on the crossbars."""
        return self.forward_batch(np.asarray(x, dtype=float)[None], noisy=noisy)[0]

    def forward_batch(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Logits for a batch ``(n, features)``, all VMMs on the crossbars.

        The whole batch flows through each layer's accelerator in one
        :meth:`~repro.core.accelerator.CIMAccelerator.vmm_batch` call, so
        IR-drop-aware tiles factorize their nodal system once per layer
        per batch instead of once per sample.
        """
        h = np.asarray(x, dtype=float)
        if h.ndim != 2:
            raise ValueError(f"x must be (batch, features), got {h.shape}")
        for layer in self.layers:
            scaled = np.clip(h / layer.input_scale, 0.0, 1.0)
            z = (
                layer.accelerator.vmm_batch(scaled, noisy=noisy)
                * layer.weight_scale
                + layer.bias
            )
            h = z if layer.last else _relu(z)
        return h

    def predict(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Labels for a batch (batched analog inference)."""
        x = np.asarray(x, dtype=float)
        return np.argmax(self.forward_batch(x, noisy=noisy), axis=-1).astype(int)

    def accuracy(self, x: np.ndarray, y: np.ndarray, noisy: bool = True) -> float:
        """Classification accuracy of the deployed network."""
        return float(np.mean(self.predict(x, noisy=noisy) == np.asarray(y)))

    def inject_yield_faults(self, cell_yield: float, rng: RNGLike = None) -> float:
        """Inject SA0 populations on every layer; returns realized rate."""
        rates = []
        rngs = spawn_rngs(rng, len(self.layers))
        for layer, gen in zip(self.layers, rngs):
            rates.append(layer.accelerator.inject_yield_faults(cell_yield, rng=gen))
        return float(np.mean(rates))

    # ---------------------------------------------------- fault introspection
    def layer_fault_masks(self) -> List[np.ndarray]:
        """Boolean mask per layer flagging *logical* weights whose
        differential cell pair contains at least one stuck cell.

        Fault-tolerance schemes ([38], [42]) operate at this granularity:
        a corrupted weight is frozen at its faulty effective value and the
        healthy weights retrain around it.
        """
        masks = []
        for layer, w in zip(self.layers, self.mlp.weights):
            rows, cols = w.shape
            mask = np.zeros((rows, cols), dtype=bool)
            accel = layer.accelerator
            p = accel.params
            for bi, tile_row in enumerate(accel.tiles):
                for bj, core in enumerate(tile_row):
                    stuck = core.array.stuck_mask
                    logical = stuck[:, 0::2] | stuck[:, 1::2]
                    r0, c0 = bi * p.tile_rows, bj * p.tile_cols
                    r1 = min(r0 + p.tile_rows, rows)
                    c1 = min(c0 + p.tile_cols, cols)
                    mask[r0:r1, c0:c1] |= logical[: r1 - r0, : c1 - c0]
            masks.append(mask)
        return masks

    def effective_weights(self) -> List[np.ndarray]:
        """The weights the hardware actually implements, decoded from the
        (possibly faulty) conductances, in absolute (software) units."""
        effective = []
        for layer, w in zip(self.layers, self.mlp.weights):
            rows, cols = w.shape
            out = np.zeros((rows, cols))
            accel = layer.accelerator
            p = accel.params
            w_scale = layer.weight_scale / layer.input_scale
            for bi, tile_row in enumerate(accel.tiles):
                for bj, core in enumerate(tile_row):
                    g = core.array.conductances()
                    mapping = core.mapping
                    span = mapping.levels.g_max - mapping.levels.g_min
                    decoded = (
                        (g[:, 0::2] - g[:, 1::2]) * mapping.w_max / span
                    )
                    r0, c0 = bi * p.tile_rows, bj * p.tile_cols
                    r1 = min(r0 + p.tile_rows, rows)
                    c1 = min(c0 + p.tile_cols, cols)
                    out[r0:r1, c0:c1] = decoded[: r1 - r0, : c1 - c0] * w_scale
            effective.append(out)
        return effective

    def reprogram(self, weights: List[np.ndarray]) -> None:
        """Reprogram every layer with new absolute-unit weights.

        Stuck cells silently keep their pinned conductances (as in real
        hardware), so reprogramming after fault-aware retraining lands the
        compensating weights on the healthy cells only.
        """
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} weight matrices, got {len(weights)}"
            )
        for layer, w in zip(self.layers, weights):
            accel = layer.accelerator
            p = accel.params
            w_scale = layer.weight_scale / layer.input_scale
            scaled = np.clip(np.asarray(w, dtype=float) / w_scale, -1.0, 1.0)
            rows, cols = scaled.shape
            for bi, tile_row in enumerate(accel.tiles):
                for bj, core in enumerate(tile_row):
                    block = np.zeros((p.tile_rows, p.tile_cols))
                    r0, c0 = bi * p.tile_rows, bj * p.tile_cols
                    r1 = min(r0 + p.tile_rows, rows)
                    c1 = min(c0 + p.tile_cols, cols)
                    block[: r1 - r0, : c1 - c0] = scaled[r0:r1, c0:c1]
                    core.program_weights(block)


def _rebuild_mlp(
    layer_sizes: Sequence[int],
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
) -> MLP:
    """Reassemble a trained MLP from its arrays without re-running
    ``__init__`` (no training, no RNG).  The sweep ships the model this
    way so the weight/bias arrays ride in the engine's shared-memory pack
    instead of being pickled into every worker."""
    mlp = MLP.__new__(MLP)
    mlp.layer_sizes = list(layer_sizes)
    mlp.weights = list(weights)
    mlp.biases = list(biases)
    return mlp


def _yield_trial(
    cell_yield: float,
    trial: int,
    rng: np.random.Generator,
    layer_sizes: Tuple[int, ...],
    weights: Tuple[np.ndarray, ...],
    biases: Tuple[np.ndarray, ...],
    x_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> Dict[str, float]:
    """One (yield, trial) job: fresh deployment, fault population,
    accuracy.  Module-level so the sweep engine's process backend can
    pickle it; model state arrives as arrays (see :func:`_rebuild_mlp`)."""
    mlp = _rebuild_mlp(layer_sizes, weights, biases)
    deploy_rng, fault_rng = spawn_rngs(rng, 2)
    deployed = CrossbarMLP(mlp, calibration=x_train, rng=deploy_rng)
    rate = 0.0
    if cell_yield < 1.0:
        rate = deployed.inject_yield_faults(cell_yield, rng=fault_rng)
    return {
        "accuracy": deployed.accuracy(x_test, y_test, noisy=False),
        "fault_rate": rate,
    }


def accuracy_vs_yield(
    yields: Sequence[float] = (1.0, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6),
    n_samples: int = 400,
    n_features: int = 16,
    n_classes: int = 6,
    hidden: int = 12,
    separation: float = 1.5,
    trials: int = 3,
    rng: RNGLike = 0,
    epochs: int = 60,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """The [38] experiment: train once, deploy, sweep yield, measure
    accuracy.  Returns rows of ``{"yield", "fault_rate", "accuracy",
    "clean_accuracy", "drop"}``.  Telemetry lands in the caller's scope
    (grid jobs folded in flat job order): wrap the call in
    :func:`repro.utils.telemetry.scoped` to capture its report.

    Defaults are calibrated so the clean network is near-perfect and the
    drop at 80% yield lands near the paper's quoted ~35% (the shape, not
    the absolute ImageNet numbers, is the reproduction target).

    Training runs once, serially; the ``trials x len(yields)`` grid of
    deployments then fans out over the sweep engine
    (:func:`repro.utils.parallel.run_grid`).  Each grid job gets its own
    spawned stream, so the rows are bit-identical for a given ``rng`` at
    any ``workers`` count (``0`` = serial, ``None`` = ``REPRO_WORKERS``).
    """
    gen = ensure_rng(rng)
    x, y = gaussian_blobs(
        n_samples=n_samples,
        n_features=n_features,
        n_classes=n_classes,
        separation=separation,
        rng=gen,
    )
    split = int(0.7 * n_samples)
    x_train, y_train = x[:split], y[:split]
    x_test, y_test = x[split:], y[split:]
    mlp = MLP([n_features, hidden, n_classes], rng=gen)
    mlp.train(x_train, y_train, epochs=epochs, rng=gen)

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # Clean reference deployment, then the sweep grid, all off one root
    # sequence so the whole experiment is a pure function of ``rng``.
    root = seed_sequence_from(gen)
    clean_seq, grid_seq = root.spawn(2)
    clean = CrossbarMLP(
        mlp, calibration=x_train, rng=np.random.default_rng(clean_seq)
    )
    clean_acc = clean.accuracy(x_test, y_test, noisy=False)

    per_point = run_grid(
        _yield_trial,
        list(yields),
        trials=trials,
        seed=grid_seq,
        workers=workers,
        task_args=(
            tuple(mlp.layer_sizes),
            tuple(mlp.weights),
            tuple(mlp.biases),
            x_train,
            x_test,
            y_test,
        ),
    )
    rows: List[Dict[str, float]] = []
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
