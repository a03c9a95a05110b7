"""Neuromorphic computing on CIM: MLP inference on crossbar accelerators.

Workflow (Section II-D1): an MLP is trained in software (pure NumPy SGD),
traced into a layer graph whose stages are deployed onto
:class:`~repro.core.accelerator.CIMAccelerator` tiles, and inference runs
as analog VMMs.  :func:`accuracy_vs_yield`
reproduces the [38] experiment the paper quotes — "classification accuracy
... with random stuck-at-0 faults is reduced by 35% when the yield drops
to 80%" — on the synthetic substitute dataset.

:class:`CrossbarMLP` is the one deployed-network class and
:func:`_yield_sweep` the one accuracy-vs-yield sweep body;
:mod:`repro.apps.cnn` reuses both for the CNN.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.apps.datasets import gaussian_blobs
from repro.core.accelerator import AcceleratorParams
from repro.pipeline.allocate import deploy
from repro.pipeline.ir import trace_mlp
from repro.utils.parallel import run_grid, seed_sequence_from
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs
from repro.utils.validation import check_positive, check_probability


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


class CrossbarMLP:
    """A trained network running every layer on CIM tiles.

    The network is a traced layer graph
    (:func:`~repro.pipeline.ir.trace_mlp`: per-layer ``input_scale`` from
    the calibration activations) put on tiles by
    :func:`~repro.pipeline.allocate.deploy`, one replica per layer, so
    inference runs the same stage code as the pipeline and the DSE.
    Weights are rescaled to ``[-1, 1]`` per layer; activations are
    rescaled to ``[0, 1]`` before encoding.  The fault-injection hook
    perturbs every tile, after which accuracy can be re-measured — the
    accuracy-vs-yield experiment.

    This is the one deployed-network class: every method below works on
    any deployed graph, and :class:`~repro.apps.cnn.CrossbarCNN` only
    traces a CNN instead.
    """

    def __init__(
        self,
        mlp: MLP,
        calibration: np.ndarray,
        accel_params: Optional[AcceleratorParams] = None,
        rng: RNGLike = None,
    ) -> None:
        self.mlp = mlp
        graph = trace_mlp(mlp, calibration)
        self.stages = deploy(graph, accel_params, rng=rng)

    def forward_one(self, x: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Logits for one sample, all VMMs on the crossbars."""
        return self.forward_batch(np.asarray(x, dtype=float)[None], noisy=noisy)[0]

    def forward_batch(self, x: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Logits for a batch — ``(n, features)``, or ``(n, H, W)``
        images when the first layer is a convolution — all VMMs on the
        crossbars.

        The whole batch flows through each layer's stage
        (:meth:`~repro.pipeline.allocate.StageAllocation.apply`) in one
        pass (a conv stage runs all patches of all images as one
        multi-RHS pass), so IR-drop-aware tiles factorize their nodal
        system once per layer per batch instead of once per sample.
        """
        h = np.asarray(x, dtype=float)
        if self.stages[0].node.kind == "conv2d":
            if h.ndim != 3:
                raise ValueError(f"x must be (batch, H, W), got {h.shape}")
        elif h.ndim != 2:
            raise ValueError(f"x must be (batch, features), got {h.shape}")
        for stage in self.stages:
            h = stage.apply(h, noisy=noisy)
        return h

    def predict(self, x: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Labels for a batch (batched analog inference)."""
        return np.argmax(self.forward_batch(x, noisy=noisy), axis=-1).astype(int)

    def accuracy(self, x: np.ndarray, y: np.ndarray, noisy: bool = False) -> float:
        """Classification accuracy of the deployed network."""
        return float(np.mean(self.predict(x, noisy=noisy) == np.asarray(y)))

    def inject_yield_faults(self, cell_yield: float, rng: RNGLike = None) -> float:
        """Inject SA0 populations on every layer; returns realized rate."""
        rngs = spawn_rngs(rng, len(self.stages))
        return float(
            np.mean(
                [
                    stage.replicas[0].inject_yield_faults(cell_yield, rng=gen)
                    for stage, gen in zip(self.stages, rngs)
                ]
            )
        )

    # ---------------------------------------------------- fault introspection
    def layer_fault_masks(self) -> List[np.ndarray]:
        """Boolean mask per layer flagging *logical* weights whose
        differential cell pair contains at least one stuck cell.

        Fault-tolerance schemes ([38], [42]) operate at this granularity:
        a corrupted weight is frozen at its faulty effective value and the
        healthy weights retrain around it.
        """
        masks = []
        for stage in self.stages:
            mask = np.zeros(stage.node.weights.shape, dtype=bool)
            for core, window, corner in stage.replicas[0].blocks():
                stuck = core.array.stuck_mask
                logical = stuck[:, 0::2] | stuck[:, 1::2]
                mask[window] |= logical[corner]
            masks.append(mask)
        return masks

    def effective_weights(self) -> List[np.ndarray]:
        """The weights the hardware actually implements, decoded from the
        (possibly faulty) conductances, in absolute (software) units."""
        effective = []
        for stage in self.stages:
            out = np.zeros(stage.node.weights.shape)
            for core, window, corner in stage.replicas[0].blocks():
                g = core.array.conductances()
                mapping = core.mapping
                span = mapping.levels.g_max - mapping.levels.g_min
                decoded = (g[:, 0::2] - g[:, 1::2]) * mapping.w_max / span
                out[window] = decoded[corner] * stage.weight_scale
            effective.append(out)
        return effective

    def reprogram(self, weights: List[np.ndarray]) -> None:
        """Reprogram every layer with new absolute-unit weights.

        Stuck cells silently keep their pinned conductances (as in real
        hardware), so reprogramming after fault-aware retraining lands the
        compensating weights on the healthy cells only.
        """
        if len(weights) != len(self.stages):
            raise ValueError(
                f"expected {len(self.stages)} weight matrices, "
                f"got {len(weights)}"
            )
        for stage, w in zip(self.stages, weights):
            scaled = np.asarray(w, dtype=float) / stage.weight_scale
            stage.replicas[0].program_weights(np.clip(scaled, -1.0, 1.0))


def _yield_trial(
    cell_yield: float,
    trial: int,
    rng: np.random.Generator,
    network: type,
    model,
    x_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> Dict[str, float]:
    """One (yield, trial) job: fresh deployment of ``model`` as a
    ``network``, fault population, accuracy.  Module-level so the sweep
    engine's process backend can pickle it."""
    deploy_rng, fault_rng = spawn_rngs(rng, 2)
    deployed = network(model, calibration=x_train, rng=deploy_rng)
    rate = 0.0
    if cell_yield < 1.0:
        rate = deployed.inject_yield_faults(cell_yield, rng=fault_rng)
    return {
        "accuracy": deployed.accuracy(x_test, y_test),
        "fault_rate": rate,
    }


def _yield_sweep(
    network: type,
    train: Callable[[np.random.Generator], tuple],
    yields: Sequence[float],
    trials: int,
    rng: RNGLike,
    workers: Optional[int],
) -> List[Dict[str, float]]:
    """The accuracy-vs-yield sweep body both networks share.

    Checks the grid, then ``train(gen)`` generates the data and trains the
    model serially, returning ``(model, x_train, x_test, y_test)``.  A
    clean ``network`` deployment gives the reference accuracy, and the
    ``trials x len(yields)`` grid of faulty deployments fans out over the
    sweep engine (:func:`repro.utils.parallel.run_grid`), all off one root
    sequence so the rows are a pure function of ``rng``.
    """
    yields = [check_probability("yield", y) for y in yields]
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = ensure_rng(rng)
    model, x_train, x_test, y_test = train(gen)
    root = seed_sequence_from(gen)
    clean_seq, grid_seq = root.spawn(2)
    clean = network(model, calibration=x_train, rng=np.random.default_rng(clean_seq))
    clean_acc = clean.accuracy(x_test, y_test)

    per_point = run_grid(
        _yield_trial,
        yields,
        trials=trials,
        seed=grid_seq,
        workers=workers,
        task_args=(network, model, x_train, x_test, y_test),
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
    Every yield must lie in ``[0, 1]`` and ``trials`` be at least 1; both
    are checked before any data is generated.
    """

    def train(gen: np.random.Generator):
        x, y = gaussian_blobs(
            n_samples=n_samples,
            n_features=n_features,
            n_classes=n_classes,
            separation=separation,
            rng=gen,
        )
        split = int(0.7 * n_samples)
        mlp = MLP([n_features, hidden, n_classes], rng=gen)
        mlp.train(x[:split], y[:split], epochs=epochs, rng=gen)
        return mlp, x[:split], x[split:], y[split:]

    return _yield_sweep(CrossbarMLP, train, yields, trials, rng, workers)
