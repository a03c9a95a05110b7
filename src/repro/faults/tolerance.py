"""Fault-tolerance schemes for CIM neural inference.

Section III motivates these directly: "In order to recover to an
acceptable level of accuracy in CIM applications, fault detection and
fault tolerance are necessary", citing fault-tolerant training [38] and
computation-oriented fault-tolerance [42, 43].  Two schemes:

* :func:`fault_aware_retrain` — the [38]/[42] approach: read back the
  effective (faulty) weights, freeze corrupted entries at their stuck
  values, retrain the healthy weights in software to compensate, and
  reprogram.  Stuck cells ignore the reprogramming, so the hardware lands
  exactly on the retrained solution.
* :class:`RowRemapRepair` — a redundancy scheme: spare wordlines absorb
  the worst-hit rows (classic row remapping, the [43] flavour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.apps.nn import MLP, CrossbarMLP, _relu, _softmax
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass
class RetrainReport:
    """Outcome of fault-aware retraining."""

    accuracy_before: float
    accuracy_after: float
    frozen_fraction: List[float]   # per-layer corrupted-weight share
    epochs: int

    @property
    def recovered(self) -> float:
        """Accuracy points recovered."""
        return self.accuracy_after - self.accuracy_before


class _MaskedMLP(MLP):
    """An MLP whose corrupted weights are frozen at their faulty values.

    Forward/backward reuse the parent implementation; after each SGD step
    the frozen entries are restored, so gradients only move healthy
    weights — the straight implementation of fault-aware retraining.
    """

    def __init__(self, base: MLP, masks: List[np.ndarray],
                 faulty_values: List[np.ndarray]) -> None:
        self.layer_sizes = list(base.layer_sizes)
        self.weights = [w.copy() for w in base.weights]
        self.biases = [b.copy() for b in base.biases]
        self._masks = [m.copy() for m in masks]
        self._faulty = [f.copy() for f in faulty_values]
        self._pin()

    def _pin(self) -> None:
        for w, mask, faulty in zip(self.weights, self._masks, self._faulty):
            w[mask] = faulty[mask]

    def _sgd_step(self, xb, yb, lr):
        super()._sgd_step(xb, yb, lr)
        self._pin()


def fault_aware_retrain(
    deployed: CrossbarMLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    epochs: int = 40,
    lr: float = 0.05,
    rng: RNGLike = None,
) -> RetrainReport:
    """Recover accuracy lost to stuck-at faults by retraining around them.

    Steps (mirroring [38]):

    1. read back the effective weights the faulty hardware implements;
    2. freeze corrupted logical weights at those values;
    3. retrain the healthy weights in software;
    4. reprogram the arrays (stuck cells ignore the write, healthy cells
       land on the retrained values) and re-measure accuracy.
    """
    check_positive("epochs", epochs)
    check_positive("lr", lr)
    gen = ensure_rng(rng)

    accuracy_before = deployed.accuracy(x_test, y_test, noisy=False)
    masks = deployed.layer_fault_masks()
    effective = deployed.effective_weights()

    masked = _MaskedMLP(deployed.mlp, masks, effective)
    masked.train(x_train, y_train, epochs=epochs, lr=lr, rng=gen)

    deployed.reprogram(masked.weights)
    # Biases retrain freely in software; carry them over.
    for stage, bias in zip(deployed.stages, masked.biases):
        stage.node.bias = bias.copy()

    accuracy_after = deployed.accuracy(x_test, y_test, noisy=False)
    return RetrainReport(
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_after,
        frozen_fraction=[float(m.mean()) for m in masks],
        epochs=epochs,
    )


def noise_aware_train(
    mlp: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    weight_noise_sigma: float = 0.05,
    epochs: int = 40,
    lr: float = 0.05,
    rng: RNGLike = None,
) -> MLP:
    """Variation-aware training ([42]'s "learning variations" flavour).

    Each SGD step perturbs the weights with the write-variation statistics
    before the forward/backward pass and restores them after, so the
    network learns solutions that are flat with respect to conductance
    noise — measurably more robust once deployed on a noisy crossbar.
    Returns the hardened MLP (trained in place).
    """
    check_positive("epochs", epochs)
    check_positive("lr", lr)
    if weight_noise_sigma < 0:
        raise ValueError("weight_noise_sigma must be >= 0")
    gen = ensure_rng(rng)
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    n = x_train.shape[0]
    for _ in range(epochs):
        order = gen.permutation(n)
        for start in range(0, n, 32):
            idx = order[start : start + 32]
            clean = [w.copy() for w in mlp.weights]
            noisy = [
                w * np.exp(weight_noise_sigma * gen.standard_normal(w.shape))
                for w in clean
            ]
            for k, w in enumerate(noisy):
                mlp.weights[k] = w.copy()
            # The step computes gradients at the *noisy* point and updates
            # mlp.weights in place; transfer that update onto the clean
            # weights (SGD-through-perturbation).
            mlp._sgd_step(x_train[idx], y_train[idx], lr)
            for k in range(len(clean)):
                update = mlp.weights[k] - noisy[k]
                mlp.weights[k] = clean[k] + update
    return mlp


class RowRemapRepair:
    """Spare-wordline remapping for a single crossbar tile.

    The tile keeps ``n_spare`` unused wordlines; the repair pass counts
    stuck cells per row and remaps the worst rows onto spares (possible
    because a row's logical weights can live on any physical wordline as
    long as the input routing follows — the alignment cost Table I charges
    CIM with).
    """

    def __init__(self, n_spare: int) -> None:
        if n_spare < 0:
            raise ValueError(f"n_spare must be >= 0, got {n_spare}")
        self.n_spare = n_spare

    def plan(self, stuck_mask: np.ndarray) -> List[int]:
        """Rows to remap, worst first, at most ``n_spare``."""
        stuck_mask = np.asarray(stuck_mask, dtype=bool)
        per_row = stuck_mask.sum(axis=1)
        order = np.argsort(per_row)[::-1]
        return [int(r) for r in order[: self.n_spare] if per_row[r] > 0]

    def repaired_fault_count(self, stuck_mask: np.ndarray) -> int:
        """Stuck cells remaining after remapping the planned rows."""
        stuck_mask = np.asarray(stuck_mask, dtype=bool)
        remaining = stuck_mask.copy()
        for row in self.plan(stuck_mask):
            remaining[row, :] = False
        return int(remaining.sum())

    def repair_rate(self, stuck_mask: np.ndarray) -> float:
        """Fraction of stuck cells eliminated by the remap."""
        total = int(np.asarray(stuck_mask, dtype=bool).sum())
        if total == 0:
            return 1.0
        return 1.0 - self.repaired_fault_count(stuck_mask) / total
