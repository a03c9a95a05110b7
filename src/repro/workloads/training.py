"""In-situ training: outer-product updates with write-verify on device.

The paper's Section IV names on-chip (in-situ) training as the workload
that stresses everything inference hides: every weight update is a
*write*, so programming variation, finite endurance and drift all act on
the live model.  This module closes that loop on the existing stack:

* a differential crossbar pair holds the classifier (positive/negative
  arrays, PRIME-style), with conductance targets snapped to the device's
  :class:`~repro.devices.reram.ConductanceLevels` ladder;
* gradients are rank-1 **outer products** ``x δᵀ`` accumulated over the
  mini-batch (the analog-friendly update rule — no transposed read
  needed) as one batch-axis reduction that adds the samples in order onto
  a ``+0.0`` start, bit-equal to the scalar reference;
* updates land through a **write-verify** loop whose per-pulse math is
  exactly :meth:`repro.devices.reram.ReRAMCell.program_with_verify`
  (lognormal landing, physical clip, noise-margin acceptance), pulsing
  only the cells whose quantized target moved;
* every pulse is charged as programming energy by the active
  :class:`~repro.costs.models.EnergyModel` and consumed from per-cell
  Weibull write budgets via :class:`~repro.faults.endurance
  .EnduranceSimulator` — cells die mid-training and stay dead;
* between epochs the arrays :meth:`~repro.crossbar.array.CrossbarArray
  .relax` (drift), so the accuracy-vs-epochs curve degrades the way
  Section III says it must.

Write noise comes from one dedicated stream, drawn as one array fill
per verify round; the private one-draw-per-cell reference
(:func:`_write_noise_scalar`) consumes it in the same order, so
trajectories are bit-identical **including the final generator state**
— the property the trainer tests and the benchmark gate pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.datasets import gaussian_blobs
from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.devices.reram import ConductanceLevels
from repro.devices.variability import (
    DriftModel,
    ReadNoiseModel,
    VariabilityStack,
    WriteVariationModel,
)
from repro.faults.endurance import EnduranceModel, EnduranceSimulator
from repro.utils import telemetry
from repro.utils.parallel import run_grid
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "TrainingParams",
    "outer_product_delta",
    "InSituDense",
    "InSituTrainer",
    "train_insitu",
    "explore_training",
]


def _batch_pair(x: np.ndarray, delta: np.ndarray):
    """Validated float ``(x, delta)`` batches of equal length."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if x.ndim != 2 or delta.ndim != 2 or x.shape[0] != delta.shape[0]:
        raise ValueError(
            f"need matching batches: x {x.shape}, delta {delta.shape}"
        )
    return x, delta


def outer_product_delta(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Mini-batch gradient as a sum of rank-1 outer products.

    Returns ``sum_b outer(x[b], delta[b])`` — the quantity an analog
    outer-product programming step applies in one shot.  One broadcast
    product reduced over the batch axis: the reduction adds the samples
    in order ``b = 0, 1, ...`` onto a ``+0.0`` start, the summation order
    of the pulse-order reference :func:`_outer_product_delta_scalar`, so
    the two are **bit-equal** (signed zeros included), not merely close.
    An empty batch gives zeros.
    """
    x, delta = _batch_pair(x, delta)
    return np.add.reduce(
        x[:, :, None] * delta[:, None, :], axis=0, initial=0.0
    )


def _outer_product_delta_scalar(
    x: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """Reference gradient: explicit ``b, i, j`` loops."""
    x, delta = _batch_pair(x, delta)
    batch, n_in = x.shape
    n_out = delta.shape[1]
    grad = np.zeros((n_in, n_out))
    for b in range(batch):
        for i in range(n_in):
            for j in range(n_out):
                grad[i, j] += x[b, i] * delta[b, j]
    return grad


def _write_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` standard-normal write-noise draws as one array fill.  A
    module-level function so tests can patch the reference in."""
    return rng.standard_normal(n)


def _write_noise_scalar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Reference draw: one generator call per needy cell, same values
    and same final generator state as :func:`_write_noise`."""
    z = np.empty(n)
    for k in range(n):
        z[k] = rng.standard_normal()
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class TrainingParams:
    """One in-situ training run's configuration.

    The endurance default is deliberately tiny (tens of writes, not the
    1e7 of :class:`EnduranceModel`) so device death is visible within a
    few epochs at laptop scale — the accelerated-aging idiom used
    throughout the faults tier.  A frequently-updated cell sees ~30
    verify pulses over five epochs at the default geometry.
    """

    n_features: int = 16
    n_classes: int = 4
    n_samples: int = 256
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.5
    w_max: float = 1.0
    write_sigma: float = 0.05        # lognormal programming noise
    max_write_iterations: int = 5    # verify-loop pulse cap per update
    n_levels: int = 16               # conductance ladder resolution
    characteristic_life: float = 12.0
    endurance_shape: float = 2.0
    drift_nu: float = 0.01
    aging_seconds: float = 1000.0    # drift time simulated between epochs

    def __post_init__(self) -> None:
        check_positive("n_features", self.n_features)
        check_positive("n_classes", self.n_classes)
        check_positive("n_samples", self.n_samples)
        check_positive("epochs", self.epochs)
        check_positive("batch_size", self.batch_size)
        check_positive("learning_rate", self.learning_rate)
        check_positive("w_max", self.w_max)
        check_non_negative("write_sigma", self.write_sigma)
        check_positive("max_write_iterations", self.max_write_iterations)
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        check_positive("characteristic_life", self.characteristic_life)
        check_positive("endurance_shape", self.endurance_shape)
        check_non_negative("drift_nu", self.drift_nu)
        check_non_negative("aging_seconds", self.aging_seconds)


class InSituDense:
    """A dense classifier held on a differential crossbar pair.

    Weights ``w in [-w_max, w_max]`` map to ``G_plus - G_minus``: the
    positive part onto one array, the magnitude of the negative part onto
    the other, each snapped to the conductance ladder.  The arrays carry
    the *drift* model (state decays physically between epochs) but their
    own write model is ideal — write noise is drawn here, from
    ``write_rng``, one stream in one order.
    """

    def __init__(
        self,
        params: TrainingParams,
        *,
        rng: RNGLike = None,
        write_rng: RNGLike = None,
    ) -> None:
        self.params = params
        init_rng = ensure_rng(rng)
        self.write_rng = ensure_rng(write_rng)
        self.levels = ConductanceLevels(n_levels=params.n_levels)
        stack = VariabilityStack(
            write=WriteVariationModel(sigma=0.0),
            read=ReadNoiseModel(sigma=0.0),
            drift=DriftModel(nu=params.drift_nu),
        )
        config = CrossbarConfig(
            rows=params.n_features, cols=params.n_classes, levels=self.levels
        )
        self.pos = CrossbarArray(config, variability=stack)
        self.neg = CrossbarArray(
            CrossbarConfig(
                rows=params.n_features,
                cols=params.n_classes,
                levels=self.levels,
            ),
            variability=stack,
        )
        self.w = init_rng.uniform(
            -0.1 * params.w_max,
            0.1 * params.w_max,
            size=(params.n_features, params.n_classes),
        )
        self.bias = np.zeros(params.n_classes)
        # Deposit the initial weights (ideal first programming).
        for array, targets in zip(self.arrays, self.targets()):
            array.program(targets)

    @property
    def arrays(self) -> Tuple[CrossbarArray, CrossbarArray]:
        """The (positive, negative) crossbar pair."""
        return (self.pos, self.neg)

    @property
    def _g_scale(self) -> float:
        return self.params.w_max / (self.levels.g_max - self.levels.g_min)

    def _quantize(self, g: np.ndarray) -> np.ndarray:
        """Snap conductances to the ladder (vectorized ``quantize``)."""
        lv = self.levels
        idx = np.clip(
            np.round((g - lv.g_min) / lv.spacing), 0, lv.n_levels - 1
        )
        return lv.g_min + idx * lv.spacing

    def targets(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ladder-quantized conductance targets for the current shadow
        weights: ``(G_plus, G_minus)``."""
        lv = self.levels
        span = lv.g_max - lv.g_min
        # Both polarities in one stacked pass: row 0 is the positive part,
        # row 1 the magnitude of the negative part.
        w = np.clip(np.stack((self.w, -self.w)), 0.0, self.params.w_max)
        gp, gn = self._quantize(lv.g_min + w / self.params.w_max * span)
        return gp, gn

    def forward(self, x: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Analog logits: differential column currents rescaled to weight
        units plus the digital bias.  Dead cells and drift show up here —
        the forward pass reads the *device* state, not the shadow."""
        x = np.asarray(x, dtype=float)
        i_pos = self.pos.mvm_batch(x, noisy=noisy)
        i_neg = self.neg.mvm_batch(x, noisy=noisy)
        return (i_pos - i_neg) * self._g_scale + self.bias

    def predict(self, x: np.ndarray, noisy: bool = False) -> np.ndarray:
        """Class decisions from the analog forward pass."""
        return np.argmax(self.forward(x, noisy=noisy), axis=1)

    def _write_verify(
        self, array: CrossbarArray, targets: np.ndarray
    ) -> np.ndarray:
        """Round-major write-verify: pulse every out-of-margin cell, read
        back, repeat.  Per-pulse math is line-for-line
        :meth:`ReRAMCell.program_with_verify`'s program step: land on
        ``target * exp(sigma * z)``, clip to the physical range, accept
        once within the level's noise margin.  Returns the per-cell pulse
        counts (the endurance debit).  ``z`` is drawn from ``write_rng``
        for the needy cells in row-major order.
        """
        sigma = self.params.write_sigma
        margin = self.levels.noise_margin
        # No round kills a cell, so the healthy mask holds for the call.
        healthy = ~array._stuck_mask
        writes = np.zeros(array.shape, dtype=float)
        for _ in range(self.params.max_write_iterations):
            needy = (np.abs(array._g - targets) > margin) & healthy
            n = np.count_nonzero(needy)
            if n == 0:
                break
            if sigma == 0.0:
                landed = targets
            else:
                z = _write_noise(self.write_rng, n)
                landed = targets.copy()
                landed[needy] *= np.exp(sigma * z)
            array.write_cells(needy, landed)
            writes += needy
        return writes

    def apply_update(
        self, grad: np.ndarray, bias_grad: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One training step: descend the shadow weights, reprogram the
        pair with write-verify.  Returns the per-cell pulse counts
        ``(writes_plus, writes_minus)`` for endurance accounting."""
        lr = self.params.learning_rate
        self.w = np.clip(
            self.w - lr * grad, -self.params.w_max, self.params.w_max
        )
        self.bias = self.bias - lr * bias_grad
        gp, gn = self.targets()
        writes_p = self._write_verify(self.pos, gp)
        writes_n = self._write_verify(self.neg, gn)
        return writes_p, writes_n

    def relax(self, elapsed: float) -> None:
        """Let both arrays drift for ``elapsed`` seconds."""
        self.pos.relax(elapsed)
        self.neg.relax(elapsed)

    @property
    def dead_cells(self) -> int:
        """Stuck cells across the pair."""
        return self.pos.fault_count() + self.neg.fault_count()


class InSituTrainer:
    """Epoch loop wiring :class:`InSituDense` to endurance and energy.

    RNG discipline: the seed fans out into four independent streams
    (data, weight init, write noise, endurance lifetimes+faults), so a
    given seed reproduces the full trajectory.
    """

    def __init__(
        self,
        params: Optional[TrainingParams] = None,
        *,
        rng: RNGLike = 0,
    ) -> None:
        self.params = params or TrainingParams()
        data_rng, init_rng, write_rng, wear_rng = spawn_rngs(rng, 4)
        p = self.params
        x, y = gaussian_blobs(
            n_samples=p.n_samples,
            n_features=p.n_features,
            n_classes=p.n_classes,
            rng=data_rng,
        )
        n_test = max(1, p.n_samples // 4)
        self.x_train, self.y_train = x[n_test:], y[n_test:]
        self.x_test, self.y_test = x[:n_test], y[:n_test]
        self.layer = InSituDense(p, rng=init_rng, write_rng=write_rng)
        model = EnduranceModel(
            characteristic_life=p.characteristic_life,
            shape=p.endurance_shape,
        )
        wear_pos, wear_neg = spawn_rngs(wear_rng, 2)
        self.endurance = (
            EnduranceSimulator(self.layer.pos, model, rng=wear_pos),
            EnduranceSimulator(self.layer.neg, model, rng=wear_neg),
        )

    def accuracy(self) -> float:
        """Held-out accuracy through the analog forward pass."""
        pred = self.layer.predict(self.x_test)
        return float(np.mean(pred == self.y_test))

    def _epoch(self) -> Tuple[float, int]:
        """One pass over the training set; returns (mean loss, pulses)."""
        p = self.params
        n = self.x_train.shape[0]
        losses: List[float] = []
        pulses = 0
        onehot = np.eye(p.n_classes)
        for lo in range(0, n, p.batch_size):
            xb = self.x_train[lo : lo + p.batch_size]
            yb = self.y_train[lo : lo + p.batch_size]
            logits = self.layer.forward(xb)
            probs = _softmax(logits)
            losses.append(
                float(
                    -np.mean(
                        np.log(
                            np.maximum(probs[np.arange(len(yb)), yb], 1e-12)
                        )
                    )
                )
            )
            delta = (probs - onehot[yb]) / xb.shape[0]
            grad = outer_product_delta(xb, delta)
            writes_p, writes_n = self.layer.apply_update(
                grad, delta.sum(axis=0)
            )
            # Endurance consumes the pulses (and charges their energy);
            # cells that cross their Weibull lifetime die *now*, so the
            # rest of the epoch trains against the faulted device.
            self.endurance[0].wear(writes_p)
            self.endurance[1].wear(writes_n)
            pulses += int(writes_p.sum() + writes_n.sum())
        return float(np.mean(losses)), pulses

    def run(self) -> List[Dict[str, float]]:
        """Train for ``epochs`` passes; returns one row per epoch:
        loss, held-out accuracy, cumulative dead cells / pulses / energy,
        with drift aging applied between epochs.

        The run's only charges are the endurance pulses, so the run's
        nested telemetry scope is its write-energy ledger.
        """
        rows: List[Dict[str, float]] = []
        total_pulses = 0
        with telemetry.nested() as scope:
            for epoch in range(self.params.epochs):
                loss, pulses = self._epoch()
                total_pulses += pulses
                self.layer.relax(self.params.aging_seconds)
                rows.append(
                    {
                        "epoch": int(epoch),
                        "loss": loss,
                        "accuracy": self.accuracy(),
                        "dead_cells": int(self.layer.dead_cells),
                        "pulses": int(pulses),
                        "total_pulses": int(total_pulses),
                        "write_energy_j": scope.count(
                            "cost.energy.programming"
                        ),
                    }
                )
        return rows


def train_insitu(
    params: Optional[TrainingParams] = None,
    *,
    rng: RNGLike = 0,
) -> Dict[str, object]:
    """Run one in-situ training job; returns the summary row the sweep
    and the CLI/serve layers share (per-epoch history plus finals)."""
    trainer = InSituTrainer(params, rng=rng)
    history = trainer.run()
    last = history[-1]
    return {
        "epochs": len(history),
        "final_accuracy": last["accuracy"],
        "final_loss": last["loss"],
        "dead_cells": last["dead_cells"],
        "total_pulses": last["total_pulses"],
        "write_energy_j": last["write_energy_j"],
        "history": history,
    }


def _training_point(
    point: Tuple[float, float],
    trial: int,
    rng: np.random.Generator,
    epochs: int,
    n_features: int,
    n_classes: int,
    write_sigma: float,
) -> Dict[str, object]:
    """One grid job: one (characteristic_life, drift_nu) training run."""
    life, nu = point
    params = TrainingParams(
        n_features=n_features,
        n_classes=n_classes,
        epochs=epochs,
        write_sigma=write_sigma,
        characteristic_life=life,
        drift_nu=nu,
    )
    result = train_insitu(params, rng=rng)
    row: Dict[str, object] = {
        "trial": int(trial),
        "characteristic_life": float(life),
        "drift_nu": float(nu),
        "feasible": True,
    }
    row.update(
        {k: v for k, v in result.items() if k != "history"}
    )
    for epoch_row in result["history"]:
        e = epoch_row["epoch"]
        row[f"accuracy_epoch{e}"] = epoch_row["accuracy"]
        row[f"dead_cells_epoch{e}"] = epoch_row["dead_cells"]
    return row


def explore_training(
    lives: Sequence[float] = (8.0, 12.0, 1e6),
    drift_nus: Sequence[float] = (0.0, 0.01),
    *,
    epochs: int = 5,
    n_features: int = 16,
    n_classes: int = 4,
    write_sigma: float = 0.05,
    trials: int = 1,
    seed: RNGLike = 0,
    workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Sweep endurance life x drift over in-situ training runs — the
    accuracy-vs-epochs-under-aging experiment.  One row per (point,
    trial); deterministic and bit-identical at any ``workers`` count."""
    points = [(float(l), float(nu)) for l in lives for nu in drift_nus]
    if not points:
        return []
    nested = run_grid(
        _training_point,
        points,
        trials=trials,
        seed=seed,
        workers=workers,
        task_args=(
            int(epochs),
            int(n_features),
            int(n_classes),
            float(write_sigma),
        ),
    )
    return [row for per_point in nested for row in per_point]
