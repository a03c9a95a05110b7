"""Shared fixtures for the cimflow test suite."""

import numpy as np
import pytest

from repro.apps.cnn import SimpleCNN, synthetic_images
from repro.apps.datasets import gaussian_blobs
from repro.apps.nn import MLP
from repro.costs.models import EnergyModel
from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.devices.reram import ConductanceLevels


@pytest.fixture
def rng():
    """A deterministic generator for stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def booked(monkeypatch):
    """Every charge the energy model books, as ``(category, energy,
    latency[, data_moved])`` tuples recorded at its booking helper: an
    oracle for telemetry reports that does not go through any scope."""
    log = []
    book = EnergyModel._book

    def spy(*charge):
        log.append(charge)
        book(*charge)

    monkeypatch.setattr(EnergyModel, "_book", staticmethod(spy))
    return log


@pytest.fixture
def small_levels():
    """A 4-level conductance ladder used across crossbar tests."""
    return ConductanceLevels(g_min=1e-6, g_max=1e-4, n_levels=4)


@pytest.fixture
def small_array():
    """An ideal 8x8 crossbar preprogrammed to mid-range conductance."""
    array = CrossbarArray(CrossbarConfig(rows=8, cols=8), rng=7)
    array.program(np.full((8, 8), 5e-5))
    return array


@pytest.fixture(scope="module")
def trained_mlp():
    """A trained 16-16-4 MLP and its data (train on ``x[:200]``)."""
    x, y = gaussian_blobs(
        n_samples=300, n_features=16, n_classes=4, separation=2.5, rng=0
    )
    mlp = MLP([16, 16, 4], rng=1)
    mlp.train(x[:200], y[:200], epochs=40, rng=2)
    return mlp, x, y


@pytest.fixture(scope="module")
def trained_cnn():
    """A trained stripe-image CNN and its data (train on ``x[:200]``)."""
    x, y = synthetic_images(n_samples=300, noise=0.3, rng=0)
    cnn = SimpleCNN(rng=1)
    cnn.train(x[:200], y[:200], epochs=25, rng=2)
    return cnn, x, y
