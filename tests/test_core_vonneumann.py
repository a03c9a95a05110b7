"""Tests for the von-Neumann reference machine (Fig 1a)."""

import numpy as np
import pytest

from repro.core.vonneumann import VonNeumannMachine, VonNeumannParams
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


def _run(batch, w, weights_resident=False):
    """Run a workload on a fresh machine; returns its report."""
    with telemetry.scoped() as scope:
        VonNeumannMachine().run_workload(
            batch, w, weights_resident=weights_resident
        )
    return RunReport.from_counters(scope.counters)


class TestVMM:
    def test_result_correct(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (8, 4))
        x = rng.uniform(0, 1, 8)
        assert np.allclose(machine.vmm(x, w), x @ w)

    def test_shape_validation(self):
        machine = VonNeumannMachine()
        with pytest.raises(ValueError, match="shape"):
            machine.vmm(np.zeros(3), np.zeros((4, 2)))


class TestBottleneck:
    """The Fig 1(a) claim: data movement dominates compute."""

    def test_movement_energy_dominates(self, rng):
        w = rng.uniform(-1, 1, (64, 64))
        batch = rng.uniform(0, 1, (8, 64))
        report = _run(batch, w)
        assert report.energy_fractions()["data_movement"] > 0.5

    def test_movement_latency_significant(self, rng):
        w = rng.uniform(-1, 1, (64, 64))
        batch = rng.uniform(0, 1, (8, 64))
        report = _run(batch, w)
        movement = report.categories["data_movement"]["latency"]
        assert movement / report.total_latency > 0.3

    def test_resident_weights_cut_movement(self, rng):
        w = rng.uniform(-1, 1, (64, 64))
        batch = rng.uniform(0, 1, (8, 64))
        thrashing = _run(batch, w, weights_resident=False)
        cached = _run(batch, w, weights_resident=True)
        assert cached.total_data_moved < thrashing.total_data_moved / 4

    def test_resident_result_still_correct(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (16, 8))
        batch = rng.uniform(0, 1, (4, 16))
        out = machine.run_workload(batch, w, weights_resident=True)
        assert np.allclose(out, batch @ w)

    def test_data_moved_accounting(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (16, 8))
        x = rng.uniform(0, 1, 16)
        with telemetry.scoped() as scope:
            machine.vmm(x, w)
        # matrix + input + output, 1 byte words.
        moved = RunReport.from_counters(scope.counters).total_data_moved
        assert moved == 16 * 8 + 16 + 8


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VonNeumannParams(bus_bandwidth=0)
        with pytest.raises(ValueError):
            VonNeumannParams(alu_parallelism=0)
        with pytest.raises(ValueError):
            VonNeumannParams(word_bytes=0)
