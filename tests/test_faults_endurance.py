"""Tests for the endurance wear-out model."""

import math

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.costs.models import WRITE_ENERGY_PER_CELL
from repro.faults.endurance import EnduranceModel, EnduranceSimulator
from repro.utils import telemetry


def _energy(scope):
    """Programming energy a telemetry scope captured (J)."""
    return scope.count("cost.energy.programming")


def _array(seed=0, n=16):
    array = CrossbarArray(CrossbarConfig(rows=n, cols=n), rng=seed)
    array.program(np.full((n, n), 5e-5))
    return array


class TestEnduranceModel:
    def test_failure_probability_monotone(self):
        model = EnduranceModel(characteristic_life=1e4, shape=2.0)
        probs = [model.failure_probability(w) for w in (0, 1e3, 1e4, 1e5)]
        assert probs == sorted(probs)
        assert probs[0] == 0.0

    def test_characteristic_life_definition(self):
        """At the characteristic life, 63.2% of cells have failed."""
        model = EnduranceModel(characteristic_life=1e4, shape=2.0)
        assert model.failure_probability(1e4) == pytest.approx(
            1 - math.exp(-1), rel=1e-9
        )

    @pytest.mark.parametrize("x", [1e-8, 1e-12, 1e-17])
    def test_failure_probability_exact_at_small_exponent(self, x):
        """Early in life ``1 - exp(-x)`` cancels (and is 0.0 at 1e-17);
        the CDF must match the exact Taylor value ``x - x^2/2 + x^3/6``
        (truncation error ~x^4) to < 1e-15 relative error."""
        from fractions import Fraction

        model = EnduranceModel(characteristic_life=1.0, shape=1.0)
        xf = Fraction(x)  # the exact float the model sees as its exponent
        exact = xf - xf**2 / 2 + xf**3 / 6
        got = Fraction(model.failure_probability(x))
        assert abs(got - exact) / exact < Fraction(1, 10**15)

    def test_sample_lifetimes_positive(self):
        model = EnduranceModel()
        lifetimes = model.sample_lifetimes(1000, rng=0)
        assert np.all(lifetimes >= 0)
        assert lifetimes.shape == (1000,)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EnduranceModel(characteristic_life=0)
        with pytest.raises(ValueError):
            EnduranceModel(shape=-1)


class TestEnduranceSimulator:
    def test_deaths_accumulate_monotonically(self):
        sim = EnduranceSimulator(
            _array(), EnduranceModel(characteristic_life=1000, shape=2.0), rng=1
        )
        series = sim.run_until(total_writes=3000, step=500)
        dead = [row["dead_cells"] for row in series]
        assert dead == sorted(dead)
        assert dead[-1] > 0

    def test_all_cells_eventually_die(self):
        sim = EnduranceSimulator(
            _array(n=8), EnduranceModel(characteristic_life=100, shape=2.0), rng=2
        )
        sim.run_until(total_writes=10_000, step=1000)
        assert sim.dead_cell_count == 64

    def test_dead_cells_are_stuck_at_extremes(self):
        array = _array(n=8)
        sim = EnduranceSimulator(
            array, EnduranceModel(characteristic_life=100, shape=2.0), rng=3
        )
        sim.run_until(total_writes=10_000, step=1000)
        levels = array.config.levels
        g = array.conductances()
        assert np.all(
            (np.isclose(g, levels.g_min)) | (np.isclose(g, levels.g_max))
        )

    def test_death_fraction_tracks_weibull(self):
        """Empirical dead fraction ~ the analytic CDF."""
        model = EnduranceModel(characteristic_life=1000, shape=2.0)
        sim = EnduranceSimulator(_array(n=32), model, rng=4)
        sim.run_until(total_writes=1000, step=1000)
        expected = model.failure_probability(1000)
        actual = sim.dead_cell_count / (32 * 32)
        assert actual == pytest.approx(expected, abs=0.05)

    def test_new_faults_returned_once(self):
        sim = EnduranceSimulator(
            _array(n=8), EnduranceModel(characteristic_life=10, shape=2.0), rng=5
        )
        first = sim.cycle(1000)
        second = sim.cycle(1000)
        assert len(first) > 0
        first_cells = {(f.row, f.col) for f in first}
        second_cells = {(f.row, f.col) for f in second}
        assert not first_cells & second_cells


class TestWear:
    """Per-cell (non-uniform) cycling via EnduranceSimulator.wear."""

    def _sim(self, n=8, life=100, rng=2):
        return EnduranceSimulator(
            _array(n=n),
            EnduranceModel(characteristic_life=life, shape=2.0),
            rng=rng,
        )

    def test_shape_mismatch_rejected(self):
        sim = self._sim()
        with pytest.raises(ValueError, match="shape"):
            sim.wear(np.ones((4, 4)))

    def test_negative_writes_rejected(self):
        sim = self._sim()
        writes = np.zeros((8, 8))
        writes[0, 0] = -1.0
        with pytest.raises(ValueError, match=">= 0"):
            sim.wear(writes)

    def test_negative_writes_rejected_when_sum_is_zero(self):
        # A negative entry must be caught even when the writes cancel to
        # a zero total (the no-op early return comes after the check).
        sim = self._sim()
        writes = np.zeros((8, 8))
        writes[0, :2] = [1.0, -1.0]
        assert writes.sum() == 0
        with telemetry.scoped() as scope:
            with pytest.raises(ValueError, match=">= 0"):
                sim.wear(writes)
        assert _energy(scope) == 0
        assert np.all(sim.write_cycles == 0)

    def test_zero_writes_is_a_noop(self):
        sim = self._sim()
        with telemetry.scoped() as scope:
            assert sim.wear(np.zeros((8, 8))) == []
        assert sim.dead_cell_count == 0
        assert _energy(scope) == 0

    def test_energy_charged_for_total_pulses(self):
        sim = self._sim(life=10**9)
        writes = np.zeros((8, 8))
        writes[0, :] = 5.0
        with telemetry.scoped() as scope:
            sim.wear(writes)
        assert _energy(scope) == pytest.approx(WRITE_ENERGY_PER_CELL * 5.0 * 8)

    def test_only_heavily_written_cells_die(self):
        sim = self._sim(life=100, rng=3)
        writes = np.zeros((8, 8))
        writes[:4, :] = 10_000.0  # far past any sampled lifetime
        faults = sim.wear(writes)
        assert faults
        assert all(f.row < 4 for f in faults)
        # The untouched half of the array must be fully alive.
        assert sim.dead_cell_count == len(faults) <= 32

    def test_uniform_wear_matches_cycle(self):
        a = self._sim(life=100, rng=7)
        b = self._sim(life=100, rng=7)
        with telemetry.scoped() as wear_scope:
            dead_a = a.wear(np.full((8, 8), 500.0))
        with telemetry.scoped() as cycle_scope:
            dead_b = b.cycle(500.0)
        assert {(f.row, f.col) for f in dead_a} == {
            (f.row, f.col) for f in dead_b
        }
        assert _energy(wear_scope) == pytest.approx(_energy(cycle_scope))
