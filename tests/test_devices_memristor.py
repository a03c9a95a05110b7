"""Tests for the HP linear-ion-drift memristor model (Fig 3)."""

import numpy as np
import pytest

from repro.devices.memristor import (
    LinearIonDriftMemristor,
    MemristorParams,
    biolek_window,
    rectangular_window,
)


class TestMemristorParams:
    def test_defaults_valid(self):
        p = MemristorParams()
        assert p.r_off > p.r_on

    def test_rejects_inverted_resistances(self):
        with pytest.raises(ValueError, match="r_off"):
            MemristorParams(r_on=1000, r_off=100)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MemristorParams(thickness=0)

    def test_gain_positive(self):
        assert MemristorParams().k > 0


class TestWindows:
    def test_biolek_zero_at_boundaries(self):
        # Approaching x=1 with positive current locks against the boundary.
        assert biolek_window(1.0, +1.0) == pytest.approx(0.0)
        assert biolek_window(0.0, -1.0) == pytest.approx(0.0)

    def test_biolek_allows_escape_from_boundary(self):
        # At x=1 a negative current sees a nonzero window.
        assert biolek_window(1.0, -1.0) == pytest.approx(1.0)
        assert biolek_window(0.0, +1.0) == pytest.approx(1.0)

    def test_biolek_invalid_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            biolek_window(0.5, 1.0, p=0)

    def test_rectangular_is_one(self):
        assert np.all(rectangular_window(np.linspace(0, 1, 5), 1.0) == 1.0)


class TestDeviceState:
    def test_resistance_interpolates(self):
        p = MemristorParams()
        lo = LinearIonDriftMemristor(p, x0=1.0).resistance
        hi = LinearIonDriftMemristor(p, x0=0.0).resistance
        mid = LinearIonDriftMemristor(p, x0=0.5).resistance
        assert lo == pytest.approx(p.r_on)
        assert hi == pytest.approx(p.r_off)
        assert lo < mid < hi

    def test_conductance_is_reciprocal(self):
        dev = LinearIonDriftMemristor(x0=0.3)
        assert dev.conductance == pytest.approx(1.0 / dev.resistance)

    def test_state_setter_validates(self):
        dev = LinearIonDriftMemristor()
        with pytest.raises(ValueError):
            dev.state = 1.5

    def test_invalid_x0(self):
        with pytest.raises(ValueError):
            LinearIonDriftMemristor(x0=-0.1)


class TestDynamics:
    def test_positive_voltage_sets_toward_lrs(self):
        dev = LinearIonDriftMemristor(x0=0.2)
        r_before = dev.resistance
        dev.apply_voltage(1.0, duration=1e-3, dt=1e-6)
        assert dev.resistance < r_before
        assert dev.state > 0.2

    def test_negative_voltage_resets_toward_hrs(self):
        dev = LinearIonDriftMemristor(x0=0.8)
        dev.apply_voltage(-1.0, duration=1e-3, dt=1e-6)
        assert dev.state < 0.8

    def test_state_stays_bounded(self):
        dev = LinearIonDriftMemristor(x0=0.5)
        dev.apply_voltage(5.0, duration=10e-3, dt=1e-6)
        assert 0.0 <= dev.state <= 1.0

    def test_step_returns_ohmic_current(self):
        dev = LinearIonDriftMemristor(x0=0.5)
        r = dev.resistance
        i = dev.step(0.5, dt=1e-9)
        assert i == pytest.approx(0.5 / r)

    def test_step_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            LinearIonDriftMemristor().step(1.0, dt=0)

    def test_nonvolatile_between_pulses(self):
        dev = LinearIonDriftMemristor(x0=0.3)
        dev.apply_voltage(1.0, duration=1e-4)
        state = dev.state
        # Zero-voltage hold does not move the state (non-volatility).
        for _ in range(100):
            dev.step(0.0, dt=1e-6)
        assert dev.state == pytest.approx(state)


class TestHysteresis:
    def test_pinched_loop(self):
        dev = LinearIonDriftMemristor(x0=0.1)
        result = dev.sweep(amplitude=1.0, frequency=10, points_per_cycle=1000)
        assert result.hysteresis_is_pinched()

    def test_loop_area_positive_at_low_frequency(self):
        dev = LinearIonDriftMemristor(x0=0.1)
        result = dev.sweep(amplitude=1.0, frequency=10, points_per_cycle=1000)
        assert result.loop_area() > 0

    def test_loop_area_shrinks_with_frequency(self):
        """The second memristor fingerprint: the loop degenerates to a
        straight line as the drive frequency rises."""
        slow = LinearIonDriftMemristor(x0=0.1).sweep(1.0, 10, points_per_cycle=1000)
        fast = LinearIonDriftMemristor(x0=0.1).sweep(1.0, 10_000, points_per_cycle=1000)
        assert fast.loop_area() < slow.loop_area() / 10

    def test_sweep_validates_args(self):
        dev = LinearIonDriftMemristor()
        with pytest.raises(ValueError):
            dev.sweep(amplitude=0, frequency=10)
        with pytest.raises(ValueError):
            dev.sweep(amplitude=1, frequency=10, cycles=0)

    def test_sweep_trace_shapes(self):
        result = LinearIonDriftMemristor().sweep(1.0, 100, cycles=2, points_per_cycle=50)
        assert len(result.time) == 100
        assert len(result.voltage) == len(result.current) == len(result.state)


class TestFastKernels:
    """The fast pulse/sweep kernels must be bit-equal to the private
    stepped references (``_apply_voltage_stepped`` / ``_sweep_stepped``,
    stepping via .step())."""

    VOLTAGES = (1.2, -1.5, 0.3, -0.05, 2.5)

    def test_apply_voltage_bit_equal(self):
        for v in self.VOLTAGES:
            for x0 in (0.0, 0.1, 0.5, 0.99, 1.0):
                ref = LinearIonDriftMemristor(x0=x0)
                fast = LinearIonDriftMemristor(x0=x0)
                ref._apply_voltage_stepped(v, duration=2e-4, dt=1e-6)
                fast.apply_voltage(v, duration=2e-4, dt=1e-6)
                assert fast.state == ref.state, (v, x0)

    def test_apply_voltage_saturating_pulse_bit_equal(self):
        """Long SET pulse drives the state to a fixed point; the fast
        kernel's early exit must land on the identical float."""
        ref = LinearIonDriftMemristor(x0=0.2)
        fast = LinearIonDriftMemristor(x0=0.2)
        ref._apply_voltage_stepped(2.0, duration=0.05, dt=1e-6)
        fast.apply_voltage(2.0, duration=0.05, dt=1e-6)
        assert fast.state == ref.state

    def test_apply_voltage_auto_matches_scalar(self):
        ref = LinearIonDriftMemristor(x0=0.4)
        auto = LinearIonDriftMemristor(x0=0.4)
        ref._apply_voltage_stepped(1.0, duration=1e-4)
        auto.apply_voltage(1.0, duration=1e-4)  # default dt
        assert auto.state == ref.state

    def test_sweep_trace_bit_equal(self):
        ref = LinearIonDriftMemristor(x0=0.3)
        fast = LinearIonDriftMemristor(x0=0.3)
        a = ref._sweep_stepped(1.5, 50.0, cycles=2, points_per_cycle=400)
        b = fast.sweep(1.5, 50.0, cycles=2, points_per_cycle=400)
        assert np.array_equal(a.current, b.current)
        assert np.array_equal(a.state, b.state)
        assert fast.state == ref.state

    def test_window_exponent_respected(self):
        for exponent in (1, 3):
            params = MemristorParams(window_exponent=exponent)
            ref = LinearIonDriftMemristor(params, x0=0.3)
            fast = LinearIonDriftMemristor(params, x0=0.3)
            ref._apply_voltage_stepped(1.0, duration=1e-4)
            fast.apply_voltage(1.0, duration=1e-4)
            assert fast.state == ref.state

    def test_custom_window_auto_falls_back_to_scalar(self):
        ref = LinearIonDriftMemristor(window=rectangular_window, x0=0.3)
        auto = LinearIonDriftMemristor(window=rectangular_window, x0=0.3)
        ref._apply_voltage_stepped(1.0, duration=1e-4)
        auto.apply_voltage(1.0, duration=1e-4)
        assert auto.state == ref.state
        a = ref._sweep_stepped(1.0, 50.0, points_per_cycle=200)
        b = auto.sweep(1.0, 50.0, points_per_cycle=200)
        assert np.array_equal(a.current, b.current)
        assert auto.state == ref.state

    def test_fast_kernel_is_faster(self):
        import time

        ref = LinearIonDriftMemristor(x0=0.5)
        fast = LinearIonDriftMemristor(x0=0.5)
        t0 = time.perf_counter()
        ref._sweep_stepped(1.0, 50.0, cycles=1, points_per_cycle=3000)
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast.sweep(1.0, 50.0, cycles=1, points_per_cycle=3000)
        t_fast = time.perf_counter() - t0
        assert t_fast < t_ref  # tier-1 smoke; the real gate is in benchmarks
