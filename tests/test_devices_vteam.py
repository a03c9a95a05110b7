"""Tests for the VTEAM threshold memristor model."""

import pytest

from repro.devices.memristor import VTEAMMemristor, VTEAMParams


class TestThresholdBehaviour:
    def test_subthreshold_reads_are_nondestructive(self):
        """The model's defining feature — and the reason ReRAM read
        voltages sit far below write voltages."""
        dev = VTEAMMemristor(x0=0.5)
        for _ in range(10_000):
            dev.step(0.2, dt=1e-6)   # read-level voltage
        assert dev.state == pytest.approx(0.5)

    def test_over_threshold_set(self):
        dev = VTEAMMemristor(x0=0.2)
        dev.apply_voltage(1.5, duration=1e-3)
        assert dev.state > 0.2

    def test_over_threshold_reset(self):
        dev = VTEAMMemristor(x0=0.8)
        dev.apply_voltage(-1.5, duration=1e-3)
        assert dev.state < 0.8

    def test_derivative_zero_in_window(self):
        dev = VTEAMMemristor()
        p = dev.params
        assert dev.state_derivative(0.0) == 0.0
        assert dev.state_derivative(p.v_off * 0.99) == 0.0
        assert dev.state_derivative(p.v_on * 0.99) == 0.0

    def test_derivative_signs(self):
        dev = VTEAMMemristor(x0=0.5)
        assert dev.state_derivative(1.5) > 0
        assert dev.state_derivative(-1.5) < 0

    def test_switching_highly_nonlinear_in_voltage(self):
        """Doubling overdrive speeds switching far more than 2x (the
        alpha exponent)."""
        slow = VTEAMMemristor(x0=0.5).state_derivative(0.8)
        fast = VTEAMMemristor(x0=0.5).state_derivative(1.6)
        assert fast > 8 * slow

    def test_is_read_safe(self):
        dev = VTEAMMemristor()
        assert dev.is_read_safe(0.2)
        assert dev.is_read_safe(-0.2)
        assert not dev.is_read_safe(1.0)

    def test_state_bounded(self):
        dev = VTEAMMemristor(x0=0.9)
        dev.apply_voltage(3.0, duration=10e-3)
        assert dev.state <= 1.0
        dev.apply_voltage(-3.0, duration=20e-3)
        assert dev.state >= 0.0


class TestResistance:
    def test_resistance_interpolation(self):
        p = VTEAMParams()
        assert VTEAMMemristor(p, x0=1.0).resistance == pytest.approx(p.r_on)
        assert VTEAMMemristor(p, x0=0.0).resistance == pytest.approx(p.r_off)

    def test_conductance_reciprocal(self):
        dev = VTEAMMemristor(x0=0.3)
        assert dev.conductance == pytest.approx(1 / dev.resistance)

    def test_ohmic_current(self):
        dev = VTEAMMemristor(x0=0.5)
        assert dev.current(0.2) == pytest.approx(0.2 / dev.resistance)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VTEAMParams(v_on=0.5)
        with pytest.raises(ValueError):
            VTEAMParams(k_on=100)
        with pytest.raises(ValueError):
            VTEAMParams(r_on=2e4, r_off=1e4)
        with pytest.raises(ValueError):
            VTEAMParams(alpha_off=0)

    def test_contrast_with_linear_drift(self):
        """Linear drift moves at any voltage; VTEAM does not — the
        modelling choice the guard-band design depends on."""
        from repro.devices.memristor import LinearIonDriftMemristor

        linear = LinearIonDriftMemristor(x0=0.5)
        vteam = VTEAMMemristor(x0=0.5)
        for _ in range(1000):
            linear.step(0.2, dt=1e-5)
            vteam.step(0.2, dt=1e-5)
        assert linear.state > 0.5          # drifted under read voltage
        assert vteam.state == pytest.approx(0.5)


class TestFastPulseKernel:
    """Fast pulse stepping must be bit-equal to the private stepped
    reference (and trivially exact for sub-threshold pulses)."""

    def test_set_reset_pulses_bit_equal(self):
        from repro.devices.memristor import VTEAMMemristor

        for v in (1.0, 0.9, -1.0, -2.0, 0.7, -0.7):
            for x0 in (0.0, 0.25, 0.5, 1.0):
                ref = VTEAMMemristor(x0=x0)
                fast = VTEAMMemristor(x0=x0)
                ref._apply_voltage_stepped(v, duration=5e-4, dt=1e-6)
                fast.apply_voltage(v, duration=5e-4, dt=1e-6)
                assert fast.state == ref.state, (v, x0)

    def test_subthreshold_pulse_is_a_noop_both_ways(self):
        from repro.devices.memristor import VTEAMMemristor

        ref = VTEAMMemristor(x0=0.4)
        fast = VTEAMMemristor(x0=0.4)
        ref._apply_voltage_stepped(0.3, duration=1e-3)
        fast.apply_voltage(0.3, duration=1e-3)
        assert ref.state == 0.4 and fast.state == 0.4

    def test_long_saturating_pulse_bit_equal(self):
        from repro.devices.memristor import VTEAMMemristor

        ref = VTEAMMemristor(x0=0.1)
        fast = VTEAMMemristor(x0=0.1)
        ref._apply_voltage_stepped(1.4, duration=0.02, dt=1e-6)
        fast.apply_voltage(1.4, duration=0.02, dt=1e-6)
        assert fast.state == ref.state
