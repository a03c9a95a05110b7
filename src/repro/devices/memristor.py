"""HP linear-ion-drift memristor model (Strukov et al., Nature 2008).

The paper's Fig 3 shows the ReRAM device as two serially connected
resistors: a doped (low-resistance) region of normalized width ``x`` and an
undoped (high-resistance) region of width ``1 - x``:

.. math::

    R(x) = R_{on} x + R_{off} (1 - x)

The state moves with the charge that flows through the device:

.. math::

    \\frac{dx}{dt} = \\frac{\\mu_v R_{on}}{D^2} \\, i(t) \\, f(x)

where ``f(x)`` is a window function keeping ``x`` in ``[0, 1]``.  With
``f(x) = 1`` this is the original linear-drift model; the Biolek window
reproduces the boundary-saturation behaviour of real metal-oxide filaments.

This module is the physical grounding for everything above it: the
multilevel :class:`~repro.devices.reram.ReRAMCell` quantizes the continuous
conductance range that this model provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.utils.validation import check_in_range, check_positive


def _pulse_steps(duration: float, dt: float) -> int:
    """Explicit-Euler step count of a ``duration``-second pulse."""
    check_positive("duration", duration)
    check_positive("dt", dt)
    return max(1, int(round(duration / dt)))


def _sine_drive(
    amplitude: float, frequency: float, cycles: int, points_per_cycle: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Sample times, drive voltages and step of ``A sin(2 pi f t)``."""
    check_positive("amplitude", amplitude)
    check_positive("frequency", frequency)
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    n = cycles * points_per_cycle
    t = np.arange(n) / (frequency * points_per_cycle)
    dt = 1.0 / (frequency * points_per_cycle)
    return t, amplitude * np.sin(2 * np.pi * frequency * t), dt


def biolek_window(x: np.ndarray, current: np.ndarray, p: int = 2) -> np.ndarray:
    """Biolek window function ``f(x, i) = 1 - (x - step(-i))**(2p)``.

    Unlike the Joglekar window it depends on current direction, which
    removes the terminal-state lock-up problem: a device driven to a
    boundary can always be driven back.
    """
    if p < 1:
        raise ValueError(f"window exponent p must be >= 1, got {p}")
    step = (np.asarray(current) < 0).astype(float)
    return 1.0 - (np.asarray(x) - step) ** (2 * p)


def rectangular_window(x: np.ndarray, current: np.ndarray) -> np.ndarray:
    """The trivial window of the original linear-drift model (always 1)."""
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass
class MemristorParams:
    """Physical parameters of the linear-ion-drift model.

    Defaults follow the TiO2 device of Strukov et al.: 10 nm thickness,
    ~1e-14 m^2/(V s) ion mobility, 100 ohm / 16 kohm on/off resistances.
    """

    r_on: float = 100.0             # ohm, fully doped (LRS)
    r_off: float = 16_000.0         # ohm, fully undoped (HRS)
    thickness: float = 10e-9        # m, total oxide thickness D
    mobility: float = 1e-14         # m^2 / (V s), dopant drift mobility mu_v
    window_exponent: int = 2        # Biolek window order p

    def __post_init__(self) -> None:
        check_positive("r_on", self.r_on)
        check_positive("r_off", self.r_off)
        if self.r_off <= self.r_on:
            raise ValueError(
                f"r_off ({self.r_off}) must exceed r_on ({self.r_on})"
            )
        check_positive("thickness", self.thickness)
        check_positive("mobility", self.mobility)

    @property
    def k(self) -> float:
        """State-equation gain ``mu_v * R_on / D^2`` in 1/(A s)... times amps."""
        return self.mobility * self.r_on / self.thickness**2


class LinearIonDriftMemristor:
    """Stateful two-terminal memristor.

    The device integrates its internal state ``x`` (doped-region fraction,
    Fig 3 of the paper) under applied voltage.  ``x = 1`` is the low
    resistive state (LRS), ``x = 0`` the high resistive state (HRS).

    Examples
    --------
    >>> dev = LinearIonDriftMemristor(x0=0.1)
    >>> dev.apply_voltage(1.0, duration=1e-3, dt=1e-6)  # SET pulse
    >>> dev.resistance < LinearIonDriftMemristor(x0=0.1).resistance
    True
    """

    def __init__(
        self,
        params: Optional[MemristorParams] = None,
        x0: float = 0.5,
        window: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.params = params or MemristorParams()
        self._x = check_in_range("x0", x0, 0.0, 1.0)
        # With the default Biolek window the ODE recurrence has a closed
        # scalar form the fast kernels can inline bit-exactly; a custom
        # window steps through :meth:`step`.
        self._fast_exponent: Optional[int] = None
        if window is None:
            exponent = self.params.window_exponent
            window = lambda x, i: biolek_window(x, i, exponent)  # noqa: E731
            self._fast_exponent = 2 * exponent
        self._window = window

    @property
    def state(self) -> float:
        """Normalized doped-region width ``x`` in ``[0, 1]``."""
        return self._x

    @state.setter
    def state(self, value: float) -> None:
        self._x = check_in_range("state", value, 0.0, 1.0)

    @property
    def resistance(self) -> float:
        """Instantaneous resistance ``R_on x + R_off (1 - x)`` (Fig 3)."""
        p = self.params
        return p.r_on * self._x + p.r_off * (1.0 - self._x)

    @property
    def conductance(self) -> float:
        """Instantaneous conductance ``1 / R``."""
        return 1.0 / self.resistance

    def current(self, voltage: float) -> float:
        """Ohmic current response at the present state."""
        return voltage / self.resistance

    def step(self, voltage: float, dt: float) -> float:
        """Advance the state by one explicit-Euler step of length ``dt``.

        Returns the current that flowed during the step.
        """
        check_positive("dt", dt)
        i = self.current(voltage)
        dx = self.params.k * i * float(self._window(self._x, i)) * dt
        self._x = float(np.clip(self._x + dx, 0.0, 1.0))
        return i

    def apply_voltage(
        self, voltage: float, duration: float, dt: float = 1e-6
    ) -> None:
        """Apply a constant-voltage pulse for ``duration`` seconds.

        With the default Biolek window the explicit-Euler recurrence runs
        as a tight python-float loop (no per-step numpy scalar boxing)
        that exits early once the state stops moving — bit-equal to
        :meth:`_apply_voltage_stepped`.  A custom window steps through
        :meth:`step`.
        """
        if self._fast_exponent is None:
            self._apply_voltage_stepped(voltage, duration, dt)
            return
        steps = _pulse_steps(duration, dt)
        p = self.params
        r_on, r_off, k, p2 = p.r_on, p.r_off, p.k, self._fast_exponent
        v = float(voltage)
        x = self._x
        for _ in range(steps):
            i = v / (r_on * x + r_off * (1.0 - x))
            w = 1.0 - (x - (1.0 if i < 0.0 else 0.0)) ** p2
            x_new = x + k * i * w * dt
            if x_new < 0.0:
                x_new = 0.0
            elif x_new > 1.0:
                x_new = 1.0
            if x_new == x:
                # Fixed point: every further step recomputes this exact
                # state, so the stepped reference lands here too.
                break
            x = x_new
        self._x = x

    def _apply_voltage_stepped(
        self, voltage: float, duration: float, dt: float = 1e-6
    ) -> None:
        """Reference pulse: every step through :meth:`step`."""
        for _ in range(_pulse_steps(duration, dt)):
            self.step(voltage, dt)

    def sweep(
        self,
        amplitude: float,
        frequency: float,
        cycles: int = 1,
        points_per_cycle: int = 2000,
    ) -> "IVSweepResult":
        """Drive the device with ``v(t) = A sin(2 pi f t)`` and record I-V.

        The returned trace exhibits the pinched hysteresis loop that is the
        fingerprint of memristive behaviour (both branches pass through the
        origin).

        Kernel selection follows :meth:`apply_voltage` (no early exit
        here — the drive varies); the trace is bit-identical to
        :meth:`_sweep_stepped`.
        """
        if self._fast_exponent is None:
            return self._sweep_stepped(
                amplitude, frequency, cycles, points_per_cycle
            )
        t, v, dt = _sine_drive(amplitude, frequency, cycles, points_per_cycle)
        n = t.size
        i = np.empty(n)
        x = np.empty(n)
        p = self.params
        r_on, r_off, k, p2 = p.r_on, p.r_off, p.k, self._fast_exponent
        xs = self._x
        v_list = v.tolist()
        for idx in range(n):
            x[idx] = xs
            vi = v_list[idx]
            cur = vi / (r_on * xs + r_off * (1.0 - xs))
            i[idx] = cur
            w = 1.0 - (xs - (1.0 if cur < 0.0 else 0.0)) ** p2
            x_new = xs + k * cur * w * dt
            if x_new < 0.0:
                x_new = 0.0
            elif x_new > 1.0:
                x_new = 1.0
            xs = x_new
        self._x = xs
        return IVSweepResult(time=t, voltage=v, current=i, state=x)

    def _sweep_stepped(
        self,
        amplitude: float,
        frequency: float,
        cycles: int = 1,
        points_per_cycle: int = 2000,
    ) -> "IVSweepResult":
        """Reference sweep: every sample through :meth:`step`."""
        t, v, dt = _sine_drive(amplitude, frequency, cycles, points_per_cycle)
        i = np.empty(t.size)
        x = np.empty(t.size)
        for idx in range(t.size):
            x[idx] = self._x
            i[idx] = self.step(float(v[idx]), dt)
        return IVSweepResult(time=t, voltage=v, current=i, state=x)


@dataclass
class VTEAMParams:
    """Parameters of the VTEAM threshold memristor model (Kvatinsky et al.).

    Unlike linear ion drift, VTEAM only moves the state when the applied
    voltage exceeds a threshold — which is exactly why ReRAM reads at
    ``|v| < v_on/v_off`` are (mostly) non-destructive, and why SET/RESET
    need the higher write voltages the paper's Conclusions discuss.
    """

    r_on: float = 100.0
    r_off: float = 16_000.0
    v_off: float = 0.7       # V, positive threshold (toward LRS here)
    v_on: float = -0.7       # V, negative threshold (toward HRS)
    k_off: float = 5e3       # 1/s, rate coefficient above v_off
    k_on: float = -5e3       # 1/s, rate coefficient below v_on
    alpha_off: int = 3       # nonlinearity exponents
    alpha_on: int = 3

    def __post_init__(self) -> None:
        check_positive("r_on", self.r_on)
        check_positive("r_off", self.r_off)
        if self.r_off <= self.r_on:
            raise ValueError(
                f"r_off ({self.r_off}) must exceed r_on ({self.r_on})"
            )
        check_positive("v_off", self.v_off)
        if self.v_on >= 0:
            raise ValueError(f"v_on must be negative, got {self.v_on}")
        check_positive("k_off", self.k_off)
        if self.k_on >= 0:
            raise ValueError(f"k_on must be negative, got {self.k_on}")
        if self.alpha_off < 1 or self.alpha_on < 1:
            raise ValueError("alpha exponents must be >= 1")


class VTEAMMemristor:
    """VTEAM device: thresholded, highly nonlinear switching.

    State convention matches :class:`LinearIonDriftMemristor`: ``x = 1``
    is LRS.  A positive over-threshold voltage SETs (x rises), a negative
    one RESETs.  Sub-threshold voltages leave the state untouched — the
    model's defining feature.
    """

    def __init__(
        self,
        params: Optional[VTEAMParams] = None,
        x0: float = 0.5,
    ) -> None:
        self.params = params or VTEAMParams()
        self._x = check_in_range("x0", x0, 0.0, 1.0)

    @property
    def state(self) -> float:
        """Normalized state in [0, 1] (1 = LRS)."""
        return self._x

    @property
    def resistance(self) -> float:
        """Linear interpolation between R_on (x=1) and R_off (x=0)."""
        p = self.params
        return p.r_on * self._x + p.r_off * (1.0 - self._x)

    @property
    def conductance(self) -> float:
        """1 / resistance."""
        return 1.0 / self.resistance

    def current(self, voltage: float) -> float:
        """Ohmic read current at the present state."""
        return voltage / self.resistance

    def state_derivative(self, voltage: float) -> float:
        """dx/dt under ``voltage`` (zero inside the threshold window)."""
        p = self.params
        if voltage >= p.v_off:
            drive = p.k_off * (voltage / p.v_off - 1.0) ** p.alpha_off
        elif voltage <= p.v_on:
            drive = p.k_on * (voltage / p.v_on - 1.0) ** p.alpha_on
        else:
            return 0.0
        window = float(biolek_window(self._x, drive))
        return drive * window

    def step(self, voltage: float, dt: float) -> float:
        """One explicit-Euler step; returns the device current."""
        check_positive("dt", dt)
        dx = self.state_derivative(voltage) * dt
        self._x = float(np.clip(self._x + dx, 0.0, 1.0))
        return self.current(voltage)

    def apply_voltage(
        self, voltage: float, duration: float, dt: float = 1e-6
    ) -> None:
        """Constant-voltage pulse of ``duration`` seconds.

        The constant over-threshold drive is hoisted out of the loop, the
        window/clip recurrence runs on python floats and stops at the
        first fixed point — bit-equal to :meth:`_apply_voltage_stepped`.
        Sub-threshold pulses return immediately (the state provably never
        moves — VTEAM's defining feature).
        """
        steps = _pulse_steps(duration, dt)
        p = self.params
        if p.v_on < voltage < p.v_off:
            return  # zero drive at every step; state untouched
        if voltage >= p.v_off:
            drive = p.k_off * (voltage / p.v_off - 1.0) ** p.alpha_off
        else:
            drive = p.k_on * (voltage / p.v_on - 1.0) ** p.alpha_on
        step_ = 1.0 if drive < 0.0 else 0.0
        x = self._x
        for _ in range(steps):
            w = 1.0 - (x - step_) ** 4  # default Biolek window, p = 2
            x_new = x + drive * w * dt
            if x_new < 0.0:
                x_new = 0.0
            elif x_new > 1.0:
                x_new = 1.0
            if x_new == x:
                break
            x = x_new
        self._x = x

    def _apply_voltage_stepped(
        self, voltage: float, duration: float, dt: float = 1e-6
    ) -> None:
        """Reference pulse: every step through :meth:`step`."""
        for _ in range(_pulse_steps(duration, dt)):
            self.step(voltage, dt)

    def is_read_safe(self, read_voltage: float) -> bool:
        """Whether ``read_voltage`` lies strictly inside the threshold
        window (no state motion at all)."""
        return self.params.v_on < read_voltage < self.params.v_off


@dataclass
class IVSweepResult:
    """Trace of a sinusoidal I-V sweep."""

    time: np.ndarray
    voltage: np.ndarray
    current: np.ndarray
    state: np.ndarray

    def hysteresis_is_pinched(self, tolerance: float = 1e-3) -> bool:
        """Check the memristor fingerprint: ``i ~ 0`` whenever ``v ~ 0``.

        ``tolerance`` bounds ``|i| / max|i|`` at the voltage zero crossings.
        """
        v_scale = np.max(np.abs(self.voltage))
        i_scale = np.max(np.abs(self.current))
        if i_scale == 0:
            return True
        near_zero_v = np.abs(self.voltage) < tolerance * v_scale
        if not near_zero_v.any():
            return True
        return bool(np.all(np.abs(self.current[near_zero_v]) < 10 * tolerance * i_scale))

    def loop_area(self) -> float:
        """Signed area enclosed by the I-V loop (shoelace over the trace).

        Shrinks toward zero as drive frequency rises — the second memristor
        fingerprint.
        """
        v, i = self.voltage, self.current
        return 0.5 * abs(float(np.sum(v * np.roll(i, -1) - i * np.roll(v, -1))))
