"""Behavioral two-state model of an Ovonic threshold switch (OTS).

The switch is volatile and ambipolar: it turns on when the magnitude of the
applied voltage reaches the threshold, conducts symmetrically in either
polarity referenced to the holding voltage, and drops back to the insulating
state once the sustained current falls below the holding current.  Switching
delays are first-order: a transition condition must hold continuously for
tau_on / tau_off before the phase actually changes.

All state is carried in immutable values; stepping returns a new state, so
instances can be shared freely between concurrent simulations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from .waveforms import require_finite

DT_DEVICE = 10e-9  # s, default time step of device-physics runs (I-V, oscillator)


@dataclass(frozen=True)
class OtsParams:
    """Device parameters.  Voltages in volts, resistance in ohms,
    conductance in siemens, current in amperes, times in seconds."""

    v_th: float = 3.0        # threshold voltage (turn-on at |v| >= v_th)
    v_hold: float = 1.0      # holding voltage of the on-state conduction law
    r_on: float = 100.0      # on-state differential resistance
    g_off: float = 1e-8      # off-state leakage conductance
    i_hold: float = 0.9e-3   # minimum sustaining current of the on state
    tau_on: float = 50e-9    # turn-on delay
    tau_off: float = 50e-9   # turn-off delay

    def __post_init__(self) -> None:
        require_finite("OtsParams", **{f.name: getattr(self, f.name) for f in fields(self)})
        for name, ok, rule in (("v_hold", self.v_hold > 0.0, "be positive"),
                               ("v_th", self.v_th > self.v_hold, f"exceed v_hold = {self.v_hold!r}"),
                               ("r_on", self.r_on > 0.0, "be positive"),
                               ("g_off", self.g_off >= 0.0, "be non-negative"),
                               ("i_hold", self.i_hold > 0.0, "be positive"),
                               ("tau_on", self.tau_on >= 0.0, "be non-negative"),
                               ("tau_off", self.tau_off >= 0.0, "be non-negative")):
            if not ok:
                raise ValueError(f"OtsParams: {name} must {rule}, got {getattr(self, name)!r}")
        if self.r_on * self.g_off >= 1e-3:
            raise ValueError(f"OtsParams: r_on*g_off (the on/off contrast) must be below 1e-3, "
                             f"got {self.r_on * self.g_off:g}")


class OtsState(namedtuple("OtsState", "on elapsed")):
    """Whether the switch is on, plus the time a transition out of that phase
    has been pending; a transition is pending exactly when `elapsed` is
    positive.  Every way of making one (`_make`, `_replace`) checks `elapsed`."""

    __slots__ = ()

    def __new__(cls, on: bool = False, elapsed: float = 0.0) -> OtsState:
        if not elapsed >= 0.0:
            raise ValueError(f"OtsState: elapsed must be non-negative, got {elapsed!r}")
        return super().__new__(cls, on, elapsed)

    @classmethod
    def _make(cls, iterable) -> OtsState:
        return cls(*iterable)


OFF_STATE = OtsState(False)
ON_STATE = OtsState(True)


def ots_current(p: OtsParams, s: OtsState, v: float) -> float:
    """Device current for voltage v (positive terminal minus negative).

    Off phase: ohmic leakage.  On phase: conduction referenced to the
    holding voltage, odd in v, zero inside the |v| < v_hold dead zone.
    """
    if not math.isfinite(v):
        raise ValueError(f"ots_current: v must be finite, got {v!r}")
    if not s.on:
        return p.g_off * v
    return math.copysign(max(0.0, abs(v) - p.v_hold), v) / p.r_on


def ots_currents(p: OtsParams, on: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`ots_current` over arrays, with the same floating-point operations:
    v[k] is taken in the on phase where on[k] and in the off phase elsewhere.
    Values are not checked for finiteness."""
    return np.where(on, np.copysign(np.maximum(0.0, np.abs(v) - p.v_hold), v) / p.r_on, p.g_off * v)


def ots_step(p: OtsParams, s: OtsState, v: float, dt: float) -> OtsState:
    """Advance the switching state by dt under applied voltage v.

    A transition condition (|v| >= v_th when off, |i| < i_hold when on)
    accumulates elapsed time while it holds; the phase flips once elapsed
    reaches the corresponding delay.  If the condition lapses the pending
    transition is cancelled.  With a zero delay the flip completes within
    the same step.  A state with no transition pending comes back as
    `OFF_STATE` or `ON_STATE` itself.
    """
    if dt <= 0.0:
        raise ValueError(f"ots_step: dt must be positive, got {dt!r}")
    if not math.isfinite(v):
        raise ValueError(f"ots_step: v must be finite, got {v!r}")

    if not s.on:
        if abs(v) >= p.v_th:
            elapsed = s.elapsed + dt
            if elapsed >= p.tau_on:
                return ON_STATE
            return OtsState(False, elapsed)
        return OFF_STATE

    if abs(ots_current(p, s, v)) < p.i_hold:
        elapsed = s.elapsed + dt
        if elapsed >= p.tau_off:
            return OFF_STATE
        return OtsState(True, elapsed)
    return ON_STATE


def default_params(**overrides: float) -> OtsParams:
    """The calibrated default parameter set.

    The defaults are a calibration, not a measurement: they are chosen so
    that the captioned measurement circuit (9.1 kOhm bias resistor, 1 nF
    parallel capacitor, 100 Ohm series resistor) self-oscillates over a wide
    bias range and every gate template resolves its truth table at 5 V
    logic levels with >= 0.25 V static margin under +/-10 % input amplitude
    variation.
    """
    return replace(OtsParams(), **overrides) if overrides else OtsParams()
