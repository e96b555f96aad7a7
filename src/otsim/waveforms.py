"""Source waveform specifications: DC, piecewise-linear, pulse trains, and
a single triangular ramp.

Calling a spec on a time, or on an ndarray of times, gives the voltage at
each: an array of the same shape (a numpy scalar for a float time), or, for
a `Dc`, its value, which broadcasts over any times.  Each element is
computed with the IEEE operations of the scalar law written in the method,
so a time gives the same bits whether it comes alone or in an array; the
engine samples every time-varying drive once per batch of steps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def require_finite(owner: str, error: type[ValueError] = ValueError, **values: float) -> None:
    """Raise `error` naming the owner and the first non-finite field."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{owner}: {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Dc:
    value: float

    def __post_init__(self) -> None:
        require_finite("Dc", value=self.value)

    def __call__(self, t: float | np.ndarray) -> float:
        return self.value


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through (time, volts) breakpoints; clamped at the
    ends.  Times must be strictly increasing."""

    points: tuple[tuple[float, float], ...]
    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _volts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(t), float(v)) for t, v in self.points)
        if len(pts) < 1:
            raise ValueError("PWL source needs at least one breakpoint")
        for k, (t, v) in enumerate(pts):
            require_finite(f"PWL breakpoint {k}", time=t, volts=v)
        times = tuple(t for t, _ in pts)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL breakpoint times must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_times", np.array(times))
        object.__setattr__(self, "_volts", np.array([v for _, v in pts]))

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        times, volts = self._times, self._volts
        v = np.where(t <= times[0], volts[0], volts[-1])
        inside = (t > times[0]) & (t < times[-1])
        ti = t[inside]
        i = np.searchsorted(times, ti, side="right")
        t0, v0 = times[i - 1], volts[i - 1]
        v[inside] = v0 + (volts[i] - v0) * (ti - t0) / (times[i] - t0)
        return v[()]


@dataclass(frozen=True)
class Pulse:
    """Rectangular pulse train: v_high for `width` out of each `period`,
    starting after `delay`, repeated `repeat` times (None = forever)."""

    v_low: float
    v_high: float
    delay: float = 0.0
    width: float = 5e-6
    period: float = 10e-6
    repeat: int | None = None

    def __post_init__(self) -> None:
        require_finite("Pulse", v_low=self.v_low, v_high=self.v_high, delay=self.delay,
                       width=self.width, period=self.period)
        if not (0.0 < self.width < self.period):
            raise ValueError("require 0 < width < period")
        if self.repeat is not None and self.repeat < 0:
            raise ValueError(f"Pulse: repeat must be non-negative, got {self.repeat!r}")

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float) - self.delay
        n = t // self.period
        high = (t >= 0.0) & ((t - n * self.period) < self.width)
        if self.repeat is not None:
            high &= n < self.repeat
        return np.where(high, self.v_high, self.v_low)[()]


@dataclass(frozen=True)
class Triangle:
    """Single triangular ramp 0 -> v_peak -> 0 (v_peak may be negative)."""

    v_peak: float
    t_rise: float
    t_fall: float

    def __post_init__(self) -> None:
        require_finite("Triangle", v_peak=self.v_peak, t_rise=self.t_rise, t_fall=self.t_fall)
        if self.t_rise <= 0.0 or self.t_fall <= 0.0:
            raise ValueError("rise and fall times must be positive")

    @property
    def duration(self) -> float:
        return self.t_rise + self.t_fall

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        ramp = np.where(t < self.t_rise, self.v_peak * t / self.t_rise,
                        self.v_peak * (1.0 - (t - self.t_rise) / self.t_fall))
        return np.where((t <= 0.0) | (t >= self.duration), 0.0, ramp)[()]


SourceSpec = Dc | PiecewiseLinear | Pulse | Triangle
