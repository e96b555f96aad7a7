"""Source waveform specifications: DC, piecewise-linear, pulse trains, and
a single triangular ramp.  Each spec evaluates to a voltage at time t."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field


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

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through (time, volts) breakpoints; clamped at the
    ends.  Times must be strictly increasing."""

    points: tuple[tuple[float, float], ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_times", times)

    def __call__(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        i = bisect.bisect_right(self._times, t)
        (t0, v0), (t1, v1) = pts[i - 1], pts[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


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

    def __call__(self, t: float) -> float:
        t = t - self.delay
        if t < 0.0:
            return self.v_low
        n = int(t // self.period)
        if self.repeat is not None and n >= self.repeat:
            return self.v_low
        return self.v_high if (t - n * self.period) < self.width else self.v_low


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

    def __call__(self, t: float) -> float:
        if t <= 0.0 or t >= self.duration:
            return 0.0
        if t < self.t_rise:
            return self.v_peak * t / self.t_rise
        return self.v_peak * (1.0 - (t - self.t_rise) / self.t_fall)


SourceSpec = Dc | PiecewiseLinear | Pulse | Triangle
