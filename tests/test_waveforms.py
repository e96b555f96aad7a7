"""Waveform evaluation on arrays of times against the scalar laws.

Each reference below is the scalar ``__call__`` body its waveform had
before it took arrays: one time in, one Python float out.  The array
``__call__`` must give the same bits at every time, which the properties
check on random parameters at the times where rounding decides the value:
exactly on breakpoints, pulse edges and period multiples and one ulp
either side of them, before the start, past the end and past a pulse's
``repeat`` limit, and on the engine's own step grids.
"""

import bisect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otsim import Dc, PiecewiseLinear, Pulse, Triangle
from otsim.pipeline import CLOCK_PERIOD, PULSE_WIDTH, PulseTrain


def ref_dc(spec: Dc, t: float) -> float:
    return spec.value


def ref_pwl(spec: PiecewiseLinear, t: float) -> float:
    pts = spec.points
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    i = bisect.bisect_right([p[0] for p in pts], t)
    (t0, v0), (t1, v1) = pts[i - 1], pts[i]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def ref_pulse(spec: Pulse, t: float) -> float:
    t = t - spec.delay
    if t < 0.0:
        return spec.v_low
    n = int(t // spec.period)
    if spec.repeat is not None and n >= spec.repeat:
        return spec.v_low
    return spec.v_high if (t - n * spec.period) < spec.width else spec.v_low


def ref_triangle(spec: Triangle, t: float) -> float:
    if t <= 0.0 or t >= spec.duration:
        return 0.0
    if t < spec.t_rise:
        return spec.v_peak * t / spec.t_rise
    return spec.v_peak * (1.0 - (t - spec.t_rise) / spec.t_fall)


def ref_pulse_train(spec: PulseTrain, t: float) -> float:
    k = int(t // CLOCK_PERIOD)
    if k < 0 or k >= len(spec.bits):
        return 0.0
    if spec.bits[k] and (t - k * CLOCK_PERIOD) < PULSE_WIDTH:
        return spec.v_high
    return 0.0


VOLTS = st.floats(-10.0, 10.0)
SPAN = st.floats(1e-9, 1e-4)


def around(marks) -> list[float]:
    """Every mark, one ulp either side of it and its negation."""
    out = []
    for m in marks:
        out += [m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf), -m]
    return out


@st.composite
def times_for(draw, marks, end: float) -> np.ndarray:
    """Times on and next to the marks, random times from before the start
    to past the end, and a step grid of the engine."""
    dt = draw(st.sampled_from([10e-9, 37e-9, 50e-9]) | st.floats(1e-10, 1e-6))
    grid = np.arange(draw(st.integers(1, 3000))) * dt
    loose = draw(st.lists(st.floats(-2.0 * end - 1e-6, 3.0 * end + 1e-6), max_size=30))
    return np.concatenate([np.array(around(marks) + loose), grid])


@st.composite
def pwl_cases(draw):
    n = draw(st.integers(1, 6))
    times = sorted(set(draw(st.lists(st.floats(-1e-4, 1e-4), min_size=n, max_size=n))))
    spec = PiecewiseLinear(tuple((t, draw(VOLTS)) for t in times))
    return spec, ref_pwl, draw(times_for(times, max(abs(times[0]), abs(times[-1]))))


@st.composite
def pulse_cases(draw):
    period = draw(SPAN)
    spec = Pulse(draw(VOLTS), draw(VOLTS), delay=draw(st.just(0.0) | SPAN),
                 width=draw(st.floats(0.01, 0.99)) * period, period=period,
                 repeat=draw(st.none() | st.integers(0, 6)))
    last = (spec.repeat if spec.repeat is not None else 6) + 2
    marks = [spec.delay + k * period + e for k in range(last) for e in (0.0, spec.width)]
    marks += [k * period for k in range(last)]
    return spec, ref_pulse, draw(times_for(marks, spec.delay + last * period))


@st.composite
def triangle_cases(draw):
    spec = Triangle(draw(VOLTS), draw(SPAN), draw(SPAN))
    return spec, ref_triangle, draw(times_for([0.0, spec.t_rise, spec.duration], spec.duration))


@st.composite
def pulse_train_cases(draw):
    spec = PulseTrain(tuple(draw(st.lists(st.integers(0, 1), max_size=24))), draw(st.floats(0.5, 6.0)))
    n = len(spec.bits) + 2
    marks = [k * CLOCK_PERIOD + e for k in range(n) for e in (0.0, PULSE_WIDTH)]
    return spec, ref_pulse_train, draw(times_for(marks, n * CLOCK_PERIOD))


@st.composite
def dc_cases(draw):
    return Dc(draw(VOLTS)), ref_dc, draw(times_for([0.0], 1e-6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(pwl_cases(), pulse_cases(), triangle_cases(), pulse_train_cases(), dc_cases()))
def test_array_call_equals_the_scalar_law(case):
    spec, ref, ts = case
    want = np.array([ref(spec, t) for t in ts.tolist()], dtype=float)
    got = np.broadcast_to(np.asarray(spec(ts), dtype=float), ts.shape)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a single time gives the same value as the array
    for t, w in zip(ts[:8].tolist(), want[:8].tolist()):
        assert float(spec(t)).hex() == w.hex()
