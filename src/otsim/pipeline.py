"""Image edge detection through the XOR circuit, and rate-coded gradient
estimation.

A binary image and its one-pixel-shifted opponent are flattened row-major
and streamed as synchronized pulse trains into the XOR gate.  The switch
conducts only while the two pulses disagree, so counting conduction bursts
per clock period recovers the XOR of the two bit streams; capacitive feed-
through from coincident pulse edges carries no device current and is
therefore invisible to the counter.

Long streams are simulated in independent segments, one after another,
with the circuit state reset at segment boundaries; boundaries fall between
clock periods so no pixel pair ever straddles a reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import OtsParams, default_params
from .engine import Trace, burst_refractory, count_crossings, transient
from .gates import DT_LOGIC, GateKind, LogicEncoding, build_gate
from .imaging import BinaryImage, ShiftDirection, shift
from .waveforms import Dc, require_finite

_BURST_CURRENT = 3e-4  # A, switch current that marks a conduction burst, in streams and gradients
PULSE_WIDTH = 5e-6     # s, length of a stream's pulse for a 1 bit
CLOCK_PERIOD = 10e-6   # s, one stream bit per clock period
GRADIENT_WINDOW = 1e-3  # s, default length of a gradient-rate run


@dataclass(frozen=True)
class PulseTrain:
    """Return-to-zero pulse encoding of a bit sequence: one CLOCK_PERIOD per
    bit, pulsing from ground to v_high for PULSE_WIDTH when the bit is 1."""

    bits: tuple[int, ...]
    v_high: float = LogicEncoding.v_high

    def __post_init__(self) -> None:
        require_finite("PulseTrain", v_high=self.v_high)
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0/1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def duration(self) -> float:
        return len(self.bits) * CLOCK_PERIOD

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k = t // CLOCK_PERIOD
        # index -1 (before the first bit) and len(bits) (after the last) read the appended 0
        bit = np.append(self.bits, 0)[np.clip(k, -1, len(self.bits)).astype(np.intp)]
        return np.where((bit == 1) & ((t - k * CLOCK_PERIOD) < PULSE_WIDTH), self.v_high, 0.0)[()]


@dataclass(frozen=True)
class GradientSample:
    delta_c: float  # contrast difference, 0..255
    rate: float     # firing rate, Hz

    def __post_init__(self) -> None:
        if self.delta_c < 0 or self.rate < 0:
            raise ValueError("delta_c and rate must be non-negative")


@dataclass(frozen=True)
class LinearFit:
    slope: float      # Hz per contrast unit
    intercept: float  # Hz
    floor: float      # contrast units, clamped >= 0
    r2: float


@dataclass(frozen=True)
class StreamSettings:
    """Knobs of the circuit stream decoder.  Segments run one after
    another; `n_jobs` has no effect; it is accepted for existing callers."""

    clock_period = CLOCK_PERIOD    # not a field: every stream uses it
    dt: float = DT_LOGIC           # below PULSE_WIDTH, which it divides
    segment_clocks: int = 256      # state reset between segments (<= 4096)
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < PULSE_WIDTH):
            raise ValueError(f"dt must be positive and below the pulse width {PULSE_WIDTH:g} s, got {self.dt!r}")
        # relative tolerance: 5e-6 / 50e-9 is 100.00000000000001
        steps = [span / self.dt for span in (PULSE_WIDTH, CLOCK_PERIOD)]
        if not all(math.isfinite(n) and math.isclose(n, round(n), rel_tol=1e-9) for n in steps):
            raise ValueError(f"dt must divide the pulse width {PULSE_WIDTH:g} s and the clock period "
                             f"{CLOCK_PERIOD:g} s, got {self.dt!r}")
        if not (0 < self.segment_clocks <= 4096):
            raise ValueError("segment_clocks must be in 1..4096")


def _xor_stream(spec_a, spec_b, p: OtsParams, t_stop: float, dt: float) -> Trace:
    """Transient of the XOR gate template driven by arbitrary waveforms."""
    net = build_gate(GateKind.XOR, p).net
    return transient(net, t_stop, dt, sources={"S_S1": spec_a, "S_S2": spec_b})


def _count_bursts_per_clock(times: np.ndarray, current: np.ndarray,
                            n_clocks: int, settings: StreamSettings) -> list[int]:
    events = count_crossings(times, np.abs(current), _BURST_CURRENT, burst_refractory(settings.dt))
    counts = [0] * n_clocks
    for ts in events:
        k = int(ts // CLOCK_PERIOD)
        if 0 <= k < n_clocks:
            counts[k] += 1
        elif k == n_clocks:  # event exactly at the final sample
            counts[-1] += 1
    return counts


def _run_segment(bits_a: tuple[int, ...], bits_b: tuple[int, ...],
                 enc: LogicEncoding, p: OtsParams,
                 settings: StreamSettings) -> list[int]:
    spec_a = PulseTrain(bits_a, enc.v_high)
    spec_b = PulseTrain(bits_b, enc.v_high)
    tr = _xor_stream(spec_a, spec_b, p, spec_a.duration, settings.dt)
    counts = _count_bursts_per_clock(tr.times, tr.currents["OTS1"], len(bits_a), settings)
    return [1 if c else 0 for c in counts]


def xor_stream_circuit(bits_a, bits_b, enc: LogicEncoding | None = None,
                       p: OtsParams | None = None,
                       settings: StreamSettings | None = None) -> list[int]:
    """Bitwise XOR of two equal-length bit sequences, computed by streaming
    them as pulse trains through the XOR circuit and counting conduction
    bursts in each clock period."""
    bits_a = tuple(int(b) for b in bits_a)
    bits_b = tuple(int(b) for b in bits_b)
    if len(bits_a) != len(bits_b):
        raise ValueError(f"input lengths differ: {len(bits_a)} vs {len(bits_b)}")
    if not bits_a:
        return []
    enc = enc or LogicEncoding()
    p = p or default_params()
    settings = settings or StreamSettings()

    seg = settings.segment_clocks
    out: list[int] = []
    for i in range(0, len(bits_a), seg):
        out.extend(_run_segment(bits_a[i : i + seg], bits_b[i : i + seg], enc, p, settings))
    return out


def detect_edges(img: BinaryImage, enc: LogicEncoding | None = None,
                 p: OtsParams | None = None,
                 settings: StreamSettings | None = None) -> BinaryImage:
    """Circuit-driven edge map: XOR against the horizontal and vertical
    opponents, then a pixel-wise OR of the two directional edge maps."""
    if img.width < 2 or img.height < 2:
        raise ValueError("edge detection needs at least a 2x2 image")
    x0 = img.flatten()
    xh = shift(img, ShiftDirection.HORIZONTAL).flatten()
    xv = shift(img, ShiftDirection.VERTICAL).flatten()
    e_h = xor_stream_circuit(x0, xh, enc, p, settings)
    e_v = xor_stream_circuit(x0, xv, enc, p, settings)
    shape = (img.height, img.width)
    eh = np.array(e_h, dtype=np.uint8).reshape(shape)
    ev = np.array(e_v, dtype=np.uint8).reshape(shape)
    return BinaryImage(eh | ev)


def mismatch_report(result: BinaryImage, reference: BinaryImage) -> dict:
    """Pixel coordinates where the circuit output differs from the oracle."""
    if result.bits.shape != reference.bits.shape:
        raise ValueError("image shapes differ")
    ys, xs = np.nonzero(result.bits != reference.bits)
    return {
        "total": int(len(xs)),
        "mismatches": [(int(x), int(y)) for x, y in zip(xs, ys)],
    }


# ---------------------------------------------------------------------------
# gradient estimation
# ---------------------------------------------------------------------------


def gradient_rate(c_a: float, c_b: float, window: float = GRADIENT_WINDOW,
                  p: OtsParams | None = None,
                  enc: LogicEncoding | None = None, *,
                  dt: float = DT_LOGIC) -> GradientSample:
    """Firing rate of the XOR circuit when the two pixels are applied as
    sustained analog levels v_high*(c/255); the rate encodes the contrast
    difference.  Bursts are counted from `enc.settle` to the end of the
    window."""
    for c in (c_a, c_b):
        if not (0 <= c <= 255):
            raise ValueError(f"contrast {c} outside [0, 255]")
    enc = enc or LogicEncoding()
    if window <= enc.settle:
        raise ValueError("window must exceed the settle interval")
    p = p or default_params()
    tr = _xor_stream(Dc(enc.v_high * c_a / 255.0), Dc(enc.v_high * c_b / 255.0), p, window, dt)
    mask = tr.times >= enc.settle
    events = count_crossings(tr.times[mask], np.abs(tr.currents["OTS1"][mask]),
                             _BURST_CURRENT, burst_refractory(dt))
    rate = len(events) / (window - enc.settle)
    return GradientSample(abs(c_a - c_b), rate)


def sweep_gradient(deltas, window: float = GRADIENT_WINDOW, p: OtsParams | None = None,
                   enc: LogicEncoding | None = None, **kw) -> list[GradientSample]:
    return [gradient_rate(float(d), 0.0, window, p, enc, **kw) for d in deltas]


def fit_linear(samples: list[GradientSample]) -> LinearFit:
    """Least-squares line through the nonzero-rate samples; the detection
    floor is the x-intercept clamped to zero."""
    pts = [(s.delta_c, s.rate) for s in samples if s.rate > 0.0]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 nonzero-rate samples, got {len(pts)}")
    x = np.array([q[0] for q in pts])
    y = np.array([q[1] for q in pts])
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate sweep: all samples at one contrast difference")
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ np.array([slope, intercept])
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    floor = max(0.0, -intercept / slope) if slope != 0 else 0.0
    if not math.isfinite(floor):
        floor = 0.0
    return LinearFit(float(slope), float(intercept), float(floor), float(r2))
