"""The benchmark's three workloads: seeded inputs, the calls into otsim, and
the oracle checks on every output.

A workload runs in rounds of ops.  Round ``k`` of seed ``s`` draws its
inputs from ``numpy.random.default_rng([s, k])``, so the same seed always
gives the same rounds.  Every round has the same make-up (one image, half
noise and half blocks; all eight gates in a fixed order; four biases, one
from each quarter of the range), so op ``j`` of one round costs about what
op ``j`` of any other round costs, whatever the seed.

Importing this module imports otsim, so it is the benchmark's set-up.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Calls go through the module attributes (pipeline.detect_edges, not a
# local name) so that the tracer's wrappers on those bindings see them.
from otsim import energy, gates, imaging, pipeline, rig
from otsim.device import default_params
from otsim.gates import GateKind, LogicEncoding
from otsim.imaging import BinaryImage
from otsim.pipeline import StreamSettings

# edge_stream: one 4x8 = 32-pixel image per round, streamed in 16-clock
# segments, so each shift direction is two segments and every call resets
# the state and rebuilds the netlist four times.  Short segments keep one
# call under about a second, so that the host-speed samples between calls
# follow the host closely.  The left half is random noise and the right
# half 2x2 blocks, so every row, and so every segment, carries both the
# dense edges of noise and the sparse ones of blocky content.
EDGE_SHAPE = (4, 8)
EDGE_BLOCK = 2
EDGE_SEGMENT_CLOCKS = 16
EDGE_DT = 50e-9

LOGIC_DT = 50e-9
LOGIC_V_HIGH = (4.5, 5.5)   # the +/-10 % margin default_params promises

OSC_BIASES_PER_ROUND = 4
OSC_BIAS = (3.4, 5.2)
OSC_DURATION = 300e-6
OSC_DT = 10e-9
OSC_PERIOD_TOL = 0.15       # the c3 acceptance tolerance


@dataclass
class OpResult:
    """Outcome of one op: checks attempted and failed, simulated steps, the
    units the throughput counts, and bytes that identify the outputs."""

    attempted: int
    failed: int
    steps: int
    units: int
    digest: bytes


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                                   # what ops_per_s counts, by name
    make_round: Callable[[int, int], list]      # (seed, round index) -> op inputs
    run_op: Callable[[Any], OpResult]
    warm_up: Callable[[], None]
    trace_rounds: int = 1                       # rounds the traced run covers


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _failed_op(attempted: int, steps: int, units: int, exc: Exception) -> OpResult:
    """A crashed op fails every check it would have made."""
    traceback.print_exc(file=sys.stderr)
    return OpResult(attempted, attempted, steps, units, repr(exc).encode())


# ---------------------------------------------------------------------------
# edge_stream
# ---------------------------------------------------------------------------


def _edge_inputs(seed: int, k: int) -> list[BinaryImage]:
    rng = _rng(seed, k)
    h, w = EDGE_SHAPE
    noise = rng.integers(0, 2, size=(h, w // 2))
    blocks = rng.integers(0, 2, size=(h // EDGE_BLOCK, w // 2 // EDGE_BLOCK))
    blocky = np.kron(blocks, np.ones((EDGE_BLOCK, EDGE_BLOCK), dtype=np.int64))
    return [BinaryImage(np.hstack([noise, blocky]))]


def _edge_op(img: BinaryImage) -> OpResult:
    settings = StreamSettings(dt=EDGE_DT, segment_clocks=EDGE_SEGMENT_CLOCKS)
    pixels = img.width * img.height
    # each pixel is one clock period in each of the two shift directions
    steps = 2 * pixels * round(settings.clock_period / settings.dt)
    try:
        edges = pipeline.detect_edges(img, settings=settings)
        failed = int(np.count_nonzero(edges.bits != imaging.reference_edges(img).bits))
    except Exception as exc:
        return _failed_op(pixels, steps, 2 * pixels, exc)
    shape = np.asarray(edges.bits.shape, dtype=np.int64)
    return OpResult(pixels, failed, steps, 2 * pixels, shape.tobytes() + edges.bits.tobytes())


def _edge_warm_up() -> None:
    pipeline.detect_edges(BinaryImage(np.eye(4, dtype=np.uint8)),
                          settings=StreamSettings(dt=EDGE_DT, segment_clocks=EDGE_SEGMENT_CLOCKS))


# ---------------------------------------------------------------------------
# logic_tables
# ---------------------------------------------------------------------------


def _logic_inputs(seed: int, k: int) -> list[tuple[GateKind, float]]:
    rng = _rng(seed, k)
    return [(kind, float(rng.uniform(*LOGIC_V_HIGH))) for kind in GateKind]


def _logic_op(spec: tuple[GateKind, float]) -> OpResult:
    kind, v_high = spec
    enc = LogicEncoding(v_high=v_high)
    rows = 2 ** gates.gate_arity(kind)
    steps = rows * round((enc.settle + enc.bit_width) / LOGIC_DT)
    try:
        table = gates.truth_table(kind, enc, dt=LOGIC_DT)
        failed = rows - len({r.inputs for r in table.rows})
        failed += sum(r.measured != gates.expected_bits(kind, r.inputs) for r in table.rows)
    except Exception as exc:
        return _failed_op(rows, steps, rows, exc)
    return OpResult(rows, failed, steps, rows, table.to_json().encode())


def _logic_warm_up() -> None:
    gates.truth_table(GateKind.XOR, dt=LOGIC_DT)


# ---------------------------------------------------------------------------
# osc_long
# ---------------------------------------------------------------------------


def oracle_period(v_in: float) -> float:
    """Closed-form relaxation period of the measurement rig: RC charge from
    the reset level to threshold, on-phase discharge back to the reset
    level, plus both switching delays."""
    p = default_params()
    r_path = p.r_on + rig.R_SERIES
    v_reset = p.v_hold + p.i_hold * r_path
    t_charge = rig.R_BIAS * rig.C_PAR * math.log((v_in - v_reset) / (v_in - p.v_th))
    g_d, g_on = 1.0 / rig.R_BIAS, 1.0 / r_path
    v_eq = (v_in * g_d + p.v_hold * g_on) / (g_d + g_on)
    t_disc = (rig.C_PAR / (g_d + g_on)) * math.log((p.v_th - v_eq) / (v_reset - v_eq))
    return t_charge + t_disc + p.tau_on + p.tau_off


def _osc_inputs(seed: int, k: int) -> list[float]:
    """One bias from each of OSC_BIASES_PER_ROUND equal slices of OSC_BIAS,
    lowest first, so that op j of every round spikes about as often."""
    lo, hi = OSC_BIAS
    edges = np.linspace(lo, hi, OSC_BIASES_PER_ROUND + 1)
    return [float(v) for v in _rng(seed, k).uniform(edges[:-1], edges[1:])]


def _osc_op(v_in: float) -> OpResult:
    steps = round(OSC_DURATION / OSC_DT)
    try:
        res = rig.run_oscillator(v_in, OSC_DURATION, dt=OSC_DT)
        spikes = res.spikes.spike_times
        if len(spikes) < 3:
            return OpResult(1, 1, steps, 1, repr(spikes).encode())
        period = float(np.mean(np.diff(spikes)))
        oracle = oracle_period(v_in)
        mid = spikes[len(spikes) // 2]
        e_spike = energy.spike_energy(rig.measurement_netlist(v_in), res.trace, rig.OTS_NAME,
                                      (mid - period / 2, mid + period / 2))
    except Exception as exc:
        return _failed_op(1, steps, 1, exc)
    ok = abs(period - oracle) / oracle <= OSC_PERIOD_TOL and math.isfinite(e_spike) and e_spike > 0.0
    return OpResult(1, int(not ok), steps, 1, repr((spikes, e_spike)).encode())


def _osc_warm_up() -> None:
    rig.run_oscillator(4.0, 50e-6, dt=OSC_DT)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("edge_stream", "pixel_pairs_per_s", _edge_inputs, _edge_op, _edge_warm_up, 4),
        Workload("logic_tables", "rows_per_s", _logic_inputs, _logic_op, _logic_warm_up),
        Workload("osc_long", "osc_runs_per_s", _osc_inputs, _osc_op, _osc_warm_up),
    )
}
