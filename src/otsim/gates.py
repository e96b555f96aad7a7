"""Gate circuit templates and the truth-table harness.

Every template realizes one operating principle: the voltage across its
threshold switch exceeds the switching threshold only for input
combinations where the gate's spiking output should be active.  The switch
is ambipolar, so a difference of either polarity fires it; that single
property yields XOR in one device and, referenced against a supply rail,
the inverting gates.

The topology of every template is described in ``otsim.circuits._NOTES``,
which also heads the shipped ``circuits/*.cir`` files.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .device import OtsParams, default_params
from .engine import Trace, burst_refractory, count_crossings, transient
from .netlist import Netlist
from .waveforms import Dc, require_finite

DT_LOGIC = 50e-9  # s, default time step of logic and pipeline runs


class GateKind(enum.Enum):
    AND = "and"
    OR = "or"
    NOR = "nor"
    NAND = "nand"
    XOR = "xor"
    HALF_ADDER = "halfadder"
    FULL_ADDER = "fulladder"
    DCAAP_CASCADE = "dcaap"

    @classmethod
    def parse(cls, name: str) -> "GateKind":
        key = name.strip().lower().replace("_", "").replace("-", "")
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown gate kind {name!r} (choose from {[k.value for k in cls]})")


@dataclass(frozen=True)
class LogicEncoding:
    """Input drive levels and evaluation timing for one truth-table row."""

    v_high: float = 5.0       # logic 0 is ground
    bit_width: float = 50e-6  # decode window length
    settle: float = 50e-6     # guard time before the decode window opens

    def __post_init__(self) -> None:
        require_finite("LogicEncoding", v_high=self.v_high, bit_width=self.bit_width, settle=self.settle)
        for name, ok, rule in (("v_high", self.v_high > 0.0, "positive"),
                               ("bit_width", self.bit_width > 0.0, "positive"),
                               ("settle", self.settle >= 0.0, "non-negative")):
            if not ok:
                raise ValueError(f"LogicEncoding: {name} must be {rule}, got {getattr(self, name)!r}")

    @property
    def window(self) -> tuple[float, float]:
        return (self.settle, self.settle + self.bit_width)


class DecodeMode(enum.Enum):
    SPIKE_COUNT = "spike_count"
    MEAN_LEVEL = "mean_level"


@dataclass(frozen=True)
class OutputSpec:
    """How one gate output is read from the simulated waveforms.

    SPIKE_COUNT outputs count threshold crossings of the node's deviation
    from its windowed mean, in both polarities (the oscilloscope-style AC
    trigger); MEAN_LEVEL outputs compare the windowed mean itself against
    the threshold.
    """

    name: str
    node: str
    mode: DecodeMode
    threshold: float


@dataclass
class GateCircuit:
    kind: GateKind
    net: Netlist
    input_nodes: list[str]
    outputs: list[OutputSpec]


_GATE_INPUTS: dict[GateKind, tuple[str, ...]] = {
    GateKind.AND: ("s1", "s2"),
    GateKind.OR: ("s1", "s2"),
    GateKind.NOR: ("s1", "s2"),
    GateKind.NAND: ("s1", "s2"),
    GateKind.XOR: ("s1", "s2"),
    GateKind.HALF_ADDER: ("a", "b"),
    GateKind.FULL_ADDER: ("a", "b", "cin"),
    GateKind.DCAAP_CASCADE: ("ex1", "ex2", "inh"),
}


def expected_bits(kind: GateKind, bits: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean reference for each gate (the truth-table oracle)."""
    if kind is GateKind.AND:
        return (bits[0] & bits[1],)
    if kind is GateKind.OR:
        return (bits[0] | bits[1],)
    if kind is GateKind.NOR:
        return (1 - (bits[0] | bits[1]),)
    if kind is GateKind.NAND:
        return (1 - (bits[0] & bits[1]),)
    if kind is GateKind.XOR:
        return (bits[0] ^ bits[1],)
    if kind is GateKind.HALF_ADDER:
        return (bits[0] ^ bits[1], bits[0] & bits[1])
    if kind is GateKind.FULL_ADDER:
        a, b, c = bits
        return (a ^ b ^ c, (a & b) | ((a ^ b) & c))
    a, b, c = bits  # dCaAP: two excitatory, one inhibitory
    return (a ^ b, (a ^ b) ^ c)


def gate_arity(kind: GateKind) -> int:
    return len(_GATE_INPUTS[kind])


# ---------------------------------------------------------------------------
# circuit cores (the AND, OR and XOR templates and the stages of the composed
# circuits); a template's core has tag "" and names its switch OTS1
# ---------------------------------------------------------------------------


def _and_core(net: Netlist, tag: str, in_a: str, in_b: str, p: OtsParams) -> str:
    m, x = f"m{tag}", f"x{tag}"
    net.add_resistor(f"R1{tag}", in_a, m, 900.0)
    net.add_resistor(f"R2{tag}", in_b, m, 900.0)
    net.add_capacitor(f"C1{tag}", m, "0", 100e-12)
    net.add_ots(f"OTS{tag or 1}", m, x, p)
    net.add_resistor(f"R3{tag}", x, "0", 5e3)
    return x


def _or_core(net: Netlist, tag: str, in_a: str, in_b: str, p: OtsParams) -> str:
    m, x = f"m{tag}", f"x{tag}"
    net.add_diode(f"D1{tag}", in_a, f"da{tag}")
    net.add_resistor(f"R1{tag}", f"da{tag}", m, 900.0)
    net.add_diode(f"D2{tag}", in_b, f"db{tag}")
    net.add_resistor(f"R2{tag}", f"db{tag}", m, 900.0)
    net.add_capacitor(f"C1{tag}", m, "0", 100e-12)
    net.add_ots(f"OTS{tag or 1}", m, x, p)
    net.add_resistor(f"R3{tag}", x, "0", 5e3)
    return x


def _xor_core(net: Netlist, tag: str, in_a: str, in_b: str, p: OtsParams) -> str:
    """Returns the kick output node."""
    a, b, k, out = f"a{tag}", f"b{tag}", f"k{tag}", f"out{tag}"
    net.add_resistor(f"R1{tag}", in_a, a, 1e3)
    net.add_resistor(f"R2{tag}", in_b, b, 1e3)
    net.add_ots(f"OTS{tag or 1}", a, k, p)
    net.add_capacitor(f"C1{tag}", k, b, 1e-9)
    net.add_resistor(f"R4{tag}", k, b, 10e3)
    net.add_capacitor(f"C2{tag}", k, out, 100e-12)
    net.add_resistor(f"R3{tag}", out, "0", 50e3)
    return out


def _hold(net: Netlist, tag: str, pulse_nodes: list[str]) -> str:
    """Diode-OR rail pulses into an RC envelope that bridges spike gaps but
    forgets stale activity well before the decode window."""
    e = f"env{tag}"
    for i, pn in enumerate(pulse_nodes):
        net.add_diode(f"DH{tag}{i}", pn, e)
    net.add_capacitor(f"CE{tag}", e, "0", 1e-9)
    net.add_resistor(f"RE{tag}", e, "0", 10e3)
    return e


def _xor_buffered(net: Netlist, tag: str, in_a: str, in_b: str, p: OtsParams) -> str:
    """XOR core whose bipolar kicks are rectified by a comparator pair into
    a held envelope node; returns the envelope node."""
    out = _xor_core(net, tag, in_a, in_b, p)
    net.add_comparator(f"CMPP{tag}", out, "refp", f"pp{tag}")
    net.add_comparator(f"CMPN{tag}", "refn", out, f"pn{tag}")
    return _hold(net, tag, [f"pp{tag}", f"pn{tag}"])


def _spike_buffered(net: Netlist, tag: str, x_node: str) -> str:
    """Envelope of the unipolar sense-node bursts of an AND/OR core."""
    net.add_comparator(f"CMPA{tag}", x_node, "refa", f"pa{tag}")
    return _hold(net, tag, [f"pa{tag}"])


def _add_refs(net: Netlist) -> None:
    net.add_source("REFP", "refp", "0", Dc(0.4))
    net.add_source("REFN", "refn", "0", Dc(-0.4))
    net.add_source("REFA", "refa", "0", Dc(1.2))
    net.add_source("REFM", "refm", "0", Dc(2.0))


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


def build_gate(kind: GateKind, p: OtsParams | None = None,
               enc: LogicEncoding | None = None,
               bits: tuple[int, ...] | None = None) -> GateCircuit:
    """Construct the netlist for one gate with its inputs driven at the DC
    levels for `bits` (all zero when omitted).  Input and output nodes are
    labeled; outputs carry their decode rule."""
    p = p or default_params()
    enc = enc or LogicEncoding()
    names = _GATE_INPUTS[kind]
    if bits is None:
        bits = tuple(0 for _ in names)
    if len(bits) != len(names) or any(b not in (0, 1) for b in bits):
        raise ValueError(f"{kind.value} takes {len(names)} bits, got {bits!r}")

    net = Netlist()
    for nm, b in zip(names, bits):
        net.add_source(f"S_{nm.upper()}", nm, "0", Dc(enc.v_high * b))

    if kind in (GateKind.AND, GateKind.OR):
        core = _and_core if kind is GateKind.AND else _or_core
        outputs = [OutputSpec("y", core(net, "", *names, p), DecodeMode.SPIKE_COUNT, 1.2)]

    elif kind is GateKind.NOR:
        net.add_resistor("R1", names[0], "m", 900.0)
        net.add_resistor("R2", names[1], "m", 900.0)
        net.add_capacitor("C1", "m", "0", 100e-12)
        net.add_resistor("R3", "m", "mp", 900.0)
        net.add_ots("OTS1", "q", "mp", p)
        net.add_source("VDD", "vdd", "0", Dc(5.0))
        net.add_resistor("R4", "vdd", "q", 5e3)
        net.add_capacitor("C2", "q", "0", 100e-12)
        outputs = [OutputSpec("y", "mp", DecodeMode.SPIKE_COUNT, 0.6)]

    elif kind is GateKind.NAND:
        net.add_source("VDD", "vdd", "0", Dc(5.0))
        net.add_resistor("R3", "vdd", "x1", 900.0)
        net.add_resistor("R4", "x1", "t", 5e3)
        net.add_capacitor("C2", "t", "0", 100e-12)
        net.add_ots("OTS1", "t", "m", p)
        net.add_capacitor("C1", "m", "0", 100e-12)
        net.add_diode("D1", "m", "a1")
        net.add_resistor("R1", "a1", names[0], 900.0)
        net.add_diode("D2", "m", "b1")
        net.add_resistor("R2", "b1", names[1], 900.0)
        outputs = [OutputSpec("y", "m", DecodeMode.SPIKE_COUNT, 0.3)]

    elif kind is GateKind.XOR:
        outputs = [OutputSpec("y", _xor_core(net, "", *names, p), DecodeMode.SPIKE_COUNT, 0.4)]

    elif kind is GateKind.HALF_ADDER:
        # sum: XOR branch, 3 kOhm inputs; the conduction bursts are read as
        # the current bounce across the second input resistor (node xb).
        net.add_resistor("R1", names[0], "xa", 3e3)
        net.add_resistor("R2", names[1], "xb", 3e3)
        net.add_ots("OTS1", "xa", "k", p)
        net.add_capacitor("C1", "k", "xb", 1e-9)
        net.add_resistor("R5", "k", "xb", 1e3)
        net.add_capacitor("C2", "k", "0", 100e-12)
        # carry: AND branch; latches on (1,1), read as a level.
        net.add_resistor("R3", names[0], "mc", 1e3)
        net.add_resistor("R4", names[1], "mc", 1e3)
        net.add_capacitor("C3", "mc", "0", 500e-12)
        net.add_ots("OTS2", "mc", "xc", p)
        net.add_resistor("R6", "xc", "0", 200.0)
        outputs = [
            OutputSpec("sum", "xb", DecodeMode.SPIKE_COUNT, 0.04),
            OutputSpec("carry", "xc", DecodeMode.MEAN_LEVEL, 0.5),
        ]

    elif kind is GateKind.DCAAP_CASCADE:
        _add_refs(net)
        e1 = _xor_buffered(net, "x1", names[0], names[1], p)
        net.add_comparator("CMPB1", e1, "refm", "y1")
        e2 = _xor_buffered(net, "x2", "y1", names[2], p)
        outputs = [
            OutputSpec("y_xor1", e1, DecodeMode.MEAN_LEVEL, 1.0),
            OutputSpec("y_xor2", e2, DecodeMode.MEAN_LEVEL, 1.0),
        ]

    elif kind is GateKind.FULL_ADDER:
        _add_refs(net)
        e_x1 = _xor_buffered(net, "x1", names[0], names[1], p)
        net.add_comparator("CMPB1", e_x1, "refm", "y1")
        e_sum = _xor_buffered(net, "x2", "y1", names[2], p)
        xa1 = _and_core(net, "a1", names[0], names[1], p)
        e_a1 = _spike_buffered(net, "a1", xa1)
        net.add_comparator("CMPB2", e_a1, "refm", "ya1")
        xa2 = _and_core(net, "a2", "y1", names[2], p)
        e_a2 = _spike_buffered(net, "a2", xa2)
        net.add_comparator("CMPB3", e_a2, "refm", "ya2")
        x_or = _or_core(net, "or", "ya1", "ya2", p)
        e_cout = _spike_buffered(net, "or", x_or)
        outputs = [
            OutputSpec("sum", e_sum, DecodeMode.MEAN_LEVEL, 1.0),
            OutputSpec("carry", e_cout, DecodeMode.MEAN_LEVEL, 1.0),
        ]
    else:  # pragma: no cover
        raise ValueError(f"unhandled gate kind {kind}")

    net.validate()
    return GateCircuit(kind, net, list(names), outputs)


# ---------------------------------------------------------------------------
# decoding and evaluation
# ---------------------------------------------------------------------------


def decode_output(tr: Trace, out: OutputSpec, enc: LogicEncoding) -> tuple[int, float]:
    """Decoded bit and its raw measurement (event count or mean level)."""
    lo, hi = enc.window
    t = tr.times
    mask = (t >= lo) & (t <= hi)
    if not np.any(mask):
        raise ValueError("decode window lies outside the trace")
    v = tr.voltage(out.node)[mask]
    if out.mode is DecodeMode.MEAN_LEVEL:
        mean = float(v.mean())
        return (1 if mean > out.threshold else 0, mean)
    x = v - v.mean()
    tt = t[mask]
    refractory = burst_refractory(tr.dt)
    n = len(count_crossings(tt, x, out.threshold, refractory))
    n += len(count_crossings(tt, -x, out.threshold, refractory))
    return (1 if n >= 1 else 0, float(n))


def evaluate(kind: GateKind, bits: tuple[int, ...],
             enc: LogicEncoding | None = None,
             p: OtsParams | None = None, *,
             dt: float = DT_LOGIC) -> TruthRow:
    """Simulate one input combination and decode every output bit: the row
    holds the expected and measured bits, each output's raw measurement
    (event count or mean level) and the trace."""
    enc = enc or LogicEncoding()
    circuit = build_gate(kind, p, enc, bits)
    tr = transient(circuit.net, enc.settle + enc.bit_width, dt)
    decoded = [decode_output(tr, out, enc) for out in circuit.outputs]
    return TruthRow(bits, expected_bits(kind, bits), tuple(b for b, _ in decoded),
                    tuple(m for _, m in decoded), tr)


@dataclass
class TruthRow:
    inputs: tuple[int, ...]
    expected: tuple[int, ...]
    measured: tuple[int, ...]
    detail: tuple[float, ...]
    trace: Trace | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.expected == self.measured


@dataclass
class TruthTable:
    kind: GateKind
    rows: list[TruthRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "ok": self.ok,
                "rows": [
                    {
                        "in": list(r.inputs),
                        "expected": list(r.expected),
                        "measured": list(r.measured),
                        "spikes": list(r.detail),
                    }
                    for r in self.rows
                ],
            },
            indent=2,
        )


def truth_table(kind: GateKind, enc: LogicEncoding | None = None,
                p: OtsParams | None = None, *, dt: float = DT_LOGIC,
                n_jobs: int = 1, keep_traces: bool = False) -> TruthTable:
    """Exhaustive evaluation over all input combinations.

    Rows are independent transients (state fully reset between rows), run
    one after another in input order.  `n_jobs` has no effect; it is
    accepted for existing callers.  With `keep_traces` each row keeps its
    trace."""
    arity = gate_arity(kind)
    combos = [tuple((i >> (arity - 1 - k)) & 1 for k in range(arity)) for i in range(2 ** arity)]

    def run(bits: tuple[int, ...]) -> TruthRow:
        row = evaluate(kind, bits, enc, p, dt=dt)
        if not keep_traces:
            row.trace = None
        return row

    return TruthTable(kind, [run(bits) for bits in combos])
