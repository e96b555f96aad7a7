"""Built-in gate netlists as shareable text files.

The templates in ``otsim.gates`` are the source of truth; this module
renders them to the netlist text format with a short derivation note each,
writes them to a directory on request, and locates the copies shipped with
the package.  The text format is exact, so a shipped file parses to the
builder's elements bit for bit and simulates to the builder's trace.
"""

from __future__ import annotations

import os

from ..device import OtsParams
from ..gates import GateKind, build_gate
from ..netlist_io import netlist_to_text

_NOTES: dict[GateKind, str] = {
    GateKind.AND: (
        "AND: s1/s2 feed a symmetric 0.9k divider at node m. One high input\n"
        "divides to half the swing and stays under the switching threshold;\n"
        "both high drive the full swing, so the switch bursts only on (1,1).\n"
        "Bursts are read across the 5k ground-side resistor at node x."
    ),
    GateKind.OR: (
        "OR: the AND skeleton with a series diode per input. A low input is\n"
        "disconnected by its diode instead of loading the divider, so a\n"
        "single high input keeps nearly the full swing and fires the switch."
    ),
    GateKind.NOR: (
        "NOR: the input divider (m, buffered through 0.9k to mp) opposes a\n"
        "5 V rail (q, fed through 5k). Only the all-low row leaves the full\n"
        "rail difference across the switch, so it bursts exactly on (0,0);\n"
        "any high input pulls the difference under threshold. Read at mp."
    ),
    GateKind.NAND: (
        "NAND: reverse-oriented (catching) diodes clamp the summing node m\n"
        "to a diode drop whenever any input is low, while the switch's far\n"
        "side t is fed from the rail through 0.9k + 5k. Both inputs high\n"
        "block both diodes, m floats to the rail, and the difference\n"
        "collapses: the switch bursts on every row except (1,1). Read at m."
    ),
    GateKind.XOR: (
        "XOR: the ambipolar switch bridges the two 1k input branches. The\n"
        "1 nF capacitor makes node k track the second input, so only an\n"
        "instantaneous difference of either polarity fires the switch; the\n"
        "10k path recycles the stored charge for sustained relaxation\n"
        "spiking while the inputs differ. Kicks couple through 100 pF to\n"
        "the 50k-loaded output node."
    ),
    GateKind.HALF_ADDER: (
        "Half adder: an XOR branch (3k inputs, sum read as the conduction\n"
        "bounce across the second input resistor at xb) and an AND branch\n"
        "(1k divider; the latched level across the 200-ohm sense resistor\n"
        "at xc is the carry) share the two inputs."
    ),
    GateKind.FULL_ADDER: (
        "Full adder: sum = (a xor b) xor cin, carry = (a and b) or\n"
        "((a xor b) and cin), composed from the gate cores with comparator\n"
        "buffers between stages: a comparator pair rectifies each XOR's\n"
        "bipolar output kicks, a diode-fed RC node holds the pulse\n"
        "envelope, and a second comparator regenerates stiff logic levels\n"
        "for the next stage. Outputs are the held envelopes envx2 (sum)\n"
        "and envor (carry)."
    ),
    GateKind.DCAAP_CASCADE: (
        "Two-stage XOR cascade with two excitatory inputs and one\n"
        "inhibitory input: y_xor1 = ex1 xor ex2 (held at envx1), amplified\n"
        "by a comparator to a clean rail (y1) and combined with inh in the\n"
        "second XOR stage: y_xor2 = y_xor1 xor inh (held at envx2)."
    ),
}


def gate_netlist_text(kind: GateKind, p: OtsParams | None = None) -> str:
    circuit = build_gate(kind, p)
    outputs = ", ".join(f"{o.name} -> node {o.node} ({o.mode.value})" for o in circuit.outputs)
    header = (
        f"{kind.value} gate template\n"
        f"inputs: {', '.join(circuit.input_nodes)} (drive the V sources)\n"
        f"outputs: {outputs}\n"
        "\n"
        f"{_NOTES[kind]}"
    )
    return netlist_to_text(circuit.net, header)


def write_all(directory: str, p: OtsParams | None = None) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for kind in GateKind:
        path = os.path.join(directory, f"{kind.value}.cir")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gate_netlist_text(kind, p))
        paths.append(path)
    return paths


def shipped_path(kind: GateKind) -> str:
    return os.path.join(os.path.dirname(__file__), f"{kind.value}.cir")
