"""Golden-trace equivalence and KCL properties of the transient engine.

The digests pin the exact bits of three reference runs: the oscillator
rig, the XOR gate and the full adder.  A change to the engine that moves a
single sample of a voltage, a current, an OTS phase or the residual fails
here.  The property test builds random RC/diode ladders and checks
Kirchhoff's current law over the *recorded* element currents, which are
computed apart from the linear solve.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otsim import Dc, Netlist, Pulse, gates, rig, transient
from otsim.gates import GateKind


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for name, arr in arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def field_digests(tr) -> dict:
    return {
        "voltages": _digest([("", tr.voltages)]),
        "currents": _digest(tr.currents.items()),
        "ots_on": _digest(tr.ots_on.items()),
        "kcl_residual": float(tr.kcl_residual).hex(),
    }


GOLDEN = {
    "oscillator_4v3_40us": (
        lambda: rig.run_oscillator(4.3, 40e-6).trace,
        {
            "voltages": "3db6abcab8e9f22c57eabfe9da44b67195b5f9c47598d8ea5f262a330863d0ce",
            "currents": "4f8d7bbbd380e28c98bd10036bf2bb0f31c2dca69219fb79ac01230f32ee27c9",
            "ots_on": "50c0026220703f5d493813bca770b3cdd684748a44b2117e6ce42c208e9249c3",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "xor_row_10": (
        lambda: gates.evaluate(GateKind.XOR, (1, 0), with_detail=True)[2],
        {
            "voltages": "e415361d426e6b8f45197c6a98a4c81026e7527d96fcfc4dfad688b2ab801f1c",
            "currents": "eeec31141fd413c0d24a40daba5c8a837fcf8e24c92b6a5e8aa3994f5b33b9d2",
            "ots_on": "20c590791d2fbc0a8f4b01497e5effd3c8abea1796c2201923a762a9d1e4a3b9",
            "kcl_residual": "0x1.8000000000000p-56",
        },
    ),
    "full_adder_row_111": (
        lambda: gates.evaluate(GateKind.FULL_ADDER, (1, 1, 1), with_detail=True)[2],
        {
            "voltages": "131247295e0aec8f1858c40ce9daccbddd4b6f656e1ffd22ac23b7a32388afb5",
            "currents": "023de233be9d56e2905ece75658e908bdc90ee676753c7811b8d45bc8448ddec",
            "ots_on": "a8c71fb5f56577f13240dc6b2ad26be8019984bb546f458e5357fee68dc73163",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace_digests(case):
    run, expected = GOLDEN[case]
    assert field_digests(run()) == expected


@st.composite
def rc_diode_ladders(draw):
    """A source driving a chain of series resistors or diodes, with a
    capacitor (and optionally a resistor) from every chain node to ground."""
    net = Netlist()
    v = draw(st.floats(-8.0, 8.0))
    if draw(st.booleans()):
        spec = Dc(v)
    else:
        period = draw(st.floats(2e-6, 5e-6))
        spec = Pulse(0.0, v, delay=draw(st.floats(0.0, 1e-6)),
                     width=draw(st.floats(0.2, 0.8)) * period, period=period)
    net.add_source("VIN", "n0", "0", spec)
    for i in range(1, draw(st.integers(1, 4)) + 1):
        a, b = f"n{i - 1}", f"n{i}"
        series = draw(st.sampled_from(["R", "D", "D_rev"]))
        if series == "R":
            net.add_resistor(f"RS{i}", a, b, draw(st.floats(100.0, 1e4)))
        else:
            anode, cathode = (a, b) if series == "D" else (b, a)
            net.add_diode(f"D{i}", anode, cathode, v_f=draw(st.floats(0.3, 0.8)),
                          v_z=draw(st.floats(2.0, 15.0)), r_series=draw(st.floats(1.0, 100.0)))
        net.add_capacitor(f"C{i}", b, "0", draw(st.floats(1e-10, 1e-8)),
                          ic=draw(st.floats(-1.0, 1.0)))
        if draw(st.booleans()):
            net.add_resistor(f"RP{i}", b, "0", draw(st.floats(1e3, 1e5)))
    return net


def kcl_imbalance(net: Netlist, tr) -> np.ndarray:
    """(n_samples, n_nodes - 1) sum of recorded currents leaving each
    non-ground node; currents are positive from terminal 0 to terminal 1."""
    out = np.zeros((len(tr.times), net.node_count - 1))
    for el in net.elements:
        a, b = el.terminals[0], el.terminals[1]
        i = tr.currents[el.name]
        if a:
            out[:, a - 1] += i
        if b:
            out[:, b - 1] -= i
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rc_diode_ladders())
def test_random_ladders_satisfy_kcl_over_recorded_currents(net):
    tr = transient(net, 10e-6, 50e-9)
    assert tr.kcl_residual < 1e-9
    # Step 0 is the initial operating point, solved with the capacitor
    # companions pinned 1e6 times stiffer than the currents recorded for
    # it, so KCL over the recorded currents holds from step 1 on.
    assert np.max(np.abs(kcl_imbalance(net, tr)[1:])) <= 1e-9
    again = transient(net, 10e-6, 50e-9)
    assert field_digests(again) == field_digests(tr)
