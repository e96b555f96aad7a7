"""Golden-trace equivalence and KCL properties of the transient engine.

The digests pin the exact bits of four reference runs: the oscillator
rig, the XOR gate, the full adder and a half-adder row whose DC inputs
settle into a constant tail.  A change to the engine that moves a
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

from otsim import Dc, Netlist, PiecewiseLinear, Pulse, default_params, gates, rig, transient
from otsim.device import OFF_STATE, ON_STATE, ots_current
from otsim.gates import GateKind, LogicEncoding
from otsim.netlist import Comparator, Diode, Ots, VoltageSource


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
    # settles into bitwise-identical samples from step 732 on
    "half_adder_row_11": (
        lambda: gates.evaluate(GateKind.HALF_ADDER, (1, 1), with_detail=True)[2],
        {
            "voltages": "bd95ef8b552c62c438b4640cbe8f9e01ac0916474899019156d829f566ad97fe",
            "currents": "7ed21b65bc864b5cdbc49f649bd23403aecdeeb751f7a678eb0db958f64f2c57",
            "ots_on": "7267f96b8b449443bf755e73da135a53a7e9b0470bafaf80b8c0af1a3eca207f",
            "kcl_residual": "0x1.6000000000000p-55",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace_digests(case):
    run, expected = GOLDEN[case]
    assert field_digests(run()) == expected


def constant_pwl_sources(net: Netlist) -> dict:
    """Every Dc source of the netlist as a one-breakpoint PWL of the same
    value: the same drive, but not one the engine may stop stepping on."""
    return {el.name: PiecewiseLinear(((0.0, el.kind.spec.value),))
            for el in net.elements if isinstance(el.kind, VoltageSource) and isinstance(el.kind.spec, Dc)}


class TestFixedPointTail:
    @pytest.mark.parametrize("kind, bits", [(GateKind.AND, (0, 1)), (GateKind.NOR, (0, 1)),
                                            (GateKind.HALF_ADDER, (1, 1))])
    def test_tail_is_the_run_it_replaces(self, kind, bits):
        enc = LogicEncoding()
        net = gates.build_gate(kind, enc=enc, bits=bits).net
        t_stop = enc.settle + enc.bit_width
        tail = transient(net, t_stop, 50e-9)
        full = transient(net, t_stop, 50e-9, sources=constant_pwl_sources(net))
        assert tail.solved_steps < len(tail.times)
        assert full.solved_steps == len(full.times)
        assert field_digests(tail) == field_digests(full)

    def test_pending_ots_switch_is_not_a_fixed_point(self):
        # the node voltages repeat bit for bit while the turn-on delay runs
        net = Netlist()
        net.add_source("VIN", "in", "0", Dc(5.0))
        net.add_resistor("R1", "in", "top", 1e3)
        net.add_ots("OTS1", "top", "0", default_params(tau_on=1e-6))
        tr = transient(net, 3e-6, 10e-9)
        assert tr.ots_on["OTS1"][-1]
        assert field_digests(tr) == field_digests(
            transient(net, 3e-6, 10e-9, sources=constant_pwl_sources(net)))

    def test_oscillator_solves_every_step(self):
        tr = rig.run_oscillator(4.3, 40e-6).trace
        assert tr.solved_steps == len(tr.times)


def scalar_switched_currents(net: Netlist, tr) -> dict:
    """Diode, OTS and comparator currents from their scalar laws, sample by
    sample: the step-loop form of the engine's vectorised currents."""
    v = tr.voltages.tolist()
    out = {}
    for el in net.elements:
        k, t = el.kind, el.terminals
        if isinstance(k, Diode):
            law = [(d - k.v_f) / k.r_series if d > k.v_f else (d + k.v_z) / k.r_series if d < -k.v_z else 0.0
                   for d in (row[t[0]] - row[t[1]] for row in v)]
        elif isinstance(k, Ots):
            on = tr.ots_on[el.name]
            held = [bool(on[0])] + on[:-1].tolist()  # phase the previous step left
            law = [ots_current(k.params, ON_STATE if h else OFF_STATE, row[t[0]] - row[t[1]])
                   for h, row in zip(held, v)]
        elif isinstance(k, Comparator):
            law = [((k.v_out_high if row[t[0]] - row[t[1]] > 0.0 else k.v_out_low) - row[t[2]]) / k.r_out
                   for row in v]
        else:
            continue
        out[el.name] = np.array(law)
    return out


@pytest.mark.parametrize("run", [
    lambda: (rig.measurement_netlist(4.3), rig.run_oscillator(4.3, 40e-6).trace),
    lambda: (gates.build_gate(GateKind.FULL_ADDER, bits=(1, 1, 0)).net,
             gates.evaluate(GateKind.FULL_ADDER, (1, 1, 0), with_detail=True)[2]),
], ids=["oscillator", "full_adder_row_110"])
def test_switched_currents_equal_their_scalar_laws(run):
    net, tr = run()
    want = scalar_switched_currents(net, tr)
    assert want
    for name, law in want.items():
        assert np.array_equal(tr.currents[name].view(np.uint64), law.view(np.uint64)), name


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
    # a Dc drive may end the run at a fixed point; the same drive as a PWL may not
    stepped = transient(net, 10e-6, 50e-9, sources=constant_pwl_sources(net))
    assert field_digests(stepped) == field_digests(tr)
