"""Golden-trace equivalence and KCL properties of the transient engine.

The digests pin the exact bits of the reference runs: the oscillator
rig, the XOR gate, the full adder at two logic levels, a dCaAP-cascade
row, a half-adder row whose DC inputs settle into a constant tail, and
three runs that settle into a bitwise periodic orbit long before they end.
Each case also pins the samples the step loop solved and the period it
stopped at.  A change to the engine that moves a single sample of a
voltage, a current, an OTS phase or the residual, or the step at which a
run is found to recur, fails here.  The property test builds random RC/diode ladders and checks
Kirchhoff's current law over the *recorded* element currents, which are
computed apart from the linear solve.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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


def gradient_xor():
    """The XOR netlist and the sustained levels `gradient_rate` applies to
    it at a contrast difference of 255 (pixel a at v_high, pixel b at 0)."""
    enc = LogicEncoding()
    return gates.build_gate(GateKind.XOR).net, {"S_S1": Dc(enc.v_high * 255 / 255.0), "S_S2": Dc(0.0)}


GOLDEN = {
    "oscillator_4v3_40us": (
        lambda: rig.run_oscillator(4.3, 40e-6).trace,
        (4001, None),
        {
            "voltages": "3db6abcab8e9f22c57eabfe9da44b67195b5f9c47598d8ea5f262a330863d0ce",
            "currents": "4f8d7bbbd380e28c98bd10036bf2bb0f31c2dca69219fb79ac01230f32ee27c9",
            "ots_on": "50c0026220703f5d493813bca770b3cdd684748a44b2117e6ce42c208e9249c3",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "xor_row_10": (
        lambda: gates.evaluate(GateKind.XOR, (1, 0)).trace,
        (2001, None),
        {
            "voltages": "e415361d426e6b8f45197c6a98a4c81026e7527d96fcfc4dfad688b2ab801f1c",
            "currents": "eeec31141fd413c0d24a40daba5c8a837fcf8e24c92b6a5e8aa3994f5b33b9d2",
            "ots_on": "20c590791d2fbc0a8f4b01497e5effd3c8abea1796c2201923a762a9d1e4a3b9",
            "kcl_residual": "0x1.8000000000000p-56",
        },
    ),
    "full_adder_row_111": (
        lambda: gates.evaluate(GateKind.FULL_ADDER, (1, 1, 1)).trace,
        (2001, None),
        {
            "voltages": "131247295e0aec8f1858c40ce9daccbddd4b6f656e1ffd22ac23b7a32388afb5",
            "currents": "023de233be9d56e2905ece75658e908bdc90ee676753c7811b8d45bc8448ddec",
            "ots_on": "a8c71fb5f56577f13240dc6b2ad26be8019984bb546f458e5357fee68dc73163",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    # settles into bitwise-identical samples from step 732 on
    "half_adder_row_11": (
        lambda: gates.evaluate(GateKind.HALF_ADDER, (1, 1)).trace,
        (735, 1),
        {
            "voltages": "bd95ef8b552c62c438b4640cbe8f9e01ac0916474899019156d829f566ad97fe",
            "currents": "7ed21b65bc864b5cdbc49f649bd23403aecdeeb751f7a678eb0db958f64f2c57",
            "ots_on": "7267f96b8b449443bf755e73da135a53a7e9b0470bafaf80b8c0af1a3eca207f",
            "kcl_residual": "0x1.6000000000000p-55",
        },
    ),
    # periodic from step 6,315 with a period of 870 steps
    "oscillator_4v3_300us": (
        lambda: rig.run_oscillator(4.3, 300e-6).trace,
        (7185, 870),
        {
            "voltages": "c73780e7ef51008f29f12427a5312f4b887b927015a747864b6b053c62191597",
            "currents": "c47ce59c7819fcec4f26d2d698f4c2cf58eb8f37298fbfbfd419e6dd4cd1097e",
            "ots_on": "24614351e3228a0bc6c11149fa9f7cd77021671bf38227999c4c36bdbc8bb26e",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "gradient_xor_dc255_1ms": (
        lambda: transient(gradient_xor()[0], 1e-3, 50e-9, sources=gradient_xor()[1]),
        (4887, 269),
        {
            "voltages": "f6efe6649cc4ad5adac5623dc9f5c37fd3014b3072df3ce8d2402c35f0582e6f",
            "currents": "615fc8670699726dfac3eb58430bfa418e57c8d151348fef7d8e65456ea0ee7e",
            "ots_on": "4b268e68726fb606486ceec83e0b5653039f654d9972e898f26b5b325d0009a3",
            "kcl_residual": "0x1.8000000000000p-56",
        },
    ),
    # periodic with a period of 13 steps
    "nand_row_00": (
        lambda: gates.evaluate(GateKind.NAND, (0, 0)).trace,
        (182, 13),
        {
            "voltages": "03bc612fd41a1229eb3d3ba6c9a199be1a5b19ee28f15c549aab6b915f50c97f",
            "currents": "626042f26c4254b81e08a3ca4a44156a18bf236c9ec052bd7fd2ba413fcfdcdd",
            "ots_on": "6a8113dca9bb073e3c0ddec72ebef1b76f1c2545d7c79a3778ca371aa0ab429b",
            "kcl_residual": "0x1.0000000000000p-51",
        },
    ),
    # the second stage of the dCaAP cascade
    "dcaap_row_010": (
        lambda: gates.evaluate(GateKind.DCAAP_CASCADE, (0, 1, 0)).trace,
        (2001, None),
        {
            "voltages": "16529065a54a044b9473cfbb151e8c4afa14a8885f332ee9b79865d289ea3c79",
            "currents": "e6a189b42c62f3141cf7baf2f197a73fd2beff40df8030fb621ba3b742b7150d",
            "ots_on": "ac1ce0a208af1b4d551160024cf8cb53bf3ca8ecaee4801ebea04d2e86c49335",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    # a full-adder row at a logic level other than the default 5 V
    "full_adder_row_011_4v6": (
        lambda: gates.evaluate(GateKind.FULL_ADDER, (0, 1, 1), LogicEncoding(v_high=4.6)).trace,
        (2001, None),
        {
            "voltages": "148ef773a7a96371446432fe0c13041e5d1e1395897f3109c96dbe60285b21a0",
            "currents": "0a076dc907047f13ffab613c72dff577f3962e6c9451fbbda415ca5d63a70a35",
            "ots_on": "a868685a222439cb3d14049231dd9cc01779a2c20abc218a38386ac976581d82",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace_digests(case):
    run, (solved_steps, period), expected = GOLDEN[case]
    tr = run()
    assert field_digests(tr) == expected
    assert (tr.solved_steps, tr.period) == (solved_steps, period)


# One SHA-256 over every row of all 8 truth tables at three logic levels:
# each row's field digests, solved steps and period.  The value was made
# before post-flip steps solved their remembered landing set first, so it
# pins that this shortcut moves no bit.
TRUTH_TABLE_SPACE = "d3bfea116ce5aa0ac74c5a0964623b5f86cac04884c24498c951e49fd77516fb"


def test_truth_table_space_digest():
    h = hashlib.sha256()
    for kind in GateKind:
        for v_high in (4.5, 5.0, 5.5):
            for row in gates.truth_table(kind, LogicEncoding(v_high=v_high), keep_traces=True).rows:
                tr = row.trace
                h.update(repr((kind.value, v_high, row.inputs, sorted(field_digests(tr).items()),
                               tr.solved_steps, tr.period)).encode())
    assert h.hexdigest() == TRUTH_TABLE_SPACE


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


class TestPeriodicTail:
    """A Dc-driven run that reaches a state an earlier step left stops
    there and repeats its last period; the same drives as constant PWL
    sources step to the end and must give the same bits."""

    @pytest.mark.parametrize("case", [
        lambda: (rig.measurement_netlist(4.3), {}, 300e-6, 10e-9),
        lambda: (*gradient_xor(), 1e-3, 50e-9),
        lambda: (gates.build_gate(GateKind.NAND, bits=(0, 0)).net, {}, 100e-6, 50e-9),
    ], ids=["oscillator_4v3_300us", "gradient_xor_dc255_1ms", "nand_row_00"])
    def test_tail_is_the_run_it_replaces(self, case):
        net, sources, t_stop, dt = case()
        tail = transient(net, t_stop, dt, sources=sources)
        twin = constant_pwl_sources(net) | {name: PiecewiseLinear(((0.0, spec.value),))
                                            for name, spec in sources.items()}
        full = transient(net, t_stop, dt, sources=twin)
        assert tail.period > 1
        assert tail.solved_steps < len(tail.times)
        assert full.solved_steps == len(full.times) and full.period is None
        assert field_digests(tail) == field_digests(full)

    def test_pending_turn_on_is_not_a_recurrence(self):
        # the voltages repeat bit for bit for hundreds of steps while the
        # turn-on delay's elapsed time grows; the run recurs a cycle later
        tr = transient(pending_turn_on_oscillator(), 40e-6, 10e-9)
        v = tr.voltage("top")
        assert np.count_nonzero(v[1:1000] == v[:999]) > 300
        assert tr.period > 1000

    def test_pending_switch_is_part_of_the_state(self):
        # OTSA, with no capacitor, toggles every 5 steps from the start.
        # OTSB charges CB to a constant voltage within 2 us and waits out a
        # 2 us turn-on delay there, while OTSA's flip steps leave identical
        # solution rows: only OTSB's elapsed time tells them apart.
        net = Netlist()
        net.add_source("VIN", "in", "0", Dc(5.0))
        net.add_resistor("RA", "in", "a", 10e3)
        net.add_ots("OTSA", "a", "0", default_params())
        net.add_resistor("RB", "in", "top", 9.1e3)
        net.add_capacitor("CB", "top", "0", 5e-12)
        net.add_ots("OTSB", "top", "mid", default_params(tau_on=2e-6))
        net.add_resistor("RS", "mid", "0", 100.0)
        tr = transient(net, 40e-6, 10e-9)
        assert tr.period == 210 and tr.ots_on["OTSB"].any()
        assert field_digests(tr) == field_digests(transient(net, 40e-6, 10e-9, sources=constant_pwl_sources(net)))

    def test_fixed_point_is_period_one(self):
        tr = gates.evaluate(GateKind.HALF_ADDER, (1, 1)).trace
        assert (tr.period, tr.solved_steps) == (1, 735)


@st.composite
def relaxation_oscillators(draw):
    """The measurement rig with random parts: a Dc bias above v_th through a
    bias resistor onto a capacitor in parallel with an OTS, and a series
    resistor to ground.  The bias resistor mostly keeps the on-state
    current below i_hold, so that the switch turns off again.  Some
    switches have a turn-on delay long enough for the capacitor to charge
    to a constant voltage while it runs."""
    v_th = draw(st.floats(1.5, 4.0))
    v_hold = draw(st.floats(0.2, 0.8)) * v_th
    i_hold = draw(st.floats(5e-4, 2e-3))
    p = default_params(v_th=v_th, v_hold=v_hold, r_on=draw(st.floats(20.0, 500.0)),
                       g_off=draw(st.floats(0.0, 1e-7)), i_hold=i_hold,
                       tau_on=draw(st.one_of(st.floats(0.0, 200e-9), st.floats(1e-6, 3e-6))),
                       tau_off=draw(st.floats(0.0, 200e-9)))
    v_in = draw(st.floats(1.1, 2.0)) * v_th
    net = Netlist()
    net.add_source("VIN", "in", "0", Dc(v_in))
    net.add_resistor("RD", "in", "top", draw(st.floats(0.7, 3.0)) * (v_in - v_hold) / i_hold)
    net.add_capacitor("CP", "top", "0", draw(st.floats(20e-12, 200e-12)))
    net.add_ots("OTS1", "top", "mid", p)
    net.add_resistor("RS", "mid", "0", draw(st.floats(10.0, 200.0)))
    return net


def pending_turn_on_oscillator() -> Netlist:
    # charges to a constant voltage above v_th in about 7 us and waits out a
    # 10 us turn-on delay there, in every cycle
    net = Netlist()
    net.add_source("VIN", "in", "0", Dc(5.0))
    net.add_resistor("RD", "in", "top", 9.1e3)
    net.add_capacitor("CP", "top", "0", 20e-12)
    net.add_ots("OTS1", "top", "mid", default_params(tau_on=10e-6))
    net.add_resistor("RS", "mid", "0", 100.0)
    return net


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relaxation_oscillators())
@example(pending_turn_on_oscillator())
def test_random_oscillators_equal_their_stepped_twins(net):
    tr = transient(net, 40e-6, 10e-9)
    full = transient(net, 40e-6, 10e-9, sources=constant_pwl_sources(net))
    assert full.period is None
    assert field_digests(tr) == field_digests(full)
    if tr.period:
        assert tr.solved_steps > tr.period
        assert np.array_equal(tr.voltages[-1], tr.voltages[-1 - tr.period])


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
             gates.evaluate(GateKind.FULL_ADDER, (1, 1, 0)).trace),
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
