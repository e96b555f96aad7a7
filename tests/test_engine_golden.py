"""Golden-trace equivalence and KCL properties of the transient engine.

The digests pin the exact bits of the reference runs: the oscillator
rig, the XOR gate, the full adder at two logic levels, a dCaAP-cascade
row, a half-adder row whose DC inputs settle into a constant tail, three
runs that settle into a bitwise periodic orbit long before they end, and
three runs driven by time-varying sources (an edge-detection stream
segment, a pulsed RC/diode ladder and the dynamic I-V ramp).
Each case also pins the samples the step loop solved and the period it
stopped at.  A change to the engine that moves a single sample of a
voltage, a current, an OTS phase or the residual, or the step at which a
run is found to recur, fails here.  The property tests build random RC/diode ladders and check
Kirchhoff's current law over the *recorded* element currents, which are
computed apart from the linear solve, and that each capacitor's recorded
currents integrate to the charge its voltage change holds.  Random
compositions of the gate cores check that a run's bits do not depend on
its drives being `Dc`, on the residual batch size or on the landing memo.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from otsim import (ConvergenceError, Dc, Netlist, PiecewiseLinear, Pulse, SimulationError, Triangle, default_params,
                   engine, gates, pipeline, rig, transient)
from otsim.device import OFF_STATE, ON_STATE, ots_current
from otsim.gates import GateKind, LogicEncoding
from otsim.netlist import Capacitor, Comparator, Diode, Ots, VoltageSource


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


def xor_stream_segment():
    """A 16-clock segment of the edge-detection stream: the XOR gate driven
    by two seeded pulse trains at the stream's dt."""
    rng = np.random.default_rng(13)
    a, b = (pipeline.PulseTrain(tuple(rng.integers(0, 2, 16).tolist())) for _ in range(2))
    return pipeline._xor_stream(a, b, default_params(), a.duration, 50e-9)


def pulse_ladder():
    """A three-pulse drive through a resistor, a diode and a reverse diode
    into capacitors, over 10,001 samples (three residual batches)."""
    net = Netlist()
    net.add_source("VIN", "n0", "0", Pulse(-0.5, 4.0, delay=3.3e-6, width=7e-6, period=20e-6, repeat=3))
    net.add_resistor("RS1", "n0", "n1", 1e3)
    net.add_capacitor("C1", "n1", "0", 2e-9)
    net.add_diode("D2", "n1", "n2", v_f=0.6, v_z=5.0, r_series=20.0)
    net.add_capacitor("C2", "n2", "0", 1e-9, ic=0.25)
    net.add_resistor("RP2", "n2", "0", 2e4)
    net.add_diode("D3", "n3", "n2", v_f=0.4, v_z=3.0, r_series=50.0)
    net.add_capacitor("C3", "n3", "0", 5e-10, ic=-0.5)
    return transient(net, 100e-6, 10e-9)


def dynamic_iv_trace():
    """The transient that `dynamic_iv` runs on the rig under a triangular
    ramp to twice the threshold, as acceptance c4 drives it."""
    traces = []
    run = engine.transient
    engine.transient = lambda *a, **kw: traces.append(run(*a, **kw)) or traces[-1]
    try:
        p = default_params()
        engine.dynamic_iv(rig.measurement_netlist(0.0, p), Triangle(2.0 * p.v_th, 50e-6, 50e-6), "OTS1")
    finally:
        engine.transient = run
    (tr,) = traces
    return tr


GOLDEN = {
    "oscillator_4v3_40us": (
        lambda: rig.run_oscillator(4.3, 40e-6).trace,
        (4001, None),
        {
            "voltages": "3db6abcab8e9f22c57eabfe9da44b67195b5f9c47598d8ea5f262a330863d0ce",
            "currents": "26b3613032d1cd9b0ceccd60d6b4906f59c012bdf1ddd2ee87c9c9dfd1508579",
            "ots_on": "50c0026220703f5d493813bca770b3cdd684748a44b2117e6ce42c208e9249c3",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "xor_row_10": (
        lambda: gates.evaluate(GateKind.XOR, (1, 0)).trace,
        (2001, None),
        {
            "voltages": "e415361d426e6b8f45197c6a98a4c81026e7527d96fcfc4dfad688b2ab801f1c",
            "currents": "9a8a5a6634178b9b870eb5c9ea0505d24599aa7948267e545bce0ccde61ae1e5",
            "ots_on": "20c590791d2fbc0a8f4b01497e5effd3c8abea1796c2201923a762a9d1e4a3b9",
            "kcl_residual": "0x1.8000000000000p-56",
        },
    ),
    "full_adder_row_111": (
        lambda: gates.evaluate(GateKind.FULL_ADDER, (1, 1, 1)).trace,
        (2001, None),
        {
            "voltages": "131247295e0aec8f1858c40ce9daccbddd4b6f656e1ffd22ac23b7a32388afb5",
            "currents": "07d072b5937c48ce9741e1ad6b3abdfa848e11424fade8b24b9d48a115d2c693",
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
            "currents": "587f75257ad77fdaa018f89f63d259c8699e21f820d59889cc77eaa849a2f458",
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
            "currents": "7d5d3bf98b0ce100c75791f296360cf88e84cf3ebb9519f9e0a1ab05aed543c9",
            "ots_on": "24614351e3228a0bc6c11149fa9f7cd77021671bf38227999c4c36bdbc8bb26e",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "gradient_xor_dc255_1ms": (
        lambda: transient(gradient_xor()[0], 1e-3, 50e-9, sources=gradient_xor()[1]),
        (4887, 269),
        {
            "voltages": "f6efe6649cc4ad5adac5623dc9f5c37fd3014b3072df3ce8d2402c35f0582e6f",
            "currents": "6d4014994542ee71f9c9b1c8c2d1342824eeadbe4a6bb546585e55908b3d77a6",
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
            "currents": "8b035cacbf3b1dfda824c1a86e5cbc42e39301baa0f03efc9ee820a043c7a1fc",
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
            "currents": "26b83e102b17c7edff147185f9f22535ac351ed048825dc22df1b6d6ce17b10e",
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
            "currents": "fdb0ff12bd54294a38e3b90a05acf97ed3abaf689cb31e1dfe43d1d628bd99e6",
            "ots_on": "a868685a222439cb3d14049231dd9cc01779a2c20abc218a38386ac976581d82",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    # pulse-driven runs: every sample is solved
    "xor_stream_16_clocks": (
        xor_stream_segment,
        (3201, None),
        {
            "voltages": "026f2ae6e0939d625adc9a06b5218a4d664ecacc5188f3fe339fc2a85de7c245",
            "currents": "478f8000d2391755962e41f8d306d6b9e764ed3fc9c0b959448bef20c3e80fc2",
            "ots_on": "e1a067ee38298ddb78ad84602aad2536d63caeac6702cdd1fc15557f0cf11fc1",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    "pulse_ladder_repeat_3": (
        pulse_ladder,
        (10001, None),
        {
            "voltages": "fc35438ab133c0fc6f3cec4309cadfd698d22c65333f6aaac3badfbb96ea2554",
            "currents": "a2156d62bfc2757ffd49291737eb796a4b9c6f3a21ad99a8f774e5eb4c608061",
            "ots_on": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "kcl_residual": "0x1.0000000000000p-52",
        },
    ),
    "dynamic_iv_triangle": (
        dynamic_iv_trace,
        (10001, None),
        {
            "voltages": "e126329271a410ac8006358c157734d6ce50bbf56b52486e5d31dc7e79c63dd3",
            "currents": "940d5198306f29154da7a06aef5bd514f6462e17c9efa9248a2cada8fa86acec",
            "ots_on": "fc148c46f54220c33115ce4e993b1e460550fd6ae421cfb613c57b90f69b9c04",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace_digests(case, blas_platform):
    run, (solved_steps, period), expected = GOLDEN[case]
    tr = run()
    assert field_digests(tr) == expected, blas_platform
    assert (tr.solved_steps, tr.period) == (solved_steps, period), blas_platform


# One SHA-256 over every row of all 8 truth tables at three logic levels:
# each row's field digests, solved steps and period.  The value was first
# made before post-flip steps started from their remembered landing set, so
# it pins that this shortcut moves no bit; it was re-made only when step-0
# capacitor currents took the pinned companion's conductance, which moved
# no other bit.
TRUTH_TABLE_SPACE = "c804818d07499a5f0383b8db33e132d14db58895f4a464ef2b86135b39dd9b8a"


def test_truth_table_space_digest(blas_platform):
    h = hashlib.sha256()
    for kind in GateKind:
        for v_high in (4.5, 5.0, 5.5):
            for row in gates.truth_table(kind, LogicEncoding(v_high=v_high), keep_traces=True).rows:
                tr = row.trace
                h.update(repr((kind.value, v_high, row.inputs, sorted(field_digests(tr).items()),
                               tr.solved_steps, tr.period)).encode())
    assert h.hexdigest() == TRUTH_TABLE_SPACE, blas_platform


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

    def test_fixed_point_is_period_one(self, blas_platform):
        tr = gates.evaluate(GateKind.HALF_ADDER, (1, 1)).trace
        assert (tr.period, tr.solved_steps) == (1, 735), blas_platform


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
def rc_diode_ladders(draw, switched=False):
    """A source driving a chain of series resistors or diodes, with a
    capacitor (and optionally a resistor) from every chain node to ground.
    With `switched`, the drive may also be piecewise linear, and comparators
    that read two nodes of the ladder feed their outputs back into it
    through resistors."""
    net = Netlist()
    v = draw(st.floats(-8.0, 8.0))
    if switched and draw(st.booleans()):
        times = sorted(draw(st.lists(st.floats(0.0, 10e-6), min_size=2, max_size=5, unique=True)))
        spec = PiecewiseLinear(tuple((t, draw(st.floats(-8.0, 8.0))) for t in times))
    elif draw(st.booleans()):
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
    if switched:
        nodes = net.node_names
        for j in range(draw(st.integers(1, 3))):
            net.add_comparator(f"CMP{j}", draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)), f"q{j}",
                               v_out_high=draw(st.floats(0.5, 8.0)), v_out_low=draw(st.floats(-2.0, 0.0)),
                               r_out=draw(st.floats(10.0, 1e3)))
            net.add_resistor(f"RF{j}", f"q{j}", draw(st.sampled_from(nodes[1:])), draw(st.floats(100.0, 1e4)))
    return net


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rc_diode_ladders(switched=True))
def test_random_switched_ladders_converge_or_name_their_cycle(net):
    # the segment iteration either settles every step or names a cycle of
    # at least two segment sets among the switched elements
    switched = {el.name for el in net.elements if isinstance(el.kind, (Comparator, Diode, Ots))}
    try:
        transient(net, 10e-6, 50e-9)
    except ConvergenceError as exc:
        assert exc.element in switched
        assert set(exc.cycle_elements) <= switched
        assert exc.cycle_length is None or exc.cycle_length >= 2


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
    # step 0 included: its capacitor currents are those of the pinned companions it was solved with
    assert np.max(np.abs(kcl_imbalance(net, tr))) <= 1e-9
    again = transient(net, 10e-6, 50e-9)
    assert field_digests(again) == field_digests(tr)
    # a Dc drive may end the run at a fixed point; the same drive as a PWL may not
    stepped = transient(net, 10e-6, 50e-9, sources=constant_pwl_sources(net))
    assert field_digests(stepped) == field_digests(tr)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rc_diode_ladders())
def test_random_ladders_recorded_capacitor_currents_move_their_charge(net):
    # backward Euler: the currents after sample 0 integrate to C times the voltage change
    dt = 50e-9
    tr = transient(net, 10e-6, dt)
    caps = [el for el in net.elements if isinstance(el.kind, Capacitor)]
    assert caps
    for el in caps:
        a, b = el.terminals
        v = tr.voltages[:, a] - tr.voltages[:, b]
        farads = el.kind.farads
        charge = dt * np.sum(tr.currents[el.name][1:])
        assert charge == pytest.approx(farads * (v[-1] - v[0]), rel=1e-9, abs=farads * 1e-12), el.name


def outcome(run) -> dict:
    """The field digests of the trace `run` returns, with its solved steps
    and period, or the error it raises."""
    try:
        tr = run()
    except SimulationError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return field_digests(tr) | {"steps": (tr.solved_steps, tr.period)}


@st.composite
def gate_core_networks(draw, dc_only=False, feedback=True):
    """The gate templates' parts, composed at random.  One to three XOR,
    AND or OR cores take their two inputs from the drives or from earlier
    stages.  A comparator reads each core's output into a held envelope,
    and a second comparator buffers the envelope into a logic node that
    later cores may take as an input, as in the full adder's chains.  One or
    two extra resistors or capacitors join random nodes; without `feedback`
    they join a node to ground or to a source, so that no signal returns
    to an earlier stage.  The switch parameters vary around the defaults,
    and each drive is a `Dc` level or, unless `dc_only`, a piecewise-linear
    ramp or a `Pulse` train."""
    tau = st.sampled_from((0.0, 25e-9, 50e-9, 75e-9, 100e-9))
    p = default_params(v_th=draw(st.floats(2.6, 3.4)), i_hold=draw(st.floats(0.6e-3, 1.2e-3)),
                       tau_on=draw(tau), tau_off=draw(tau))
    net = Netlist()
    nodes = []
    for k in range(draw(st.integers(2, 3))):
        v_high = draw(st.floats(3.8, 6.5))
        drive = "dc" if dc_only else draw(st.sampled_from(["dc", "pwl", "pulse"]))
        if drive == "dc":
            spec = Dc(v_high * draw(st.integers(0, 1)))
        elif drive == "pwl":
            times = sorted(draw(st.lists(st.floats(0.0, 20e-6), min_size=2, max_size=4, unique=True)))
            spec = PiecewiseLinear(tuple((t, draw(st.floats(0.0, v_high))) for t in times))
        else:
            period = draw(st.floats(4e-6, 10e-6))
            spec = Pulse(0.0, v_high, delay=draw(st.floats(0.0, 2e-6)),
                         width=draw(st.floats(0.3, 0.7)) * period, period=period)
        net.add_source(f"V{k}", f"i{k}", "0", spec)
        nodes.append(f"i{k}")
    net.add_source("VREFS", "refs", "0", Dc(draw(st.floats(0.2, 1.5))))
    net.add_source("VREFM", "refm", "0", Dc(draw(st.floats(1.0, 3.0))))
    held = ["0", "refs", "refm", *nodes]  # nodes whose voltage a source fixes
    for j in range(draw(st.integers(1, 3))):
        tag = f"c{j}"
        core = draw(st.sampled_from([gates._xor_core, gates._and_core, gates._or_core]))
        in_a, in_b = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        net.add_comparator(f"CMPS{tag}", core(net, tag, in_a, in_b, p), "refs", f"s{tag}")
        net.add_comparator(f"CMPB{tag}", gates._hold(net, tag, [f"s{tag}"]), "refm", f"y{tag}")
        nodes.append(f"y{tag}")
    for j in range(draw(st.integers(1, 2))):
        if feedback:
            a, b = draw(st.lists(st.sampled_from(net.node_names), min_size=2, max_size=2, unique=True))
        else:
            a = draw(st.sampled_from([node for node in net.node_names if node not in held]))
            b = draw(st.sampled_from(held))
        if draw(st.booleans()):
            net.add_resistor(f"RX{j}", a, b, draw(st.floats(1e3, 1e5)))
        else:
            net.add_capacitor(f"CX{j}", a, b, draw(st.floats(1e-11, 1e-9)))
    return net


GATE_NETWORK_STOP = 20e-6
GATE_NETWORK_DT = st.sampled_from((25e-9, 40e-9, 50e-9))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_core_networks(dc_only=True), GATE_NETWORK_DT)
def test_random_gate_networks_equal_their_stepped_twins(net, dt):
    # the periodic tail's state leaves out the landing memo
    tail = outcome(lambda: transient(net, GATE_NETWORK_STOP, dt))
    full = outcome(lambda: transient(net, GATE_NETWORK_STOP, dt, sources=constant_pwl_sources(net)))
    tail.pop("steps", None)
    full.pop("steps", None)
    assert tail == full


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_core_networks(), GATE_NETWORK_DT)
def test_random_gate_networks_do_not_depend_on_the_batch_size(net, dt):
    want = outcome(lambda: transient(net, GATE_NETWORK_STOP, dt))
    for chunk in (1, 7, 333):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            assert outcome(lambda: transient(net, GATE_NETWORK_STOP, dt)) == want, chunk


class ForgetfulMemo(dict):
    """A landing memo that keeps nothing: every post-flip step starts its
    segment iteration from its start set."""

    def __setitem__(self, key, value):
        pass


class CompiledWithoutLanding(engine._Compiled):
    def __init__(self, *args):
        super().__init__(*args)
        self.landing = ForgetfulMemo()


def without_landing(run) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Compiled", CompiledWithoutLanding)
        return outcome(run)


# A signal fed back to an earlier stage can give a step two segment sets
# that each select themselves, as a comparator driving its own input does;
# the landing may then be the other one, so this property holds for
# networks without feedback only.
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_core_networks(feedback=False), GATE_NETWORK_DT)
@example(gates.build_gate(GateKind.FULL_ADDER, bits=(1, 1, 0)).net, 50e-9)
def test_random_gate_networks_do_not_depend_on_the_landing_memo(net, dt):
    def run():
        return transient(net, GATE_NETWORK_STOP, dt)

    assert without_landing(run) == outcome(run)


def test_full_adder_without_the_landing_memo(monkeypatch, blas_platform):
    # the memo changes no bit of the table; without it the table makes
    # 40,820 solves instead of the 14,538 that TestSolveCounts pins
    rows = gates.truth_table(GateKind.FULL_ADDER, keep_traces=True).rows
    solves = 0
    dgetrs = engine.dgetrs

    def counting(*args):
        nonlocal solves
        solves += 1
        return dgetrs(*args)

    monkeypatch.setattr(engine, "dgetrs", counting)
    monkeypatch.setattr(engine, "_Compiled", CompiledWithoutLanding)
    without = gates.truth_table(GateKind.FULL_ADDER, keep_traces=True).rows
    assert [field_digests(r.trace) for r in without] == [field_digests(r.trace) for r in rows]
    assert solves == 40820, blas_platform
