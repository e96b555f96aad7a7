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
its drives being `Dc`, on the residual batch size or on the landing memo,
and that its OTS phases are those a replay of `ots_step` over its device
voltages gives.
The golden cases, which factorize in `engine._factor` and solve in
generated code, are also run with every factorization and solve through
LAPACK's dgetrf and dgetrs, in a fresh interpreter under OpenBLAS's
`Sandybridge` kernel, and must differ only by rounding; the factors
match dgetrf's on every matrix the truth tables and the oscillator meet;
the right-hand side the residual gate derives from a golden run's
solutions is, bit for bit, the one rebuilt from the inputs each accepted
step received; a generated step's self-check decides as `_select` does, at
knees, signed zeros, infinities and NaN too; the generated steps that runs
share give a run the same bits whatever ran before it, also where two sets
differ only in their knees or two circuits in one stamped value, while a
run at another DC level compiles no set; the node rows the residual gate
reads from a set's shared terms are those assembled for it, and a golden
run's `kcl_residual` is, bit for bit, the one a scalar plain-Python gate
sums in the same written order; and a fresh interpreter under another
OpenBLAS kernel gives every bit of a golden run, its residual included.
"""

import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgetrf, dgetrs

import otsim
from otsim import (ConvergenceError, Dc, Netlist, OtsParams, PiecewiseLinear, Pulse, SimulationError, Triangle,
                   default_params, engine, gates, pipeline, rig, transient)
from otsim.device import OFF_STATE, ON_STATE, ots_current, ots_step
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


def xor_stream_segment(p=None):
    """A 16-clock segment of the edge-detection stream: the XOR gate, with
    switch parameters `p` (the defaults if None), driven by two seeded pulse
    trains at the stream's dt."""
    rng = np.random.default_rng(13)
    a, b = (pipeline.PulseTrain(tuple(rng.integers(0, 2, 16).tolist())) for _ in range(2))
    return pipeline._xor_stream(a, b, p or default_params(), len(a.bits) * pipeline.CLOCK_PERIOD, 50e-9)


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
            "voltages": "31086b1c215f39651ab856e0b1832c8fcfc865f144046676d7eb6979fde73daf",
            "currents": "c294bc35d1dbea1c87cbb1c6fe79e890e70e1bbd2439dae568088cc075fb6e8d",
            "ots_on": "50c0026220703f5d493813bca770b3cdd684748a44b2117e6ce42c208e9249c3",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "xor_row_10": (
        lambda: gates.evaluate(GateKind.XOR, (1, 0)).trace,
        (2001, None),
        {
            "voltages": "e6243575b84ce72e99f211ac1cf94bdba15febdd246397c0faa308e4be0c98c2",
            "currents": "566299dd78270cd6ae05293a496de30f88141f68d566e2f94bdeb389b8e8fdb0",
            "ots_on": "20c590791d2fbc0a8f4b01497e5effd3c8abea1796c2201923a762a9d1e4a3b9",
            "kcl_residual": "0x1.0000000000000p-53",
        },
    ),
    "full_adder_row_111": (
        lambda: gates.evaluate(GateKind.FULL_ADDER, (1, 1, 1)).trace,
        (2001, None),
        {
            "voltages": "0d8b080d2c0dab58d233ed34c66a77897ca1cb2e3cdc9349148d3a6e1e4a9f6e",
            "currents": "d527172c0f555bca6a1efcac676ac9133c5f5212387b34162c073e8e38e0129c",
            "ots_on": "a8c71fb5f56577f13240dc6b2ad26be8019984bb546f458e5357fee68dc73163",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    # settles into bitwise-identical samples from step 734 on
    "half_adder_row_11": (
        lambda: gates.evaluate(GateKind.HALF_ADDER, (1, 1)).trace,
        (736, 1),
        {
            "voltages": "82cf24e3085fce9758ae897af2430e53b4ff4bbe843de17e98497bdce12adc26",
            "currents": "25e8cc4917bf216cf8f1082184f0e17df72e05ce0c9717d92bd1580ed603f04a",
            "ots_on": "7267f96b8b449443bf755e73da135a53a7e9b0470bafaf80b8c0af1a3eca207f",
            "kcl_residual": "0x1.3000000000000p-55",
        },
    ),
    # periodic from step 6,315 with a period of 870 steps
    "oscillator_4v3_300us": (
        lambda: rig.run_oscillator(4.3, 300e-6).trace,
        (7185, 870),
        {
            "voltages": "284180824dc502ebe11b1e20aa7d5915d5ac38727886daa166ee690d852a1b7b",
            "currents": "df1c22c1c6d5b2236a4e311b52d7e2b9257ebb8675409f44ad8f7c3471706092",
            "ots_on": "24614351e3228a0bc6c11149fa9f7cd77021671bf38227999c4c36bdbc8bb26e",
            "kcl_residual": "0x1.0000000000000p-54",
        },
    ),
    "gradient_xor_dc255_1ms": (
        lambda: transient(gradient_xor()[0], 1e-3, 50e-9, sources=gradient_xor()[1]),
        (4313, 269),
        {
            "voltages": "3645eaad7931a198c9b111afd976e0a18c565cc8b0b88974e591c775634c42ed",
            "currents": "fdab815d0a8efde89fa99fef6b31a432d35c88dc68bbd4d6bc29d1832e5422be",
            "ots_on": "4b268e68726fb606486ceec83e0b5653039f654d9972e898f26b5b325d0009a3",
            "kcl_residual": "0x1.0000000000000p-53",
        },
    ),
    # periodic with a period of 13 steps
    "nand_row_00": (
        lambda: gates.evaluate(GateKind.NAND, (0, 0)).trace,
        (182, 13),
        {
            "voltages": "ed7eed7403b55e1ffcb0a3f3fef43dde289f469420ea8d79a774bda3d9ce2f68",
            "currents": "673989c5896dff408c295d2feb3fd6b0632add3fbce13b3aaa31831a1b083a91",
            "ots_on": "6a8113dca9bb073e3c0ddec72ebef1b76f1c2545d7c79a3778ca371aa0ab429b",
            "kcl_residual": "0x1.8000000000000p-51",
        },
    ),
    # the second stage of the dCaAP cascade
    "dcaap_row_010": (
        lambda: gates.evaluate(GateKind.DCAAP_CASCADE, (0, 1, 0)).trace,
        (2001, None),
        {
            "voltages": "811b6590ac3a131fa7ffc4a67a9e2c314e64be0f890257fbb3b4ad41c6eee80b",
            "currents": "b95acf3597d5dc167e4bef87f9301fbaef4d333c19d2eb16633488c35424984e",
            "ots_on": "ac1ce0a208af1b4d551160024cf8cb53bf3ca8ecaee4801ebea04d2e86c49335",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    # a full-adder row at a logic level other than the default 5 V
    "full_adder_row_011_4v6": (
        lambda: gates.evaluate(GateKind.FULL_ADDER, (0, 1, 1), LogicEncoding(v_high=4.6)).trace,
        (2001, None),
        {
            "voltages": "4b3c9fb940666c222e55fd25e52cef6315ded992fcadbe2087475f9248a3adad",
            "currents": "c56d94db90bbfaef44127c99ada6aa0e01a857d99c56e23310a5f8762dab5ffd",
            "ots_on": "a868685a222439cb3d14049231dd9cc01779a2c20abc218a38386ac976581d82",
            "kcl_residual": "0x1.4000000000000p-37",
        },
    ),
    # pulse-driven runs: every sample is solved
    "xor_stream_16_clocks": (
        xor_stream_segment,
        (3201, None),
        {
            "voltages": "307869c87cad6b1422bc1b97e2cda4ed234947160d355a36ab65f26ac23d4186",
            "currents": "4334ff80ae60e99e620d7255f6d41b8c29f733f419c5426b4aca1133c3d56137",
            "ots_on": "e1a067ee38298ddb78ad84602aad2536d63caeac6702cdd1fc15557f0cf11fc1",
            "kcl_residual": "0x1.0000000000000p-36",
        },
    ),
    "pulse_ladder_repeat_3": (
        pulse_ladder,
        (10001, None),
        {
            "voltages": "4ced5f4e80d14ff085a1e0c1d80738d167a5ce20c434442500c6c573ce7d5371",
            "currents": "1baa5d902e58a3b51927855d317ab50b09317a6c690e40d1306bdaaf0e26e998",
            "ots_on": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "kcl_residual": "0x1.4000000000000p-53",
        },
    ),
    "dynamic_iv_triangle": (
        dynamic_iv_trace,
        (10001, None),
        {
            "voltages": "8ef3b0bd2155a93208fe18261ac672d895e492c005524c68da1c8e5294bd5267",
            "currents": "e0f0e534afca5bf27e0019061a9925d06ec5a559c3d1f5f169eecca4d700298f",
            "ots_on": "fc148c46f54220c33115ce4e993b1e460550fd6ae421cfb613c57b90f69b9c04",
            "kcl_residual": "0x1.0000000000000p-54",
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
# each row's field digests, solved steps and period.  The value was first
# made before post-flip steps started from their remembered landing set, so
# it pins that this shortcut moves no bit; it was re-made when step-0
# capacitor currents took the pinned companion's conductance, which moved
# no other bit, when the small circuits' steps after step 0 moved to
# generated straight-line solves, when step 0 and the larger circuits
# followed, and when LAPACK's dgetrf gave way to `engine._factor`; these
# moves changed bits by rounding.  It was re-made once more when the residual
# gate's batched matrix product gave way to its own written summation order,
# which moved only `kcl_residual`.
TRUTH_TABLE_SPACE = "1bbe89f5c6e27e4bd3fea6bbff39535ced6536a03d0aeeb543afe74359adf220"


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
        assert (tr.period, tr.solved_steps) == (1, 736)


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


SWITCHED_RUNS = {
    "oscillator": lambda: (rig.measurement_netlist(4.3), rig.run_oscillator(4.3, 40e-6).trace),
    "full_adder_row_110": lambda: (gates.build_gate(GateKind.FULL_ADDER, bits=(1, 1, 0)).net,
                                   gates.evaluate(GateKind.FULL_ADDER, (1, 1, 0)).trace),
}


@pytest.mark.parametrize("case", sorted(SWITCHED_RUNS))
def test_switched_currents_equal_their_scalar_laws(case):
    # the OTS phases come from Trace.ots_on, which
    # test_ots_phases_replay_ots_step checks on its own
    net, tr = SWITCHED_RUNS[case]()
    want = scalar_switched_currents(net, tr)
    assert want
    for name, law in want.items():
        assert np.array_equal(tr.currents[name].view(np.uint64), law.view(np.uint64)), name


def replayed_phases(net: Netlist, tr) -> dict:
    """The phase of every OTS after each step, from `ots_step` replayed over
    the recorded device voltages: off at sample 0, which only sets the
    initial operating point, and stepped from sample 1 on."""
    out = {}
    for el in net.ots_elements():
        a, b = el.terminals
        s, phases = OFF_STATE, [False]
        for v in (tr.voltages[1:, a] - tr.voltages[1:, b]).tolist():
            s = ots_step(el.kind.params, s, v, tr.dt)
            phases.append(s.on)
        out[el.name] = np.array(phases)
    return out


def assert_phases_replay(net: Netlist, tr) -> None:
    want = replayed_phases(net, tr)
    assert tr.ots_on.keys() == want.keys()
    for name, phases in want.items():
        assert np.array_equal(tr.ots_on[name], phases), name


@pytest.mark.parametrize("case", sorted(SWITCHED_RUNS))
def test_ots_phases_replay_ots_step(case):
    net, tr = SWITCHED_RUNS[case]()
    assert tr.ots_on and any(on.any() for on in tr.ots_on.values())
    assert_phases_replay(net, tr)


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


def without_stretches(straight_line):
    """`engine._straight_line` whose steps run no stretch: each call's stop
    is clamped to one step."""

    def generate(*args):
        step = straight_line(*args)
        return lambda zl, xp, k=0, stop=1, cols=(): step(zl, xp, k, min(stop, k + 1), cols)

    return generate


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_core_networks(), GATE_NETWORK_DT)
def test_random_gate_networks_do_not_depend_on_stretches(net, dt):
    # batches of a prime size end stretches at steps of every phase of the
    # pulse drives
    for chunk in (7, 331):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            want = outcome(lambda: transient(net, GATE_NETWORK_STOP, dt))
            mp.setattr(engine, "_solves", {})
            mp.setattr(engine, "_straight_line", without_stretches(engine._straight_line))
            assert outcome(lambda: transient(net, GATE_NETWORK_STOP, dt)) == want, chunk


def record_stretches(monkeypatch) -> list:
    """Puts an empty shared solve cache in place and records each call of a
    generated step as (k, stop, rows accepted, whether an OTS of the set is
    in its on phase)."""
    calls = []
    straight_line = engine._straight_line

    def recording(*args):
        step = straight_line(*args)
        *_, switches, _, segments = args
        on = any(segments[pos] != engine._SEG_OFF for *_, pos in switches)

        def record(zl, xp, k=0, stop=1, cols=()):
            rows, xe, stays = step(zl, xp, k, stop, cols)
            calls.append((k, stop, len(rows), on))
            return rows, xe, stays

        return record

    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_straight_line", recording)
    return calls


def test_no_stretch_starts_on_a_batch_first_step(monkeypatch):
    # a stretch is offered from a batch's second step on and ends inside
    # its batch; at its first step the loop samples the batch's drives
    monkeypatch.setattr(engine, "_CHUNK", 7)
    calls = record_stretches(monkeypatch)
    run, steps, expected = GOLDEN["xor_stream_16_clocks"]
    tr = run()
    assert field_digests(tr) == expected
    assert (tr.solved_steps, tr.period) == steps
    stretches = [(k, stop, m) for k, stop, m, _ in calls if stop > k + 1]
    assert stretches and all(k > 0 and k + m < stop for k, stop, m in stretches)
    assert (1, 7, 5) in stretches  # from a batch's second step to its last


@pytest.mark.parametrize("chunk", [None, 331])
@pytest.mark.parametrize("case", ["oscillator_4v3_40us", "xor_stream_16_clocks"])
def test_stretches_through_on_phase_switches_move_no_bit(case, chunk, monkeypatch):
    # the oscillator rig at dt = 10 ns, where a transition stays pending for
    # 5 steps, and the 16-clock XOR stream: some stretch accepts rows while
    # an OTS is on, and with stretches or without, the traces, solved steps
    # and period are the same
    run, steps, expected = GOLDEN[case]
    straight_line = engine._straight_line
    if chunk:  # a prime batch size ends stretches at steps of every phase
        monkeypatch.setattr(engine, "_CHUNK", chunk)
    calls = record_stretches(monkeypatch)
    want = outcome(run)
    assert any(m and on for _, _, m, on in calls)
    if not chunk:
        assert want == expected | {"steps": steps}
    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_straight_line", without_stretches(straight_line))
    assert outcome(run) == want


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_core_networks(), GATE_NETWORK_DT)
def test_random_gate_networks_ots_phases_replay_ots_step(net, dt):
    try:
        tr = transient(net, GATE_NETWORK_STOP, dt)
    except SimulationError:
        return
    assert_phases_replay(net, tr)


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


def test_full_adder_without_the_landing_memo(monkeypatch, solves):
    # the memo changes no bit of the table; without it the table makes
    # 40,820 solves instead of the 14,538 that TestSolveCounts pins
    rows = gates.truth_table(GateKind.FULL_ADDER, keep_traces=True).rows
    solves.count = 0
    monkeypatch.setattr(engine, "_Compiled", CompiledWithoutLanding)
    without = gates.truth_table(GateKind.FULL_ADDER, keep_traces=True).rows
    assert [field_digests(r.trace) for r in without] == [field_digests(r.trace) for r in rows]
    assert solves.count == 40820


def gate_bits(kind: GateKind, bits: tuple[int, ...], enc: LogicEncoding = LogicEncoding()):
    """The decoder of a truth-table row: its measured output bits."""
    outputs = gates.build_gate(kind, enc=enc, bits=bits).outputs
    return lambda tr: [gates.decode_output(tr, out, enc)[0] for out in outputs]


def oscillator_spikes(tr) -> tuple[float, ...]:
    return rig.extract_spikes(tr, rig.MID_NODE, rig.SPIKE_THRESHOLD, rig.SPIKE_REFRACTORY,
                              window=(rig.CHARGE_UP, float(tr.times[-1]))).spike_times


def ots_bursts(tr) -> dict:
    """Burst times of every OTS current, as the stream and gradient
    decoders count them."""
    return {name: pipeline.count_crossings(tr.times, np.abs(tr.currents[name]), pipeline._BURST_CURRENT,
                                           engine.burst_refractory(tr.dt)) for name in tr.ots_on}


def diode_conduction(tr) -> dict:
    return {name: np.flatnonzero(i).tolist() for name, i in tr.currents.items() if name.startswith("D")}


# What the application of each golden case reads from its trace.
GOLDEN_DECODERS = {
    "dcaap_row_010": gate_bits(GateKind.DCAAP_CASCADE, (0, 1, 0)),
    "dynamic_iv_triangle": ots_bursts,
    "full_adder_row_011_4v6": gate_bits(GateKind.FULL_ADDER, (0, 1, 1), LogicEncoding(v_high=4.6)),
    "full_adder_row_111": gate_bits(GateKind.FULL_ADDER, (1, 1, 1)),
    "gradient_xor_dc255_1ms": ots_bursts,
    "half_adder_row_11": gate_bits(GateKind.HALF_ADDER, (1, 1)),
    "nand_row_00": gate_bits(GateKind.NAND, (0, 0)),
    "oscillator_4v3_300us": oscillator_spikes,
    "oscillator_4v3_40us": oscillator_spikes,
    "pulse_ladder_repeat_3": diode_conduction,
    "xor_row_10": gate_bits(GateKind.XOR, (1, 0)),
    "xor_stream_16_clocks": ots_bursts,
}
GENERATED_TOL = 1e-12  # V, largest voltage difference from the LAPACK solves


def dgetrf_factor(mat, pinned):
    """LAPACK's dgetrf factors of a segment set's matrix, in place of
    `engine._factor`, for `dgetrs_solve`."""
    lu, piv, info = dgetrf(mat)
    assert info == 0
    return lu, piv


def idle(p, phase: int, v: float) -> bool:
    """Whether `ots_step` leaves an OTS with parameters p in the phase that
    segment `phase` fixes, with no transition pending, at voltage v: the
    phase's state s (OFF_STATE if `phase` is _SEG_OFF, else ON_STATE) comes
    back as s itself.  Whether it does depends on no dt."""
    s = OFF_STATE if phase == engine._SEG_OFF else ON_STATE
    return math.isfinite(v) and ots_step(p, s, v, 1.0) is s


def stretched(solve, switches, segments):
    """A generated step's stretch contract (`engine._straight_line`) around
    `solve(zl, xp) -> (xe, stays)`, which solves one step: while the
    solution selects its set, k + 1 < stop, xe != xp and every OTS (a, b, p,
    pos) of `switches` stays `idle` in the phase ``segments[pos]`` fixes,
    accept xe, write the drives of step k + 1 from `cols` into zl and solve
    again."""

    def step(zl, xp, k=0, stop=1, cols=()):
        rows = []
        while True:
            xe, stays = solve(zl, xp)
            if not (stays and k + 1 < stop and xe != xp
                    and all(idle(p, segments[pos], xe[a] - xe[b]) for a, b, p, pos in switches)):
                return rows, xe, stays
            rows.append(xe)
            xp = xe
            k += 1
            for r, col in cols:
                zl[r] = col[k]

    return step


def dgetrs_solve(lu, piv, zd, rows, caps, switches, table, segments):
    """The steps of one segment set by LAPACK's dgetrs on its dgetrf
    factors, in place of its generated code: each solve builds the RHS from
    the same inputs, the rows `rows` of zl and each capacitor's history from
    the previous solution xp, in the loop's order, and tests the solution
    with `engine._select`; `stretched` runs the stretches."""
    zd = zd.copy()

    def solve(zl, xp):
        z = [0.0] * len(zl)
        for r in rows:
            z[r] = zl[r]
        for a, b, g in caps:
            hist = g * (xp[a] - xp[b])
            z[a] += hist
            z[b] -= hist
        x = dgetrs(lu, piv, np.array(z[1:]) + zd)[0]
        xe = [0.0, *x.tolist()]
        return xe, engine._select(table, xe) == segments

    return stretched(solve, switches, segments)


def one_step(step):
    """`solve(zl, xp) -> (xe, stays)` of a generated step, which solves one
    step only."""
    return lambda zl, xp: step(zl, xp)[1:]


def save_lapack_runs(path: str) -> None:
    """Pickles to `path` the trace of every golden case run with every
    factorization and solve through LAPACK's dgetrf and dgetrs."""
    engine._factor, engine._straight_line = dgetrf_factor, dgetrs_solve
    runs = {case: GOLDEN[case][0]() for case in GOLDEN_DECODERS}
    with open(path, "wb") as f:
        pickle.dump(runs, f)


@pytest.fixture(scope="module")
def lapack_runs(tmp_path_factory) -> dict:
    """`save_lapack_runs` in one fresh interpreter under OpenBLAS's
    `Sandybridge` kernel, which every x86-64 host with AVX can run, so
    that the reference's rounding does not depend on the host's kernel."""
    path = tmp_path_factory.mktemp("lapack") / "runs.pickle"
    fresh_python("from conftest import openblas_core; from test_engine_golden import save_lapack_runs; "
                 "core = openblas_core('scipy'); assert core in ('Sandybridge', 'unknown'), core; "
                 f"save_lapack_runs({str(path)!r})", OPENBLAS_CORETYPE="Sandybridge")
    with path.open("rb") as f:
        return pickle.load(f)


@pytest.mark.parametrize("case", sorted(GOLDEN_DECODERS))
def test_generated_solves_match_dgetrs(case, lapack_runs):
    """The owned factorization and generated solves differ from LAPACK's
    dgetrf and dgetrs on the same matrices only by rounding: the same
    decoded result, OTS phases and period, voltages within GENERATED_TOL
    (2.6e-14 V at most over these cases), and the same solved steps where
    every step is solved.  A run that stops at a recurring state stops at
    the first step whose bits repeat an earlier one's, which rounding moves:
    the NAND row stops after 182 solved steps and its reference after 185.
    LAPACK's rounding depends on the OpenBLAS kernel it runs with, so the
    reference always runs under `Sandybridge`, where the gradient run's
    reference stops after 4,313 steps at period 269, as otsim's does.
    Under `SkylakeX` it stops after 4,887 steps at period 269, and under
    `Haswell`, `Nehalem` and the generic fallback kernel after 5,156 at
    period 538."""
    run, decode = GOLDEN[case][0], GOLDEN_DECODERS[case]
    tr, ref = run(), lapack_runs[case]
    assert decode(tr) == decode(ref)
    assert tr.ots_on.keys() == ref.ots_on.keys()
    assert all(np.array_equal(tr.ots_on[name], ref.ots_on[name]) for name in tr.ots_on)
    assert tr.period == ref.period
    if ref.period is None:
        assert tr.solved_steps == ref.solved_steps
    assert np.max(np.abs(tr.voltages - ref.voltages)) <= GENERATED_TOL


def test_factor_matches_dgetrf(monkeypatch):
    """On every matrix that the eight truth tables and the oscillator
    factorize, `engine._factor` picks the row order of LAPACK's dgetrf, and
    each factor is within 1e-12 relative of dgetrf's (7.7e-14 at most)."""
    systems = []
    factor = engine._factor
    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_factor", lambda mat, pinned: systems.append((mat, pinned)) or factor(mat, pinned))
    for kind in GateKind:
        gates.truth_table(kind)
    rig.run_oscillator(4.3, 300e-6)
    assert len(systems) > 500
    for mat, pinned in systems:
        lu, order = factor(mat, pinned)
        ref, piv, info = dgetrf(mat)
        rows = list(range(len(piv)))
        for k, p in enumerate(piv):
            rows[k], rows[p] = rows[p], rows[k]
        assert info == 0 and order == rows
        assert np.all(np.abs(np.array(lu) - ref) <= 1e-12 * np.abs(ref))


def fresh_python(code: str, **env: str) -> str:
    """The output of `code` run by a fresh interpreter that finds otsim and
    these test modules on its path, with `env` set for it alone."""
    path = os.pathsep.join([str(Path(otsim.__file__).parents[1]), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-c", code], env=os.environ | {"PYTHONPATH": path} | env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_otsim_loads_no_scipy():
    assert fresh_python("import sys, otsim, otsim.cli; print([m for m in sys.modules if m.startswith('scipy')])") == "[]"


@pytest.mark.parametrize("kernel", ["Sandybridge", "Haswell"])
def test_golden_under_another_blas_kernel(kernel):
    # a run calls no BLAS routine, so every bit, kcl_residual included, is
    # the same under another OpenBLAS kernel; Haswell is the one AMD Zen and
    # pre-AVX-512 Intel hosts get
    case = "full_adder_row_111"
    out = json.loads(fresh_python(
        "import json; from conftest import openblas_core; from test_engine_golden import GOLDEN, field_digests; "
        f"tr = GOLDEN[{case!r}][0](); "
        "print(json.dumps([openblas_core(), field_digests(tr), tr.solved_steps, tr.period]))",
        OPENBLAS_CORETYPE=kernel))
    core, digests, solved_steps, period = out
    _, steps, expected = GOLDEN[case]
    assert core in (kernel, "unknown")
    assert digests == expected, core
    assert (solved_steps, period) == steps, core


@pytest.mark.parametrize("run", [lambda: rig.run_oscillator(4.3, 40e-6),
                                 lambda: gates.evaluate(GateKind.XOR, (1, 0))], ids=["rig", "xor"])
def test_a_perturbed_generated_solve_fails_the_residual_gate(run, monkeypatch):
    straight_line = engine._straight_line

    def perturbed(*args):
        solve = one_step(straight_line(*args))
        *_, switches, table, segments = args

        def off(zl, xp):
            xe = [v * (1.0 + 1e-6) for v in solve(zl, xp)[0]]
            return xe, engine._select(table, xe) == segments

        return stretched(off, switches, segments)

    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_straight_line", perturbed)
    with pytest.raises(SimulationError, match=r"^nodal residual .* exceeds 1e-09 A at step \d+$"):
        run()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_the_gate_derives_the_rhs_each_accepted_solve_received(case, monkeypatch):
    # the residual gate keeps no record of the RHS: per batch of _CHUNK
    # samples, `node_rhs` derives its node rows from the solutions, and they
    # must be the bits of the node rows the step loop used to build before
    # each accepted solve: at step 0 those of the RHS list the step got, and
    # later zeros plus each capacitor's history from the previous solution
    # the step got, added capacitor by capacitor
    compiled, received = [], []

    class Recorded(engine._Compiled):
        def __init__(self, *args):
            super().__init__(*args)
            compiled.append(self)

    straight_line = engine._straight_line

    def recording(*args):
        solve = one_step(straight_line(*args))
        *_, switches, _, segments = args
        return stretched(lambda zl, xp: received.append((list(zl), xp)) or solve(zl, xp), switches, segments)

    monkeypatch.setattr(engine, "_Compiled", Recorded)
    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_straight_line", recording)
    tr = GOLDEN[case][0]()
    (c,) = compiled
    # every solve of a step gets the previous solution, and the last one is accepted
    steps = [k for k, (_, xp) in enumerate(received) if k + 1 == len(received) or xp is not received[k + 1][1]]
    n = tr.solved_steps
    assert len(steps) == n
    rebuilt = []
    for step, k in enumerate(steps):
        zl, xp = received[k]
        z = zl[:c.nv + 1] if step == 0 else [0.0] * (c.nv + 1)
        if step:
            for a, b, g, _ in c.caps:
                hist = g * (xp[a] - xp[b])
                z[a] += hist
                z[b] -= hist
        rebuilt.append(z)
    derived = np.vstack([c.node_rhs(tr.voltages, lo, min(lo + engine._CHUNK, n)) for lo in range(0, n, engine._CHUNK)])
    assert derived.tobytes() == np.array(rebuilt).tobytes()
    assert c.node_rhs(tr.voltages, 0, 0).shape == (0, c.nv + 1)  # the loop raised at step 0


def record_assembly(monkeypatch) -> tuple[list, dict, list]:
    """Puts an empty shared solve cache in place and records the compiled
    circuit and shared key of each set a run meets, in set id order; the
    matrix assembled for each key; and the compiled circuit, solution record,
    set-id record and sample range of each residual gate call."""
    keys, assembled, gated = [], {}, []

    class Recorded(engine._Compiled):
        def factorized(self, segments, pinned):
            key = (self.run_key, segments, pinned)
            factor = engine._factor
            keys.append((self, key))

            def recording(mat, pinned):
                assembled[key] = mat.copy()
                return factor(mat, pinned)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_factor", recording)
                return super().factorized(segments, pinned)

        def residual_gate(self, sol, set_id, lo, hi):
            gated.append((self, sol, set_id, lo, hi))
            return super().residual_gate(sol, set_id, lo, hi)

    monkeypatch.setattr(engine, "_Compiled", Recorded)
    monkeypatch.setattr(engine, "_solves", {})
    return keys, assembled, gated


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_kcl_residual_is_the_written_sum(case, monkeypatch):
    # a scalar plain-Python gate: for each solved sample and node row, the
    # products a_ij * x_j over the nonzeros of the matrix assembled for the
    # sample's set, summed left to right in ascending column order from the
    # first product, minus the `node_rhs` row plus the set's dynamic RHS;
    # the largest |r| of all is kcl_residual, bit for bit
    keys, assembled, gated = record_assembly(monkeypatch)
    tr = GOLDEN[case][0]()
    (c, sol, set_id, *_), *_ = gated
    n = tr.solved_steps
    terms = []  # per set id: each node row's (column, value) nonzeros, and the dynamic RHS
    for (_, key), (_, _, zd) in zip(keys, c.sets, strict=True):  # the run's sets, in set id order
        mat = assembled[key].tolist()
        terms.append(([[(j + 1, v) for j, v in enumerate(row) if v] for row in mat[:c.nv]], zd.tolist()))
    worst = 0.0
    for x, z, sid in zip(sol[:n].tolist(), c.node_rhs(sol, 0, n).tolist(), set_id[:n].tolist()):
        rows, zd = terms[sid]
        for i, ((j, a), *rest) in enumerate(rows):
            r = a * x[j]
            for j, a in rest:
                r += a * x[j]
            worst = max(worst, abs(r - (z[i + 1] + zd[i])))
    assert worst.hex() == tr.kcl_residual.hex()


def per_set_residuals(c, sol, set_id, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """`engine._Compiled.residuals` as the gate computed them before it
    sorted its samples: set by set in `np.unique` order, each set's samples
    found with `flatnonzero` and gathered column by column from the
    row-major record."""
    worst = np.zeros(hi - lo)
    refused = np.zeros(hi - lo, dtype=bool)
    z = c.node_rhs(sol, lo, hi)
    ids = set_id[lo:hi]
    for sid in np.unique(ids):
        rows = np.flatnonzero(ids == sid)
        _, (cols, coef), zd = c.sets[sid]
        x = sol[lo + rows]
        r = coef[0] * x[:, cols[0]]
        for k in range(1, len(cols)):
            r += coef[k] * x[:, cols[k]]
        zs = z[rows, 1:] + zd[:c.nv]
        r = np.abs(r - zs)
        worst[rows] = np.max(r, axis=1)
        tall = ~(worst[rows] <= engine._RESIDUAL_TOL)
        if tall.any():
            xa, scale = np.abs(x[tall]), np.abs(zs[tall])
            for k in range(len(cols)):
                scale += np.abs(coef[k]) * xa[:, cols[k]]
            refused[rows[tall]] = ~(np.isfinite(worst[rows[tall]])
                                    & np.all(r[tall] <= engine._BACKWARD_TOL * scale, axis=1))
    return worst, refused


def assert_residuals_equal_the_per_set_loop(c, sol, set_id, lo, hi) -> None:
    worst, refused = c.residuals(sol, set_id, lo, hi)
    want, want_refused = per_set_residuals(c, sol, set_id, lo, hi)
    assert worst.tobytes() == want.tobytes()
    assert np.array_equal(refused, want_refused)


def test_the_gate_sorted_by_set_equals_the_per_set_loop(monkeypatch):
    # on every batch of the eight truth tables and of one oscillator run,
    # the per-sample maxima are those of the per-set loop, bit for bit
    _, _, gated = record_assembly(monkeypatch)
    for kind in GateKind:
        gates.truth_table(kind)
    rig.run_oscillator(4.3, 300e-6)
    assert len(gated) > 30
    for batch in gated:
        assert_residuals_equal_the_per_set_loop(*batch)


def test_the_gate_names_the_earliest_refused_step_of_any_set(monkeypatch):
    # one batch of 4,001 samples whose sets interleave; of two perturbed
    # samples in different sets, the earlier one is in the set that sorts
    # later, and the error names it
    _, _, gated = record_assembly(monkeypatch)
    rig.run_oscillator(4.3, 40e-6)
    ((c, sol, set_id, lo, hi),) = gated
    ids = set_id[lo:hi].tolist()
    runs = [sid for k, sid in enumerate(ids) if k == 0 or sid != ids[k - 1]]
    assert len(set(ids)) >= 3 and len(runs) > len(set(ids))
    early = ids.index(max(ids[1:]), 1)
    late = next(k for k in range(early + 2, hi) if ids[k] < ids[early])
    for perturbed, step in (((early, late), early), ((late,), late)):
        bad = sol.copy()
        bad[list(perturbed), 1:] *= 1.0 + 1e-6
        assert_residuals_equal_the_per_set_loop(c, bad, set_id, lo, hi)
        with pytest.raises(SimulationError, match=rf" at step {lo + step}$"):
            c.residual_gate(bad, set_id, lo, hi)


def selection_forms(v_f: float, v_z: float, v_hold: float) -> list[tuple]:
    """(upper knee, lower knee, middle segment) of the selection entries the
    engine compiles for a diode, an OTS in its off and on phases and a
    comparator."""
    net = Netlist()
    net.add_diode("D1", "a", "0", v_f=v_f, v_z=v_z)
    net.add_ots("S1", "a", "0", replace(default_params(), v_hold=v_hold))
    net.add_comparator("K1", "a", "0", "o")
    net.add_resistor("R1", "o", "0", 1e3)
    c = engine._Compiled(net, 1e-8, None)
    ((*_, on),) = c.ots
    return [entry[2:] for entry in (*c.select, on)]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.floats(1e-3, 50.0), st.floats(1e-3, 50.0), st.floats(1e-3, 2.9))
def test_a_generated_self_check_is_select(data, v_f, v_z, v_hold):
    """A generated step's `stays` is ``_select(table, xe) == segments`` for
    the entries of diodes, OTSs in either phase and comparators on random
    terminals, at solutions whose voltages include each knee exactly,
    signed zeros, infinities and NaN.  The system is the identity, so the
    step returns its RHS as the solution."""
    forms = selection_forms(v_f, v_z, v_hold)
    n = data.draw(st.integers(1, 5))
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, *(k for hi, lo, _ in forms for k in (hi, lo)))
    x = [0.0, *data.draw(st.lists(st.sampled_from(special) | st.floats(-100.0, 100.0), min_size=n, max_size=n))]
    terminal = st.integers(0, n)
    table = tuple((data.draw(terminal), data.draw(terminal), *data.draw(st.sampled_from(forms)))
                  for _ in range(data.draw(st.integers(1, 6))))
    # the segments the solution selects, or those with one entry changed
    segments = list(engine._select(table, x))
    k = data.draw(st.none() | st.integers(0, len(table) - 1))
    if k is not None:
        segments[k] = data.draw(st.sampled_from([engine._SEG_OFF, engine._SEG_FWD, engine._SEG_REV, engine._SEG_DEAD]))
    segments = tuple(segments)
    lu = [[float(i == j) for j in range(n)] for i in range(n)]
    step = engine._straight_line(lu, list(range(n)), np.zeros(n), tuple(range(1, n + 1)), (), (), table, segments)
    rows, xe, stays = step(x, [0.0] * (n + 1))
    assert rows == []
    assert np.array(xe).tobytes() == np.array(x).tobytes()
    assert stays is (engine._select(table, xe) == segments)


@st.composite
def valid_ots_params(draw):
    """Any valid `OtsParams`, r_on down to 1e-3 Ohm, so that an on-phase
    current can overflow."""
    v_hold = draw(st.floats(1e-3, 10.0))
    r_on = draw(st.floats(1e-3, 1e6))
    tau = st.sampled_from((0.0, 1e-9, 50e-9))
    return OtsParams(v_th=v_hold * draw(st.floats(1.001, 10.0)), v_hold=v_hold, r_on=r_on,
                     g_off=draw(st.floats(0.0, 0.9e-3)) / r_on, i_hold=draw(st.floats(1e-9, 1.0)),
                     tau_on=draw(tau), tau_off=draw(tau))


@st.composite
def near(draw, centers):
    """A float within a few ulps of one of +-`centers`."""
    v = draw(st.sampled_from(centers)) * draw(st.sampled_from((1.0, -1.0)))
    for _ in range(draw(st.integers(0, 3))):
        v = math.nextafter(v, draw(st.sampled_from((math.inf, -math.inf))))
    return v


QUIET_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 math.inf, -math.inf, math.nan, 1.7e308, -1.7e308)


def stretch_rows(p, a: int, b: int, phase: int, x: list[float], dt: float) -> list:
    """The rows a generated step's stretch accepts past solution x, with
    stop one step on, for an OTS with parameters p between a and b, in the
    phase that segment `phase` fixes, of an identity system whose solution
    is its RHS; x selects the set, and differs from xp (empty), as no
    capacitor reads xp."""
    net = Netlist()
    net.add_ots("S1", "a", "0", p)
    ((*_, off, on),) = engine._Compiled(net, dt, None).ots
    table = ((a, b, *(off if phase == engine._SEG_OFF else on)[2:]),)
    segments = engine._select(table, x)
    step = engine._straight_line([[1.0, 0.0], [0.0, 1.0]], [0, 1], np.zeros(2), (1, 2), (), ((a, b, p, 0),),
                                 table, segments)
    rows, xe, stays = step(x, [], 0, 2)
    assert stays and np.array(xe).tobytes() == np.array(x).tobytes()
    return rows


@settings(max_examples=500, deadline=None)
@given(st.data(), valid_ots_params(), st.sampled_from(((1, 0), (0, 1), (1, 2))),
       st.sampled_from((engine._SEG_OFF, engine._SEG_DEAD)), st.sampled_from((1e-9, 10e-9, 1.0)))
def test_a_generated_stretch_continues_only_while_ots_step_keeps_the_phase(data, p, terminals, phase, dt):
    """The quiet rule of a generated step, run as generated code: a stretch
    goes on past a solution only where `ots_step` returns the OTS's phase
    state s, OFF_STATE or ON_STATE itself, and exactly there for finite v
    whose on-phase current does not overflow.  The switch lies between node
    1 and ground, ground and node 1, or nodes 1 and 2, at voltages near
    +-v_hold, +-(v_hold + i_hold r_on) and +-v_th, signed zeros,
    subnormals, infinities, NaN and near the largest floats."""
    a, b = terminals
    voltage = near((p.v_hold, p.v_hold + p.i_hold * p.r_on, p.v_th)) | st.sampled_from(QUIET_SPECIAL)
    x = [0.0, data.draw(voltage), data.draw(st.sampled_from((0.0, -0.0, 5e-324)) | voltage)]
    rows = stretch_rows(p, a, b, phase, x, dt)
    v = x[a] - x[b]
    if not math.isfinite(v):
        assert rows == []
        return
    s = OFF_STATE if phase == engine._SEG_OFF else ON_STATE
    kept = ots_step(p, s, v, dt) is s
    assert kept or rows == []
    if phase == engine._SEG_OFF or math.isfinite((abs(v) - p.v_hold) / p.r_on):
        assert bool(rows) is kept


def test_an_overflowing_on_phase_current_ends_a_stretch():
    # ots_step keeps the switch on at |i| = inf, but the stretch ends there
    p = OtsParams(r_on=1e-3, g_off=0.0)
    assert ots_step(p, ON_STATE, 1.7e308, 1e-9) is ON_STATE
    assert stretch_rows(p, 1, 0, engine._SEG_DEAD, [0.0, 1.7e308, 0.0], 1e-9) == []
    assert stretch_rows(p, 1, 0, engine._SEG_DEAD, [0.0, 1.7e305, 0.0], 1e-9) != []


@settings(max_examples=300, deadline=None)
@given(st.data(), st.floats(1e-3, 50.0), st.floats(1e-3, 50.0), st.floats(1e-3, 2.9))
def test_a_start_set_after_a_flip_is_select(data, v_f, v_z, v_hold):
    """Where a generated step's self-check holds, `_after_flip` gives
    ``_select`` over the table whose flipped positions took other entries,
    though it selects only those positions again.  The tables, solutions
    and forms are those of `test_a_generated_self_check_is_select`."""
    forms = selection_forms(v_f, v_z, v_hold)
    n = data.draw(st.integers(1, 5))
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, *(k for hi, lo, _ in forms for k in (hi, lo)))
    x = [0.0, *data.draw(st.lists(st.sampled_from(special) | st.floats(-100.0, 100.0), min_size=n, max_size=n))]
    terminal = st.integers(0, n)
    entry = st.tuples(terminal, terminal, st.sampled_from(forms)).map(lambda e: (e[0], e[1], *e[2]))
    table = tuple(data.draw(st.lists(entry, min_size=1, max_size=6)))
    # the segments the solution selects, or those with one entry changed
    segments = list(engine._select(table, x))
    k = data.draw(st.none() | st.integers(0, len(table) - 1))
    if k is not None:
        segments[k] = data.draw(st.sampled_from([engine._SEG_OFF, engine._SEG_FWD, engine._SEG_REV, engine._SEG_DEAD]))
    segments = tuple(segments)
    lu = [[float(i == j) for j in range(n)] for i in range(n)]
    step = engine._straight_line(lu, list(range(n)), np.zeros(n), tuple(range(1, n + 1)), (), (), table, segments)
    _, xe, stays = step(x, [0.0] * (n + 1))
    flips = tuple(data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=len(table), unique=True)))
    flipped = list(table)
    for pos in flips:
        flipped[pos] = data.draw(entry)
    if stays:
        assert engine._after_flip(flipped, xe, segments, stays, flips) == engine._select(flipped, xe)


def test_a_knee_tie_start_set_selects_every_entry():
    # a set accepted at a knee tie: the diode's entry (position 0) selects
    # _SEG_OFF though the set holds _SEG_FWD, so the start set after the
    # OTS's flip (position 1) selects every entry again
    diode, ots_off, _, ots_on = selection_forms(0.7, 15.0, 0.5)
    table = [(1, 0, *diode), (1, 2, *ots_off)]
    xe = [0.0, 0.7 - 1e-13, 0.0]
    segments = (engine._SEG_FWD, engine._SEG_OFF)
    assert engine._select(table, xe) != segments
    assert engine._knee_gap(table, segments, engine._select(table, xe), xe) <= engine._KNEE_TOL
    table[1] = (1, 2, *ots_on)
    start = engine._after_flip(table, xe, segments, False, (1,))
    assert start == engine._select(table, xe) == (engine._SEG_OFF, engine._SEG_FWD)
    # selecting only the flipped position would keep the tied entry
    assert engine._after_flip(table, xe, segments, True, (1,)) == (engine._SEG_FWD, engine._SEG_FWD)


def test_a_run_leaves_no_reference_cycle(monkeypatch):
    # with the cycle collector off, a run's compiled circuit is freed as
    # soon as the run returns, and its generated solves are held by the
    # shared cache only
    compiled = []

    class Recorded(engine._Compiled):
        def __init__(self, *args):
            super().__init__(*args)
            compiled.append(weakref.ref(self))

    monkeypatch.setattr(engine, "_Compiled", Recorded)
    cache = {}
    monkeypatch.setattr(engine, "_solves", cache)
    straight_line = engine._straight_line
    solves = []
    monkeypatch.setattr(engine, "_straight_line",
                        lambda *args: solves.append(weakref.ref(fn := straight_line(*args))) or fn)
    gc.disable()
    try:
        gates.evaluate(GateKind.XOR, (1, 0))
        assert len(compiled) == 1 and solves
        assert compiled[0]() is None
        assert sorted(id(step) for step, *_ in cache.values()) == sorted(id(ref()) for ref in solves)
        cache.clear()
        assert all(ref() is None for ref in solves)
    finally:
        gc.enable()


def test_a_finished_trace_keeps_no_generated_step_alive(monkeypatch):
    # with the cycle collector off, a trace whose currents are not yet read
    # holds neither the run's compiled circuit nor a generated step: once
    # the shared cache lets go of them they are freed, and every current
    # still reads as it does in a run whose steps stay cached
    compiled = []

    class Recorded(engine._Compiled):
        def __init__(self, *args):
            super().__init__(*args)
            compiled.append(weakref.ref(self))

    monkeypatch.setattr(engine, "_Compiled", Recorded)
    cache = {}
    monkeypatch.setattr(engine, "_solves", cache)
    straight_line = engine._straight_line
    solves = []
    monkeypatch.setattr(engine, "_straight_line",
                        lambda *args: solves.append(weakref.ref(fn := straight_line(*args))) or fn)
    circuit = gates.build_gate(GateKind.FULL_ADDER, bits=(1, 0, 1))
    enc = LogicEncoding()
    gc.disable()
    try:
        tr = transient(circuit.net, enc.settle + enc.bit_width, 50e-9)
        assert compiled[0]() is None and solves
        cache.clear()
        assert all(ref() is None for ref in solves)
        currents = {name: i.tobytes() for name, i in tr.currents.items()}
    finally:
        gc.enable()
    again = transient(circuit.net, enc.settle + enc.bit_width, 50e-9)
    assert currents == {name: i.tobytes() for name, i in again.currents.items()}


def count_compiles(monkeypatch, cache: dict) -> list:
    """Puts `cache` in place of the shared solve cache; the list returned
    gets one entry per segment set compiled."""
    compiles = []
    straight_line = engine._straight_line
    monkeypatch.setattr(engine, "_solves", cache)
    monkeypatch.setattr(engine, "_straight_line", lambda *args: compiles.append(args) or straight_line(*args))
    return compiles


def stamped_rig(v_in=4.3, ohms=9.1e3, farads=1e-9, dt=10e-9, v_f=0.4, v_z=15.0, r_series=1.0, r_on=100.0,
                g_off=1e-8, v_hold=1.0, v_th=3.0, i_hold=0.9e-3, r_out=50.0, v_out_high=5.0, v_out_low=0.0):
    """30 us of the oscillator rig with a diode and a comparator on its
    sense node: the switch flips, the diode conducts and the comparator
    output goes high and low, so every value but `v_z` (and `v_in`, a Dc
    level) moves the trace."""
    net = Netlist()
    net.add_source("VIN", "in", "0", Dc(v_in))
    net.add_source("VREF", "ref", "0", Dc(0.25))
    net.add_resistor("RD", "in", "top", ohms)
    net.add_capacitor("CP", "top", "0", farads)
    net.add_ots("S1", "top", "mid", replace(default_params(), r_on=r_on, g_off=g_off, v_hold=v_hold, v_th=v_th,
                                            i_hold=i_hold))
    net.add_resistor("RS", "mid", "0", 100.0)
    net.add_diode("D1", "mid", "d", v_f=v_f, v_z=v_z, r_series=r_series)
    net.add_resistor("R3", "d", "0", 1e3)
    net.add_comparator("K1", "mid", "ref", "o", r_out=r_out, v_out_high=v_out_high, v_out_low=v_out_low)
    net.add_resistor("RO", "o", "0", 1e3)
    return transient(net, 30e-6, dt)


# one changed value per field that a matrix, a knee or a constant of the generated code holds, the
# switch thresholds a stretch tests included
STAMPED_CHANGES = {"ohms": 9.2e3, "farads": 1.1e-9, "dt": 12.5e-9, "v_f": 0.45, "v_z": 14.0, "r_series": 2.0,
                   "r_on": 110.0, "g_off": 2e-8, "v_hold": 1.1, "v_th": 3.1, "i_hold": 1e-3, "r_out": 60.0,
                   "v_out_high": 4.5, "v_out_low": 0.5}


class TestSharedSolves:
    """Generated solves are shared by every run through `engine._solves`,
    keyed by a digest of everything but the segments that their code is
    generated from, taken once per run, so a run's bits do not depend on
    what ran before it."""

    ROW = "full_adder_row_111"

    def test_a_row_after_the_other_tables_equals_the_row_alone(self, monkeypatch):
        # the other seven tables and the full adder's other seven rows
        # leave solves that the row shares
        run = GOLDEN[self.ROW][0]
        alone_compiles = count_compiles(monkeypatch, {})
        alone = run()
        alone_count = len(alone_compiles)  # the list goes on counting through the next wrapper
        compiles = count_compiles(monkeypatch, {})
        for kind in GateKind:
            if kind is not GateKind.FULL_ADDER:
                gates.truth_table(kind)
        for bits in itertools.product((0, 1), repeat=3):
            if bits != (1, 1, 1):
                gates.evaluate(GateKind.FULL_ADDER, bits)
        before = len(compiles)
        after = run()
        assert len(compiles) - before < alone_count
        assert field_digests(after) == field_digests(alone)
        assert (after.solved_steps, after.period) == (alone.solved_steps, alone.period)

    def test_a_second_run_compiles_no_set(self, monkeypatch):
        compiles = count_compiles(monkeypatch, {})
        first = GOLDEN[self.ROW][0]()
        assert compiles
        compiles.clear()
        second = GOLDEN[self.ROW][0]()
        assert compiles == []
        assert field_digests(second) == field_digests(first)

    def test_the_key_holds_the_knees(self, monkeypatch):
        # two XOR streams whose switches differ only in v_hold: a set whose
        # switch sits in the on-phase dead zone stamps nothing of the switch,
        # so it has the same matrix and dynamic RHS bytes in both, but its
        # self-check tests other knees
        params = [replace(default_params(), v_hold=v) for v in (1.0, 1.2)]
        alone = []
        for p in params:
            count_compiles(monkeypatch, {})
            alone.append(field_digests(xor_stream_segment(p)))
        compiles = count_compiles(monkeypatch, {})
        together = [field_digests(xor_stream_segment(params[0]))]
        first = len(compiles)
        together.append(field_digests(xor_stream_segment(params[1])))

        def system(args):
            lu, order, zd, *_, segments = args
            return repr(lu), order, zd.tobytes(), segments

        dead = [system(args) for args in compiles[:first] if args[-1] == (engine._SEG_DEAD,)]
        assert dead and dead[0] in [system(args) for args in compiles[first:]]
        assert together == alone

    @pytest.mark.parametrize("field", sorted(STAMPED_CHANGES))
    def test_each_stamped_value_keys_its_own_sets(self, monkeypatch, field):
        # after a run of the rig, a run whose one value differs compiles
        # every set it compiles alone, and gets its bits alone
        change = {field: STAMPED_CHANGES[field]}
        compiles = count_compiles(monkeypatch, {})
        alone = field_digests(stamped_rig(**change))
        alone_compiles = len(compiles)
        monkeypatch.setattr(engine, "_solves", {})
        base = field_digests(stamped_rig())
        before = len(compiles)
        assert field_digests(stamped_rig(**change)) == alone
        assert len(compiles) - before == alone_compiles > 0
        assert (alone == base) is (field == "v_z")

    def test_a_run_at_another_dc_level_compiles_no_set(self, monkeypatch):
        monkeypatch.setattr(engine, "_solves", {})
        alone = field_digests(stamped_rig(v_in=4.4))
        compiles = count_compiles(monkeypatch, {})
        base = field_digests(stamped_rig())
        compiles.clear()
        assert field_digests(stamped_rig(v_in=4.4)) == alone != base
        assert compiles == []

    def test_the_gate_rebuilds_each_assembled_matrix(self, monkeypatch):
        # for every set of the eight truth tables, the node rows rebuilt from
        # the shared terms are, bit for bit, those of the matrix assembled
        # and factorized when the set was compiled; in each row the columns
        # ascend with rank, and only ground pads a row, with 0.0
        keys, assembled, _ = record_assembly(monkeypatch)
        for kind in GateKind:
            gates.truth_table(kind)
        sids = {}
        for c, key in keys:
            sid = sids[c] = sids.get(c, -1) + 1
            segments, (cols, coef), _ = c.sets[sid]
            assert segments == key[1] and cols.dtype == np.int32 and cols.shape == coef.shape
            node = np.zeros((c.nv, c.n + 1))
            for k in range(len(cols)):
                node[np.arange(c.nv), cols[k]] = coef[k]
            assert node[:, 1:].tobytes() == assembled[key][:c.nv].tobytes()
            assert np.all(cols[0] > 0) and np.any(cols[-1] > 0) and np.array_equal(cols == 0, coef == 0.0)
            assert np.all(np.where(cols[:-1] > 0, (cols[1:] > cols[:-1]) | (cols[1:] == 0), cols[1:] == 0))
        assert len(assembled) == len(engine._solves) > 500 and len(keys) > len(assembled)

    def test_a_cache_of_two_gives_the_same_bits(self, monkeypatch):
        sizes = []

        class Recorded(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        monkeypatch.setattr(engine, "_SOLVES_MAX", 2)
        monkeypatch.setattr(engine, "_solves", Recorded())
        run, steps, expected = GOLDEN[self.ROW]
        tr = run()
        assert max(sizes) == 2 and len(sizes) > 2
        assert field_digests(tr) == expected
        assert (tr.solved_steps, tr.period) == steps
