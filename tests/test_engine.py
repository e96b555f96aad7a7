"""Transient-engine validation: analytic circuits, element laws, errors."""

import math
import random
import re
import warnings
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otsim import (
    ConvergenceError,
    Dc,
    Netlist,
    NetlistError,
    PiecewiseLinear,
    Pulse,
    SimulationError,
    SingularSystemError,
    Triangle,
    default_params,
    engine,
    extract_spikes,
    firing_rate,
    transient,
)
from otsim.device import OtsState, ots_current
from otsim.cli import EXIT_USAGE, main
from otsim.config import RunConfig
from otsim.engine import SpikeTrain, count_crossings, step_count
from otsim.netlist import Capacitor, Comparator, Diode, Resistor
from otsim.gates import GateKind, truth_table
from otsim.pipeline import PULSE_WIDTH, StreamSettings
from otsim.rig import measurement_netlist


def rc_lowpass(r=1e3, c=1e-9, v=1.0):
    net = Netlist()
    net.add_source("VIN", "in", "0", Dc(v))
    net.add_resistor("R1", "in", "out", r)
    net.add_capacitor("C1", "out", "0", c)
    return net


class TestLinearCircuits:
    def test_rc_step_response_within_1pct(self):
        tr = transient(rc_lowpass(), 5e-6, 10e-9)
        tau = 1e-6
        idx = np.searchsorted(tr.times, 1e-6)
        expect = 1.0 - math.exp(-1.0)
        got = tr.voltage("out")[idx]
        assert abs(got - expect) / expect < 0.01

    def test_divider_exact(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(5.0))
        net.add_resistor("Ra", "a", "mid", 1e3)
        net.add_resistor("Rb", "mid", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        assert np.allclose(tr.voltage("mid"), 2.5)

    def test_first_order_convergence(self):
        # halving dt must shrink the step-response error by at least 2x
        errs = {}
        for dt in (20e-9, 10e-9):
            tr = transient(rc_lowpass(), 5e-6, dt)
            exact = 1.0 - np.exp(-tr.times / 1e-6)
            errs[dt] = np.max(np.abs(tr.voltage("out") - exact))
        assert errs[20e-9] / errs[10e-9] >= 1.98

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-4.0, 1.0), st.sampled_from((10.0, 1e3, 1e5)), st.sampled_from((1e-9, 10e-9, 50e-9)),
           st.integers(1, 40), st.floats(-5.0, 5.0), st.floats(0.1, 5.0), st.booleans())
    @example(-4.0, 1e3, 10e-9, 40, 1.0, 1.0, False)
    @example(1.0, 10.0, 1e-9, 40, 5.0, 5.0, True)
    def test_random_rcs_stay_within_the_first_order_bound(self, log_x, ohms, dt, steps, v, dv, up):
        """A single RC driven by a Dc of v from ic = v -/+ dv, with x = dt / tau
        drawn across five decades.  Backward Euler gives v_n - v = (v_0 - v) /
        (1 + x)^n, and its error against the closed-form exponential, in units
        of ic - v, lies between 0 (it never runs ahead) and the first-order
        bound n x^2 / 2 (1 + x)^(1 - n) <= t_n dt / (2 tau^2), since 1 / (1 +
        x) - e^-x <= x^2 / 2; below 0 only by the step-0 pin, which leaves
        v_0 - ic = (v - ic) x / (x + _PIN), and rounding."""
        x = 10.0 ** log_x
        ic = v - dv if up else v + dv
        net = Netlist()
        net.add_source("V1", "in", "0", Dc(v))
        net.add_resistor("R1", "in", "a", ohms)
        net.add_capacitor("C1", "a", "0", dt / (x * ohms), ic=ic)
        tr = transient(net, steps * dt, dt)
        n = np.arange(steps + 1)
        err = (tr.voltage("a") - v) / (ic - v) - np.exp(-n * x)
        bound = n * x**2 / 2 * (1 + x) ** (1 - n)
        pin = x / (x + engine._PIN) * (1 + x) ** -n
        assert np.all(err <= bound + 1e-12)
        assert np.all(err >= -pin - 1e-12)
        assert np.all(bound <= n * dt * dt / (2 * (dt / x) ** 2) * (1 + 1e-12))

    def test_kirchhoff_residual_tiny(self):
        tr = transient(rc_lowpass(), 5e-6, 10e-9)
        assert tr.kcl_residual < 1e-9

    def test_capacitor_initial_condition(self):
        net = Netlist()
        net.add_source("VIN", "in", "0", Dc(0.0))
        net.add_resistor("R1", "in", "out", 1e3)
        net.add_capacitor("C1", "out", "0", 1e-9, ic=2.0)
        tr = transient(net, 3e-6, 10e-9)
        assert tr.voltage("out")[0] == pytest.approx(2.0, abs=1e-3)
        # discharges toward zero with tau = 1 us
        idx = np.searchsorted(tr.times, 1e-6)
        assert tr.voltage("out")[idx] == pytest.approx(2.0 * math.exp(-1.0), rel=0.02)

    def test_bit_determinism(self):
        a = transient(rc_lowpass(), 2e-6, 10e-9)
        b = transient(rc_lowpass(), 2e-6, 10e-9)
        assert np.array_equal(a.voltages, b.voltages)
        assert all(np.array_equal(a.currents[k], b.currents[k]) for k in a.currents)

    def test_pwl_and_pulse_sources(self):
        net = Netlist()
        net.add_source("V1", "a", "0", PiecewiseLinear(((0.0, 0.0), (1e-6, 2.0))))
        net.add_resistor("R1", "a", "0", 1e3)
        tr = transient(net, 2e-6, 10e-9)
        idx = np.searchsorted(tr.times, 0.5e-6)
        assert tr.voltage("a")[idx] == pytest.approx(1.0, abs=1e-6)
        assert tr.voltage("a")[-1] == pytest.approx(2.0)

        net2 = Netlist()
        net2.add_source("V1", "a", "0", Pulse(0.0, 5.0, 0.0, 5e-6, 10e-6))
        net2.add_resistor("R1", "a", "0", 1e3)
        tr2 = transient(net2, 20e-6, 50e-9)
        v = tr2.voltage("a")
        t = tr2.times
        assert v[np.searchsorted(t, 2e-6)] == 5.0
        assert v[np.searchsorted(t, 7e-6)] == 0.0
        assert v[np.searchsorted(t, 12e-6)] == 5.0


class TestNonlinearElements:
    def test_diode_forward_clamp(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(5.0))
        net.add_diode("D1", "a", "k", v_f=0.7, r_series=1.0)
        net.add_resistor("RL", "k", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        i = (5.0 - 0.7) / (1e3 + 1.0)
        assert tr.voltage("k")[-1] == pytest.approx(i * 1e3, rel=1e-6)

    def test_diode_blocks_below_vf_and_reverse(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(0.5))
        net.add_diode("D1", "a", "k")
        net.add_resistor("RL", "k", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        assert np.max(np.abs(tr.currents["D1"])) < 1e-9

        net2 = Netlist()
        net2.add_source("V1", "a", "0", Dc(-10.0))
        net2.add_diode("D1", "a", "k", v_z=15.0)
        net2.add_resistor("RL", "k", "0", 1e3)
        tr2 = transient(net2, 1e-6, 10e-9)
        assert np.max(np.abs(tr2.currents["D1"])) < 1e-9

    def test_zener_breakdown(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(-20.0))
        net.add_diode("D1", "a", "k", v_z=15.0, r_series=1.0)
        net.add_resistor("RL", "k", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        i = (-20.0 + 15.0) / (1e3 + 1.0)
        assert tr.currents["D1"][-1] == pytest.approx(i, rel=1e-6)

    def test_peak_detector_knee_tie_converges(self):
        # r_series*C << dt: the capacitor reaches the knee within a few steps
        # and rounding then flips the diode between forward and off
        net = Netlist()
        net.add_source("VIN", "in", "0", Pulse(0.0, 1.0, 0.0, 1e-6, 2e-6))
        net.add_diode("D1", "in", "out", v_f=0.5, v_z=2.0, r_series=1.0)
        net.add_capacitor("C1", "out", "0", 4.8308e-9)
        tr = transient(net, 3e-6, 50e-9)
        assert tr.voltage("out")[-1] == pytest.approx(0.5, abs=1e-9)
        assert np.max(np.abs(tr.currents["D1"] - tr.currents["C1"])[1:]) <= 1e-12

    def test_comparator_rails_and_bounds(self):
        net = Netlist()
        net.add_source("VP", "p", "0", Dc(1.0))
        net.add_source("VN", "n", "0", Dc(0.5))
        net.add_comparator("CMP1", "p", "n", "out", v_out_high=5.0, v_out_low=0.0)
        net.add_resistor("RL", "out", "0", 1e4)
        tr = transient(net, 1e-6, 10e-9)
        v = tr.voltage("out")
        assert np.all(v >= -1e-12) and np.all(v <= 5.0 + 1e-12)
        assert v[-1] == pytest.approx(5.0 * 1e4 / (1e4 + 50.0), rel=1e-9)

    def test_comparator_feedback_does_not_converge(self):
        # inverting self-feedback has no consistent segment assignment
        net = Netlist()
        net.add_source("VREF", "ref", "0", Dc(2.5))
        net.add_comparator("CMP1", "ref", "out", "out")
        net.add_resistor("RL", "out", "0", 1e4)
        with pytest.raises(ConvergenceError) as err:
            transient(net, 1e-6, 10e-9)
        assert err.value.step >= 0
        assert "CMP1" in str(err.value)

    def test_convergence_error_names_the_segment_cycle(self):
        # high output lifts `in` above ref, which drives the output low,
        # which drops `in` below ref: a cycle of two segment sets
        net = Netlist()
        net.add_source("VREF", "ref", "0", Dc(2.5))
        net.add_comparator("CMP1", "ref", "in", "out")
        net.add_resistor("RF", "out", "in", 1e3)
        net.add_resistor("RG", "in", "0", 1e4)
        with pytest.raises(ConvergenceError, match=r"at step 0 .*a cycle of 2 segment sets switches CMP1; "
                                                   r"last flip: CMP1") as err:
            transient(net, 1e-6, 10e-9)
        assert (err.value.cycle_length, err.value.cycle_elements, err.value.element) == (2, ("CMP1",), "CMP1")

    @pytest.mark.parametrize("stages", [18, 24])
    def test_a_long_comparator_chain_settles(self, stages):
        # each solve re-selects one stage, so the step where the ramp
        # crosses the reference needs a solve per stage; 17 stages were the
        # most a fixed budget of 18 solves let settle
        net = Netlist()
        net.add_source("VIN", "n0", "0", PiecewiseLinear(((0.0, 0.0), (1e-6, 5.0))))
        net.add_source("VREF", "ref", "0", Dc(2.5))
        for k in range(1, stages + 1):
            net.add_comparator(f"CMP{k}", f"n{k - 1}", "ref", f"n{k}")
            net.add_resistor(f"RL{k}", f"n{k}", "0", 1e3)
        v = transient(net, 2e-6, 50e-9).voltage(f"n{stages}")
        assert v[0] == pytest.approx(0.0, abs=1e-9)
        assert v[-1] == pytest.approx(5.0 * 1e3 / (1e3 + 50.0), rel=1e-12)

    def test_ots_leak_path(self):
        p = default_params()
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_ots("OTS1", "a", "m", p)
        net.add_resistor("RL", "m", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        # below threshold: pure off-state leakage through g_off
        assert tr.currents["OTS1"][-1] == pytest.approx(1.0 * p.g_off, rel=1e-3)


class TestElementCurrents:
    """`Trace.currents` follows the netlist's element order, and each current
    is its element's law evaluated on the recorded voltages."""

    @staticmethod
    def every_kind() -> Netlist:
        """One netlist with every element kind, whose diode conducts both
        ways, whose OTS turns on and whose comparator switches."""
        net = Netlist()
        net.add_source("V1", "in", "0", PiecewiseLinear(((0.0, 0.0), (1e-6, 6.0), (2e-6, 6.0), (3e-6, -6.0),
                                                         (4e-6, 0.0))))
        net.add_capacitor("C1", "a", "0", 100e-12, ic=0.2)
        net.add_diode("D1", "in", "a", v_z=2.0)
        net.add_resistor("R1", "a", "0", 1e3)
        net.add_ots("OTS1", "a", "b", default_params())
        net.add_comparator("CMP1", "b", "ref", "out")
        net.add_source("V2", "ref", "0", Dc(0.3))
        net.add_resistor("R2", "b", "0", 500.0)
        net.add_resistor("R3", "out", "0", 1e3)
        net.add_resistor("R4", "ref", "0", 1e3)
        return net

    def test_currents_follow_the_element_order_and_laws(self):
        p = default_params()
        net = self.every_kind()
        dt = 10e-9
        tr = transient(net, 4e-6, dt)
        assert list(tr.currents) == [el.name for el in net.elements]

        def v(name):
            a, b = net.element(name).terminals[:2]
            return tr.voltages[:, a] - tr.voltages[:, b]

        expect = {}
        vd = v("D1")
        assert (vd > 0.7).any() and (vd < -2.0).any()  # both conducting segments are exercised
        expect["D1"] = np.where(vd > 0.7, vd - 0.7, np.where(vd < -2.0, vd + 2.0, 0.0))  # r_series = 1
        # a sample is solved in the phase the step before it left; sample 0 is off
        on = np.concatenate(([False], tr.ots_on["OTS1"][:-1]))
        assert on.any() and not on.all()
        expect["OTS1"] = [ots_current(p, OtsState(bool(o)), float(x)) for o, x in zip(on, v("OTS1"))]
        high = tr.voltage("b") > tr.voltage("ref")
        assert high.any() and not high.all()
        expect["CMP1"] = (np.where(high, 5.0, 0.0) - tr.voltage("out")) / 50.0
        vc = v("C1")
        g = 100e-12 / dt
        expect["C1"] = np.concatenate(([engine._PIN * g * (vc[0] - 0.2)], g * np.diff(vc)))
        for name, ohms in (("R1", 1e3), ("R2", 500.0), ("R3", 1e3), ("R4", 1e3)):
            expect[name] = v(name) / ohms
        # the source currents close KCL at their nodes; comparator inputs draw none
        expect["V1"] = -expect["D1"]
        expect["V2"] = -expect["R4"]
        for name, want in expect.items():
            np.testing.assert_allclose(tr.currents[name], want, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_names_length_and_membership_compute_no_current(self, monkeypatch):
        net = self.every_kind()
        tr = transient(net, 4e-6, 10e-9)
        computed = []
        current = engine._Currents._current
        monkeypatch.setattr(engine._Currents, "_current", lambda self, el, col: computed.append(el.name)
                            or current(self, el, col))
        names = [el.name for el in net.elements]
        assert isinstance(tr.currents, Mapping)
        assert list(tr.currents) == list(tr.currents.keys()) == names
        assert len(tr.currents) == len(names)
        assert all(name in tr.currents for name in names)
        assert "a" not in tr.currents and "X9" not in tr.currents and 0 not in tr.currents
        assert computed == []
        with pytest.raises(KeyError, match="X9"):
            tr.currents["X9"]
        with pytest.raises(TypeError):
            tr.currents["R1"] = np.zeros(len(tr.times))
        assert computed == []

    def test_a_current_is_computed_once_on_its_first_read(self, monkeypatch):
        net = self.every_kind()
        tr = transient(net, 4e-6, 10e-9)
        calls = []
        ots_currents = engine.ots_currents
        monkeypatch.setattr(engine, "ots_currents", lambda *args: calls.append(args) or ots_currents(*args))
        resistor = tr.currents["R1"]
        assert calls == []  # a resistor's current computes no OTS current
        assert tr.currents["R1"] is resistor
        ots = tr.currents["OTS1"]
        assert len(calls) == 1 and tr.currents["OTS1"] is ots
        assert [tr.currents[name] is i for name, i in tr.currents.items()] == [True] * len(net.elements)
        assert len(calls) == 1
        # the source currents are views of the solution record, the rest arrays of their own
        assert [np.shares_memory(tr.currents[name], tr.voltages.base) for name in tr.currents] == [
            el.name.startswith("V") for el in net.elements]


class TestValidation:
    def test_floating_node_rejected(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_resistor("R1", "a", "0", 1e3)
        net.add_resistor("R2", "x", "y", 1e3)  # disconnected island
        with pytest.raises(NetlistError, match="floating"):
            transient(net, 1e-6, 10e-9)

    def test_comparator_input_only_node_is_floating(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_resistor("R1", "a", "0", 1e3)
        net.add_comparator("CMP1", "probe", "a", "out")
        net.add_resistor("RL", "out", "0", 1e3)
        with pytest.raises(NetlistError, match="probe"):
            transient(net, 1e-6, 10e-9)

    def test_bad_timestep(self):
        with pytest.raises(ValueError, match=r"^transient: dt must be positive, got -1e-08$"):
            transient(rc_lowpass(), 1e-6, -10e-9)
        with pytest.raises(ValueError, match=r"^transient: dt must be positive, got 0\.0$"):
            transient(rc_lowpass(), 1e-6, 0.0)
        with pytest.raises(ValueError, match=r"^transient: t_stop must be at least dt = 1e-08, got 1e-09$"):
            transient(rc_lowpass(), 1e-9, 10e-9)

    @pytest.mark.parametrize("t_stop", [1.06e-6, 1.04e-6])
    def test_t_stop_off_the_step_grid(self, t_stop):
        # rounding would run 1.06 us to 1.1 us and stop 1.04 us at 1.0 us
        with pytest.raises(ValueError, match=rf"^transient: t_stop must be a whole number of steps of dt = 1e-07, "
                                             rf"got {t_stop!r}$"):
            transient(rc_lowpass(), t_stop, 1e-7)

    def test_t_stop_on_the_grid_up_to_rounding(self):
        # 30e-9 / 10e-9 is 2.9999999999999996, three steps within the tolerance
        assert len(transient(rc_lowpass(), 30e-9, 10e-9).times) == 4

    @pytest.mark.parametrize("make, message", [
        (lambda: Resistor("R1", 0.0), "R1: ohms must be positive, got 0.0"),
        (lambda: Resistor("R1", -1e3), "R1: ohms must be positive, got -1000.0"),
        (lambda: Capacitor("C1", 0.0), "C1: farads must be positive, got 0.0"),
        (lambda: Diode("D1", v_f=0.0), "D1: v_f must be positive, got 0.0"),
        (lambda: Diode("D1", v_z=-5.0), "D1: v_z must be positive, got -5.0"),
        (lambda: Diode("D1", r_series=0.0), "D1: r_series must be positive, got 0.0"),
        (lambda: Comparator("CMP1", r_out=-50.0), "CMP1: r_out must be positive, got -50.0"),
        (lambda: Comparator("CMP1", v_out_high=1.0, v_out_low=1.0),
         "CMP1: v_out_high must exceed v_out_low = 1.0, got 1.0"),
        (lambda: Comparator("CMP1", v_out_low=5.5), "CMP1: v_out_high must exceed v_out_low = 5.5, got 5.0"),
    ])
    def test_an_element_value_out_of_range_names_the_element(self, make, message):
        with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
            make()

    def test_an_unknown_element_name_is_named(self):
        with pytest.raises(NetlistError, match=r"^no element named 'R9'$"):
            rc_lowpass().element("R9")

    @pytest.mark.parametrize("node", [True, False, np.True_], ids=["True", "False", "np.True_"])
    def test_bool_node_rejected(self, node):
        net = Netlist()
        with pytest.raises(NetlistError, match=rf"^node {node!r} is a bool, not a node name or index$"):
            net.add_resistor("R1", node, "0", 1e3)
        assert net.elements == [] and net.node_names == ["0"]

    @pytest.mark.parametrize("index", [1, np.int64(1), np.uint8(1)], ids=["int", "int64", "uint8"])
    def test_any_integer_is_a_node_index(self, index):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        el = net.add_resistor("R1", index, 0, 1e3)
        assert el.terminals == (1, 0) and all(type(t) is int for t in el.terminals)
        assert net.node_names == ["0", "a"]

    @pytest.mark.parametrize("index", [2, np.int64(-1)], ids=["int", "int64"])
    def test_node_index_out_of_range(self, index):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        with pytest.raises(NetlistError, match=rf"^unknown node index {int(index)}$"):
            net.add_resistor("R1", index, "0", 1e3)
        assert net.node_names == ["0", "a"]

    def test_duplicate_element_name(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError):
            net.add_resistor("R1", "a", "0", 2.0)

    ADDS = {
        "resistor": lambda net, name: net.add_resistor(name, "a", "0", 1e3),
        "capacitor": lambda net, name: net.add_capacitor(name, "a", "0", 1e-9),
        "source": lambda net, name: net.add_source(name, "a", "0", Dc(1.0)),
        "diode": lambda net, name: net.add_diode(name, "a", "0"),
        "ots": lambda net, name: net.add_ots(name, "a", "0", default_params()),
        "comparator": lambda net, name: net.add_comparator(name, "a", "0", "o"),
    }

    @pytest.mark.parametrize("first", ADDS)
    @pytest.mark.parametrize("again", ADDS)
    def test_every_add_refuses_a_repeated_name_naming_it(self, first, again):
        net = Netlist()
        self.ADDS["resistor"](net, "R0")
        self.ADDS[first](net, "X1")
        with pytest.raises(NetlistError, match=r"^duplicate element name 'X1'$"):
            self.ADDS[again](net, "X1")
        assert [el.name for el in net.elements] == ["R0", "X1"]
        self.ADDS[again](net, "X2")
        assert [el.name for el in net.elements] == ["R0", "X1", "X2"]

    def test_a_refused_add_leaves_its_name_free(self):
        net = Netlist()
        with pytest.raises(NetlistError, match="bool"):
            net.add_resistor("R1", True, "0", 1e3)
        with pytest.raises(NetlistError, match="ohms"):
            net.add_resistor("R1", "a", "0", -1e3)
        net.add_resistor("R1", "a", "0", 1e3)
        assert [el.name for el in net.elements] == ["R1"]


def _raised(make):
    """A refusal that `make` raises as a ValueError, as its message."""
    def refusal(tmp_path, capsys) -> str:
        with pytest.raises(ValueError) as exc:
            make()
        return str(exc.value)
    return refusal


def _cli_refused(*argv):
    """A refusal of ``otsim ARGV`` at dt_device = 50 ns, which must exit 2
    and write nothing, as its error line."""
    def refusal(tmp_path, capsys) -> str:
        out = tmp_path / "out.csv"
        assert main([*argv, "--set", "dt_device=50n", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        return capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
    return refusal


class TestStepCount:
    """`step_count`, the one time-grid rule of every run and setting."""

    class Refused(ValueError):
        pass

    dt_ns = st.sampled_from([10, 12.5, 25, 50, 100])  # steps in ns

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 10**6), dt_ns=dt_ns)
    @example(k=3, dt_ns=10)    # 30e-9 / 10e-9 is 2.9999999999999996
    @example(k=100, dt_ns=50)  # 5e-6 / 50e-9 is 100.00000000000001
    def test_a_whole_number_of_steps_gives_its_count(self, k, dt_ns):
        # the span both as the product k * dt and as the decimal k * dt_ns ns
        # written out, as a setting or a flag gives it
        dt = float(f"{dt_ns}e-9")
        for span in (k * dt, float(f"{k * dt_ns}e-9")):
            assert step_count("Clock", "window", span, "tick", dt) == k

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 10**6), dt_ns=dt_ns)
    def test_a_half_step_off_the_grid_is_refused_naming_both_fields(self, k, dt_ns):
        dt = float(f"{dt_ns}e-9")
        span = (k + 0.5) * dt
        with pytest.raises(self.Refused, match=rf"^Clock: window must be a whole number of steps of tick = "
                                               rf"{re.escape(repr(dt))}, got {re.escape(repr(span))}$"):
            step_count("Clock", "window", span, "tick", dt, self.Refused)

    @settings(max_examples=300, deadline=None)
    @given(frac=st.floats(-1e6, 1.0, exclude_max=True), dt_ns=dt_ns)
    def test_a_span_below_dt_is_refused_naming_both_fields(self, frac, dt_ns):
        dt = float(f"{dt_ns}e-9")
        span = frac * dt
        assume(span < dt)
        with pytest.raises(self.Refused, match=rf"^Clock: window must be at least tick = {re.escape(repr(dt))}, "
                                               rf"got {re.escape(repr(span))}$"):
            step_count("Clock", "window", span, "tick", dt, self.Refused)

    @pytest.mark.parametrize("span, dt, message", [
        (math.nan, 1e-8, "window must be finite, got nan"),
        (1e-6, math.inf, "tick must be finite, got inf"),
        (1e-6, 0.0, "tick must be positive, got 0.0"),
        (1e-6, -1e-8, "tick must be positive, got -1e-08"),
    ])
    def test_a_non_finite_value_or_a_step_not_positive_is_refused(self, span, dt, message):
        with pytest.raises(ValueError, match=f"^Clock: {re.escape(message)}$"):
            step_count("Clock", "window", span, "tick", dt)

    # a span of 2000.5 steps, refused by every owner under the names it
    # gives its span and its step
    @pytest.mark.parametrize("refusal, message", [
        (_raised(lambda: transient(rc_lowpass(), 100.025e-6, 50e-9)),
         "transient: t_stop must be a whole number of steps of dt = 5e-08, got 0.000100025"),
        (_raised(lambda: StreamSettings(dt=PULSE_WIDTH / 2000.5)),
         "StreamSettings: PULSE_WIDTH must be a whole number of steps of dt = 2.4993751562109475e-09, got 5e-06"),
        (_raised(lambda: RunConfig(gradient_window=100.025e-6)),
         "gradient_window = 0.000100025: RunConfig: gradient_window must be a whole number of steps of "
         "dt_logic = 5e-08, got 0.000100025"),
        (_cli_refused("oscillate", "--duration", "100.025u"),
         "otsim oscillate: --duration must be a whole number of steps of dt_device = 5e-08, got 0.000100025"),
        (_cli_refused("iv", "--rise", "50u", "--fall", "50.025u"),
         f"otsim iv: the ramp (--rise plus --fall) must be a whole number of steps of dt_device = 5e-08, "
         f"got {50e-6 + 50.025e-6!r}"),
    ], ids=["transient", "StreamSettings", "RunConfig", "otsim_oscillate", "otsim_iv"])
    def test_every_owner_refuses_an_off_grid_span_under_its_own_names(self, refusal, message, tmp_path, capsys):
        assert refusal(tmp_path, capsys) == message


class TestStepZeroSolve:
    """The step-0 system pins every capacitor with a companion 1e6 times
    stiffer than the later steps' one; it must still solve where its pivots
    span many decades, and an exactly singular system must still raise."""

    @staticmethod
    def stiff_net(farads):
        net = Netlist()
        net.add_source("V1", "in", "0", Dc(1.0))
        net.add_resistor("R1", "in", "a", 1e3)
        net.add_capacitor("C1", "a", "0", farads)
        net.add_ots("OTS1", "a", "x", default_params())
        net.add_resistor("R2", "x", "0", 1e9)
        return net

    @pytest.mark.parametrize("farads, dt, v_end", [
        (100e-9, 10e-9, "0x1.dc20196c85fb5p-10"),
        (1e-6, 1e-9, "0x1.31097f996111bp-16"),
    ])
    def test_stiff_pinned_system_solves(self, farads, dt, v_end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = transient(self.stiff_net(farads), 20 * dt, dt)
        assert len(tr.times) == 21
        assert tr.voltage("x")[-1].hex() == v_end

    def test_pinned_system_does_not_stand_in_for_a_later_step(self):
        # with no capacitor the pinned matrix and the later one hold the same
        # bytes; their pivots span more than 14 decades, which only the
        # steps after step 0 refuse
        net = Netlist()
        net.add_source("V1", "in", "0", Dc(1.0))
        net.add_resistor("R1", "in", "a", 1e-3)
        net.add_resistor("R2", "a", "b", 1e12)
        net.add_resistor("R3", "b", "0", 1e12)
        with pytest.raises(SingularSystemError, match=r"^singular system matrix; node 'b' has no defined voltage$"):
            transient(net, 1e-6, 10e-9)

    def test_parallel_sources_singular(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_source("V2", "a", "0", Dc(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError):
                transient(net, 1e-6, 10e-9)

    def test_source_loop_names_the_source_and_its_node(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_source("V2", "a", "0", Dc(2.0))
        with pytest.raises(SingularSystemError, match=r"voltage source 'V1' on node 'a' has no defined current") as err:
            transient(net, 1e-6, 10e-9)
        assert (err.value.source, err.value.node) == ("V1", "a")


class TestNonFiniteRejected:
    """Non-finite element and waveform values fail at construction, with an
    error naming the element or the offending field."""

    def test_resistor(self):
        with pytest.raises(NetlistError, match="R1: ohms must be finite"):
            Netlist().add_resistor("R1", "a", "0", math.nan)

    def test_capacitor(self):
        with pytest.raises(NetlistError, match="C1: farads must be finite"):
            Netlist().add_capacitor("C1", "a", "0", math.inf)
        with pytest.raises(NetlistError, match="C1: ic must be finite"):
            Netlist().add_capacitor("C1", "a", "0", 1e-9, ic=math.nan)

    def test_diode(self):
        with pytest.raises(NetlistError, match="D1: r_series must be finite"):
            Netlist().add_diode("D1", "a", "0", r_series=math.nan)

    def test_comparator(self):
        with pytest.raises(NetlistError, match="CMP1: v_out_low must be finite"):
            Netlist().add_comparator("CMP1", "a", "b", "out", v_out_low=-math.inf)

    def test_dc(self):
        with pytest.raises(ValueError, match="Dc: value must be finite"):
            Dc(math.nan)

    def test_piecewise_linear(self):
        with pytest.raises(ValueError, match="PWL breakpoint 1: volts must be finite"):
            PiecewiseLinear(((0.0, 0.0), (1e-6, math.nan)))

    def test_pulse(self):
        with pytest.raises(ValueError, match="Pulse: v_high must be finite"):
            Pulse(0.0, math.inf)

    def test_triangle(self):
        with pytest.raises(ValueError, match="Triangle: v_peak must be finite"):
            Triangle(math.nan, 1e-6, 1e-6)

    @pytest.mark.parametrize("t_stop, dt, field", [(math.nan, 10e-9, "t_stop"), (1e-6, math.inf, "dt")])
    def test_transient_times(self, t_stop, dt, field):
        with pytest.raises(ValueError, match=f"transient: {field} must be finite"):
            transient(rc_lowpass(), t_stop, dt)

    def test_residual_gate_catches_nan(self):
        net = rc_lowpass()
        with pytest.raises(SimulationError, match="nodal residual nan"):
            transient(net, 1e-6, 10e-9, sources={"VIN": lambda t: math.nan})

    @pytest.mark.parametrize("net", [rc_lowpass(), measurement_netlist(4.0)], ids=["rc", "ots_rig"])
    def test_residual_gate_names_first_nan_step(self, net):
        # on the rig the NaN also reaches ots_step, whose error must not hide the residual one
        def late_nan(t):
            return np.where(t >= 0.5e-6, math.nan, 4.0)

        with pytest.raises(SimulationError, match=r"nodal residual nan A exceeds 1e-09 A at step 50$"):
            transient(net, 1e-6, 10e-9, sources={"VIN": late_nan})

    def test_a_pinned_capacitor_passes_the_residual_gate_at_step_0(self):
        # step 0 pins the capacitor with a companion of 1e6 * C / dt, so the
        # node row holds terms near 2.5e7 A, one ulp of which (3.7e-9 A) is
        # above the 1e-9 A bound; the componentwise backward error is not
        net = Netlist()
        net.add_source("V1", "in", "0", Dc(1.0))
        net.add_resistor("R1", "in", "a", 1e3)
        net.add_capacitor("C1", "a", "0", 10e-9, ic=2.5)
        tr = transient(net, 20e-9, 1e-9)
        assert tr.voltage("a")[0] == pytest.approx(2.5, abs=1e-6)
        assert tr.kcl_residual > engine._RESIDUAL_TOL

    def test_random_rcs_are_exact_backward_euler_steps(self):
        # 120 seeded single RCs, each checked sample by sample against the
        # exact rational backward-Euler step from the engine's previous
        # sample (at sample 0, the exact pinned step 0), on the engine's own
        # conductances; every run passes the residual gate
        rng = random.Random(3)
        worst = Fraction(0)
        for _ in range(120):
            ohms = rng.choice((10.0, 1e3, 1e4))
            farads = rng.choice((1e-9, 10e-9, 100e-9, 1e-6))
            dt = rng.choice((1e-9, 10e-9, 50e-9))
            ic = rng.randrange(50) / 10
            v = rng.choice((1.0, 5.0))
            net = Netlist()
            net.add_source("V1", "in", "0", Dc(v))
            net.add_resistor("R1", "in", "a", ohms)
            net.add_capacitor("C1", "a", "0", farads, ic=ic)
            va = transient(net, 20 * dt, dt).voltage("a").tolist()
            g, gc = Fraction(1.0 / ohms), Fraction(farads / dt)
            gp = Fraction(engine._PIN) * gc
            prev = [Fraction(x) for x in [ic, *va[:-1]]]
            for k, (x, xp) in enumerate(zip(va, prev)):
                cap = gp if k == 0 else gc
                worst = max(worst, abs(Fraction(x) - (g * Fraction(v) + cap * xp) / (g + cap)))
        assert worst <= Fraction(1e-14)

    def test_residual_failure_stops_within_one_batch(self):
        calls = []

        def late_nan(t):
            calls.extend(t)
            return np.where(t >= 0.5e-6, math.nan, 1.0)

        with pytest.raises(SimulationError, match=r"at step 50$"):
            transient(rc_lowpass(), 1e-3, 10e-9, sources={"VIN": late_nan})
        assert len(calls) <= 4096  # one residual batch; a run to t_stop takes 100,001


class TestDriveSampling:
    """A time-varying drive is called once per residual batch, on the
    sample times of that batch, never further ahead."""

    def test_one_call_per_batch(self):
        sizes = []

        def ramp(t):
            sizes.append(len(t))
            return t * 1e6

        tr = transient(rc_lowpass(), 100e-6, 10e-9, sources={"VIN": ramp})
        assert len(tr.times) == 10001
        assert sizes == [4096, 4096, 1809]
        assert np.array_equal(tr.voltage("in"), tr.times * 1e6)

    def test_scalar_drive_broadcasts(self):
        tr = transient(rc_lowpass(), 1e-6, 10e-9, sources={"VIN": lambda t: 2.0})
        ref = transient(rc_lowpass(v=2.0), 1e-6, 10e-9)
        assert np.array_equal(tr.voltages, ref.voltages)

    def test_wrong_sample_count_names_the_source(self):
        with pytest.raises(ValueError, match=r"^source 'VIN': 3 values for 4096 sample times$"):
            transient(rc_lowpass(), 100e-6, 10e-9, sources={"VIN": lambda t: np.zeros(3)})


class TestSolveCounts:
    """A step after an OTS flip starts its segment iteration from the set
    that the last step starting from the same segment set accepted, so the
    full adder, whose flips ripple through comparator chains, solves about
    once per step (40,820 solves for 14,009 solved steps from the start set
    every time)."""

    @pytest.mark.parametrize("kind, count", [(GateKind.FULL_ADDER, 14538), (GateKind.DCAAP_CASCADE, 14267)],
                             ids=["fulladder", "dcaap"])
    def test_truth_table_solves(self, solves, kind, count):
        truth_table(kind)
        assert solves.count == count

    @pytest.mark.parametrize("kind", [GateKind.XOR, GateKind.AND], ids=["xor", "and"])
    def test_one_solve_per_solved_step(self, solves, kind):
        rows = truth_table(kind, keep_traces=True).rows
        assert solves.count == sum(row.trace.solved_steps for row in rows)


class TestSourceOverride:
    def test_override_matches_rebuilt_netlist(self):
        spec = Pulse(0.0, 2.0, 0.2e-6, 0.3e-6, 0.6e-6)
        tr = transient(rc_lowpass(), 2e-6, 10e-9, sources={"VIN": spec})
        net = Netlist()
        net.add_source("VIN", "in", "0", spec)
        net.add_resistor("R1", "in", "out", 1e3)
        net.add_capacitor("C1", "out", "0", 1e-9)
        ref = transient(net, 2e-6, 10e-9)
        assert np.array_equal(tr.voltages, ref.voltages)
        for name in ref.currents:
            assert np.array_equal(tr.currents[name], ref.currents[name])

    def test_unknown_source_rejected(self):
        with pytest.raises(NetlistError, match="'R1'"):
            transient(rc_lowpass(), 1e-6, 10e-9, sources={"R1": Dc(1.0)})


class TestSpikes:
    def test_flat_trace_no_spikes(self):
        tr = transient(rc_lowpass(v=0.0), 2e-6, 10e-9)
        st = extract_spikes(tr, "out", 0.5, 1e-7)
        assert st.count == 0
        assert firing_rate(st) == 0.0

    def test_three_pulses_three_spikes(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Pulse(0.0, 2.0, 1e-6, 1e-6, 3e-6, 3))
        net.add_resistor("R1", "a", "0", 1e3)
        tr = transient(net, 12e-6, 10e-9)
        st = extract_spikes(tr, "a", 1.0, 1e-7)
        assert st.count == 3
        for k, t_expect in enumerate((1e-6, 4e-6, 7e-6)):
            assert st.spike_times[k] == pytest.approx(t_expect, abs=3e-8)

    @pytest.mark.parametrize("times", [(1e-6, 1e-6), (2e-6, 1e-6, 3e-6)])
    def test_spike_times_must_increase(self, times):
        with pytest.raises(ValueError, match=r"^SpikeTrain: spike_times\[1\] must exceed spike_times\[0\] = "
                                             r"[0-9.e-]+, got 1e-06$"):
            SpikeTrain(times, 0.5, (0.0, 1e-5))

    @pytest.mark.parametrize("window", [(1e-5, 1e-5), (2e-5, 1e-5)])
    def test_firing_rate_needs_a_positive_window(self, window):
        with pytest.raises(ValueError, match=rf"^firing_rate: window must be of positive length, "
                                             rf"got \({window[0]!r}, {window[1]!r}\)$"):
            firing_rate(SpikeTrain((), 0.5, window))

    def test_firing_rate_arithmetic(self):
        st = SpikeTrain(tuple(i * 10e-6 for i in range(10)), 1.0, (0.0, 100e-6))
        assert firing_rate(st) == pytest.approx(1e5)

    def test_refractory_requires_two_samples(self):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        with pytest.raises(ValueError, match=r"^extract_spikes: refractory must be at least 2\*dt = 2e-08 s, got 1e-09$"):
            extract_spikes(tr, "out", 0.5, 1e-9)

    def test_refractory_merges_close_events(self):
        t = np.arange(0.0, 10e-6, 10e-9)
        v = np.zeros_like(t)
        for t0 in (1e-6, 1.1e-6, 5e-6):
            v[(t >= t0) & (t < t0 + 50e-9)] = 2.0
        spikes = count_crossings(t, v, 1.0, 0.5e-6)
        assert len(spikes) == 2

    def test_unknown_node(self):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        with pytest.raises(IndexError):
            extract_spikes(tr, "nope", 0.5, 1e-7)


class TestNodeIndex:
    @pytest.mark.parametrize("node", [True, False, np.True_], ids=["True", "False", "np.True_"])
    def test_bool_is_rejected(self, node):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        with pytest.raises(TypeError, match=rf"^node {node!r} is a bool, not a node name or index$"):
            tr.voltage(node)

    @pytest.mark.parametrize("index", [2, np.int64(2), np.uint8(2)], ids=["int", "int64", "uint8"])
    def test_any_integer_index(self, index):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        assert tr.node_index(index) == 2
        assert np.array_equal(tr.voltage(index), tr.voltage("out"))

    def test_index_out_of_range(self):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        with pytest.raises(IndexError, match=r"^node index 3 out of range$"):
            tr.voltage(np.int64(3))


class TestTraceExport:
    def test_csv_header_and_shape(self, tmp_path):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        path = tmp_path / "trace.csv"
        tr.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,in,out,VIN,R1,C1"
        assert len(lines) == 1 + len(tr.times)

    def test_dynamic_iv_requires_triangle(self):
        from otsim import dynamic_iv
        from otsim.rig import measurement_netlist

        with pytest.raises(ValueError):
            dynamic_iv(measurement_netlist(0.0), Dc(1.0), "OTS1")

    def test_dynamic_iv_single_ots_precondition(self):
        from otsim import dynamic_iv

        net = Netlist()
        net.add_source("V1", "a", "0", Dc(0.0))
        net.add_resistor("R1", "a", "0", 1e3)
        with pytest.raises(NetlistError, match=r"^dynamic_iv needs exactly one OTS, found 0$"):
            dynamic_iv(net, Triangle(1.0, 1e-6, 1e-6), "OTS1")

    def test_dynamic_iv_names_an_unknown_ots(self):
        from otsim import dynamic_iv

        with pytest.raises(NetlistError, match=r"^no OTS named 'OTS9'$"):
            dynamic_iv(measurement_netlist(0.0), Triangle(1.0, 1e-6, 1e-6), "OTS9")

    def test_dynamic_iv_needs_one_input_source(self):
        from otsim import dynamic_iv

        net = measurement_netlist(0.0)
        net.add_source("V2", "mid", "0", Dc(0.0))
        with pytest.raises(NetlistError, match=r"^dynamic_iv needs exactly one input source$"):
            dynamic_iv(net, Triangle(1.0, 1e-6, 1e-6), "OTS1")
