"""Transient-engine validation: analytic circuits, element laws, errors."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

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
from otsim.engine import SpikeTrain, count_crossings
from otsim.gates import GateKind, truth_table
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

    def test_ots_leak_path(self):
        p = default_params()
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_ots("OTS1", "a", "m", p)
        net.add_resistor("RL", "m", "0", 1e3)
        tr = transient(net, 1e-6, 10e-9)
        # below threshold: pure off-state leakage through g_off
        assert tr.currents["OTS1"][-1] == pytest.approx(1.0 * p.g_off, rel=1e-3)


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
        with pytest.raises(ValueError):
            transient(rc_lowpass(), 1e-6, 0.0)
        with pytest.raises(ValueError):
            transient(rc_lowpass(), 1e-9, 10e-9)

    def test_duplicate_element_name(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError):
            net.add_resistor("R1", "a", "0", 2.0)


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
            warnings.simplefilter("error", LinAlgWarning)
            tr = transient(self.stiff_net(farads), 20 * dt, dt)
        assert len(tr.times) == 21
        assert tr.voltage("x")[-1].hex() == v_end

    def test_parallel_sources_singular(self):
        net = Netlist()
        net.add_source("V1", "a", "0", Dc(1.0))
        net.add_source("V2", "a", "0", Dc(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
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

    @pytest.mark.parametrize("kind, solves", [(GateKind.FULL_ADDER, 14538), (GateKind.DCAAP_CASCADE, 14267)],
                             ids=["fulladder", "dcaap"])
    def test_truth_table_solves(self, monkeypatch, blas_platform, kind, solves):
        count = 0
        dgetrs = engine.dgetrs

        def counting(*args):
            nonlocal count
            count += 1
            return dgetrs(*args)

        monkeypatch.setattr(engine, "dgetrs", counting)
        truth_table(kind)
        assert count == solves, blas_platform


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

    def test_firing_rate_arithmetic(self):
        st = SpikeTrain(tuple(i * 10e-6 for i in range(10)), 1.0, (0.0, 100e-6))
        assert firing_rate(st) == pytest.approx(1e5)

    def test_refractory_requires_two_samples(self):
        tr = transient(rc_lowpass(), 1e-6, 10e-9)
        with pytest.raises(ValueError):
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
        with pytest.raises(NetlistError):
            dynamic_iv(net, Triangle(1.0, 1e-6, 1e-6), "OTS1")
