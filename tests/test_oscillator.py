"""Relaxation-oscillator behavior of the measurement rig and the dynamic
I-V characteristic, checked against closed-form oracles computed here from
first principles (independent of the simulator's integration path)."""

import math

import numpy as np
import pytest

from otsim import Triangle, default_params, dynamic_iv, rig
from otsim.device import DT_DEVICE
from otsim.rig import C_PAR, CHARGE_UP, R_BIAS, R_SERIES, measurement_netlist, rate_sweep, run_oscillator


def oracle_period(v_in: float, p) -> float:
    """Charge time through the bias resistor plus the on-state discharge
    time, from the piecewise-exponential solution of the RC node."""
    r_path = p.r_on + R_SERIES
    v_reset = p.v_hold + p.i_hold * r_path
    t_charge = R_BIAS * C_PAR * math.log((v_in - v_reset) / (v_in - p.v_th))
    # discharge: the node relaxes toward the loaded equilibrium until the
    # device current falls to the holding current
    g_d, g_on = 1.0 / R_BIAS, 1.0 / r_path
    v_eq = (v_in * g_d + p.v_hold * g_on) / (g_d + g_on)
    tau_d = C_PAR / (g_d + g_on)
    t_disc = tau_d * math.log((p.v_th - v_eq) / (v_reset - v_eq))
    return t_charge + t_disc + p.tau_on + p.tau_off


class TestOscillator:
    def test_sub_onset_bias_is_silent(self):
        p = default_params()
        res = run_oscillator(p.v_th - 0.5, 100e-6, p=p)
        assert res.spikes.count == 0

    def test_period_matches_oracle_within_15pct(self):
        p = default_params()
        for v_in in (3.6, 4.2, 5.0):
            res = run_oscillator(v_in, 300e-6, p=p)
            assert res.spikes.count >= 10
            periods = np.diff(res.spikes.spike_times)
            sim_period = float(np.mean(periods))
            assert sim_period == pytest.approx(oracle_period(v_in, p), rel=0.15)
            # periodicity: spike intervals are uniform
            assert np.ptp(periods) / sim_period < 0.05

    def test_spike_count_matches_oracle_count(self):
        p = default_params()
        v_in = 4.0
        t_oracle = oracle_period(v_in, p)
        window = 12.0 * t_oracle
        # the run ends on the step grid nearest to the end of the window
        res = run_oscillator(v_in, round((window + CHARGE_UP) / DT_DEVICE) * DT_DEVICE, p=p)
        expect = window / t_oracle
        assert abs(res.spikes.count - expect) <= 1.0 + 1e-9

    def test_rate_increases_with_bias(self):
        p = default_params()
        rows = rate_sweep((3.3, 3.8, 4.3, 4.8, 5.3), 300e-6, p=p)
        rates = [r for _, r in rows]
        assert all(r > 0 for r in rates)
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_residual_bounded_during_switching(self):
        res = run_oscillator(4.0, 100e-6)
        assert res.trace.kcl_residual < 1e-9

    @pytest.mark.parametrize("duration", [CHARGE_UP, 10e-6, -1.0, math.nan])
    def test_a_run_within_the_charge_up_is_refused_before_it_is_simulated(self, duration, monkeypatch):
        monkeypatch.setattr(rig, "transient", lambda *args: pytest.fail("simulated"))
        with pytest.raises(ValueError, match=r"^duration = .* s must exceed CHARGE_UP = 2e-05 s, the charge-up"):
            run_oscillator(4.0, duration)
        with pytest.raises(ValueError, match=r"^duration = "):
            rate_sweep((4.0,), duration)


class TestDynamicIV:
    def test_sub_threshold_ramp_is_leakage_line(self):
        p = default_params()
        net = measurement_netlist(0.0, p)
        pts = dynamic_iv(net, Triangle(0.8 * p.v_th, 50e-6, 50e-6), "OTS1")
        for v, i in pts:
            assert i == pytest.approx(p.g_off * v, abs=1e-12)

    def test_snapback_present_above_threshold(self):
        p = default_params()
        net = measurement_netlist(0.0, p)
        pts = dynamic_iv(net, Triangle(2.0 * p.v_th, 50e-6, 50e-6), "OTS1")
        snap = [
            k
            for k in range(1, len(pts))
            if pts[k][1] - pts[k - 1][1] > 1e-5 and pts[k][0] - pts[k - 1][0] < -1e-3
        ]
        assert snap, "expected a voltage snap-back at turn-on"
        v_at_snap = pts[snap[0] - 1][0]
        assert v_at_snap == pytest.approx(p.v_th, abs=0.05)

    def test_negative_ramp_mirrors(self):
        p = default_params()
        net = measurement_netlist(0.0, p)
        pos = dynamic_iv(net, Triangle(+2.0 * p.v_th, 50e-6, 50e-6), "OTS1")
        neg = dynamic_iv(net, Triangle(-2.0 * p.v_th, 50e-6, 50e-6), "OTS1")
        v_pos = np.array([v for v, _ in pos])
        v_neg = np.array([v for v, _ in neg])
        i_pos = np.array([i for _, i in pos])
        i_neg = np.array([i for _, i in neg])
        assert np.allclose(v_neg, -v_pos, atol=1e-9)
        assert np.allclose(i_neg, -i_pos, atol=1e-12)
