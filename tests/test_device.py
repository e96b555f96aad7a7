"""Device-model unit tests: conduction law, switching kinetics, defaults."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsim.device import (OFF_STATE, ON_STATE, OtsParams, OtsState, Pending, Phase, default_params, ots_current,
                          ots_hold_bound, ots_step)


def make_params(**kw):
    return default_params(**kw)


class TestCurrentLaw:
    def test_zero_input_zero_current(self):
        p = make_params()
        assert ots_current(p, OFF_STATE, 0.0) == 0.0
        assert ots_current(p, ON_STATE, 0.0) == 0.0

    def test_off_branch_is_ohmic(self):
        p = make_params(g_off=1e-8)
        assert ots_current(p, OFF_STATE, 1.0) == pytest.approx(1e-8)

    def test_on_branch_negative_polarity(self):
        # hand evaluation of the piecewise law with sign symmetry
        p = make_params(r_on=100.0, v_hold=1.0)
        assert ots_current(p, ON_STATE, -2.0) == pytest.approx(-0.01)

    def test_on_branch_dead_zone(self):
        p = make_params(v_hold=1.0)
        assert ots_current(p, ON_STATE, 0.5) == 0.0
        assert ots_current(p, ON_STATE, -0.999) == 0.0

    def test_non_finite_voltage_rejected(self):
        p = make_params()
        for v in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ots_current(p, OFF_STATE, v)
            with pytest.raises(ValueError):
                ots_step(p, OFF_STATE, v, 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(-100.0, 100.0), on=st.booleans())
    def test_odd_symmetry(self, v, on):
        p = make_params()
        s = ON_STATE if on else OFF_STATE
        assert ots_current(p, s, -v) == pytest.approx(-ots_current(p, s, v), abs=1e-18)


class TestSwitchingKinetics:
    def test_below_threshold_stays_off(self):
        p = make_params()
        s = ots_step(p, OFF_STATE, p.v_th - 0.1, 1e-9)
        assert s.phase is Phase.OFF and s.pending is None

    def test_zero_delay_switches_in_one_step(self):
        p = make_params(tau_on=0.0)
        s = ots_step(p, OFF_STATE, p.v_th + 0.1, 1e-9)
        assert s.phase is Phase.ON

    def test_turn_off_accumulates_elapsed(self):
        # |i| = i_hold/2 held for 3 steps of 4 ns against tau_off = 10 ns
        p = make_params(tau_off=10e-9)
        v = p.v_hold + 0.5 * p.i_hold * p.r_on  # on-state current = i_hold/2
        s = ON_STATE
        s = ots_step(p, s, v, 4e-9)
        assert s.phase is Phase.ON and s.pending is Pending.SWITCHING_OFF
        assert s.elapsed == pytest.approx(4e-9)
        s = ots_step(p, s, v, 4e-9)
        assert s.phase is Phase.ON and s.elapsed == pytest.approx(8e-9)
        s = ots_step(p, s, v, 4e-9)
        assert s.phase is Phase.OFF

    def test_condition_lapse_clears_pending(self):
        p = make_params(tau_on=100e-9)
        s = ots_step(p, OFF_STATE, p.v_th + 1.0, 10e-9)
        assert s.pending is Pending.SWITCHING_ON
        s = ots_step(p, s, 0.0, 10e-9)
        assert s.pending is None and s.elapsed == 0.0

    def test_hysteresis_window(self):
        # on-state persists below v_th while the current stays above i_hold
        p = make_params()
        v = p.v_th - 0.5
        assert v < p.v_th
        i = ots_current(p, ON_STATE, v)
        assert abs(i) >= p.i_hold
        s = ots_step(p, ON_STATE, v, 1e-9)
        assert s.phase is Phase.ON and s.pending is None

    def test_volatility(self):
        # holding v = 0 for tau_off always turns the device off
        p = make_params()
        s = ON_STATE
        total, dt = 0.0, 10e-9
        while total < p.tau_off:
            s = ots_step(p, s, 0.0, dt)
            total += dt
        assert s.phase is Phase.OFF

    @settings(max_examples=50, deadline=None)
    @given(
        seq=st.lists(st.tuples(st.floats(-8, 8), st.sampled_from([5e-9, 20e-9, 60e-9])), max_size=40),
    )
    def test_determinism(self, seq):
        p = make_params()
        s1 = s2 = OFF_STATE
        for v, dt in seq:
            s1 = ots_step(p, s1, v, dt)
            s2 = ots_step(p, s2, v, dt)
            assert s1 == s2

    def test_upward_sweep_switches_at_threshold(self):
        p = make_params(tau_on=0.0)
        s = OFF_STATE
        fired_at = None
        v = 0.0
        while v < p.v_th + 1.0:
            s = ots_step(p, s, v, 1e-9)
            if s.phase is Phase.ON:
                fired_at = v
                break
            v += 0.01
        assert fired_at is not None and fired_at >= p.v_th


@st.composite
def valid_params(draw):
    v_th = draw(st.floats(1e-3, 100.0))
    r_on = draw(st.floats(1e-3, 1e6))
    return OtsParams(v_th=v_th, v_hold=draw(st.floats(1e-3, 0.999)) * v_th,
                     r_on=r_on, g_off=draw(st.floats(0.0, 0.999e-3 / r_on)), i_hold=draw(st.floats(1e-9, 1.0)),
                     tau_on=draw(st.floats(0.0, 1e-3)), tau_off=draw(st.floats(0.0, 1e-3)))


@st.composite
def states(draw):
    phase = draw(st.sampled_from(Phase))
    pending = draw(st.sampled_from([None, Pending.SWITCHING_ON if phase is Phase.OFF else Pending.SWITCHING_OFF]))
    return OtsState(phase, pending, draw(st.one_of(st.just(0.0), st.floats(min_value=0.0))))


def voltages(v_th):
    """Arbitrary voltages, the thresholds +-v_th and their float neighbours,
    and the non-finite values."""
    edges = [w for u in (v_th, -v_th) for w in (u, math.nextafter(u, 0.0), math.nextafter(u, 2 * u))]
    return st.one_of(st.floats(), st.sampled_from(edges + [math.nan, math.inf, -math.inf]))


class TestHoldBound:
    @settings(max_examples=300, deadline=None)
    @given(p=valid_params(), s=states(), data=st.data(),
           dt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_below_the_bound_ots_step_returns_its_state(self, p, s, data, dt):
        v = data.draw(voltages(p.v_th))
        keeps = abs(v) < ots_hold_bound(p, s)
        try:
            out = ots_step(p, s, v, dt)
        except ValueError:
            assert not keeps
            return
        if keeps:
            assert out is s

    def test_bound_is_the_threshold_only_when_off_and_idle(self):
        p = make_params()
        assert ots_hold_bound(p, OFF_STATE) == ots_hold_bound(p, OtsState()) == p.v_th
        for s in (ON_STATE, OtsState(Phase.OFF, Pending.SWITCHING_ON, 1e-9), OtsState(Phase.OFF, None, 1e-9),
                  OtsState(Phase.ON, Pending.SWITCHING_OFF, 0.0)):
            assert ots_hold_bound(p, s) == 0.0


class TestParams:
    def test_defaults_satisfy_invariants(self):
        p = default_params()
        assert p.v_th > p.v_hold > 0
        assert p.r_on * p.g_off < 1e-3
        assert p.i_hold > 0 and p.tau_on >= 0 and p.tau_off >= 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            OtsParams(v_th=1.0, v_hold=2.0)
        with pytest.raises(ValueError):
            OtsParams(r_on=1e6, g_off=1e-3)  # contrast below three decades
        with pytest.raises(ValueError):
            OtsParams(i_hold=0.0)
        with pytest.raises(ValueError):
            OtsParams(tau_on=-1e-9)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError, match="r_on must be finite"):
            OtsParams(r_on=math.nan)
        with pytest.raises(ValueError, match="tau_off must be finite"):
            OtsParams(tau_off=math.inf)

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            OtsState(Phase.ON, Pending.SWITCHING_ON, 0.0)
        with pytest.raises(ValueError):
            OtsState(Phase.OFF, Pending.SWITCHING_OFF, 0.0)

    def test_overrides(self):
        p = default_params(v_th=3.5)
        assert p.v_th == 3.5
        assert p.v_hold == default_params().v_hold
