"""Rate-coded gradient estimation and the linear fit."""

import pytest

from otsim.pipeline import GradientSample, fit_linear, gradient_rate, sweep_gradient


class TestGradientRate:
    def test_equal_pixels_silent(self):
        s = gradient_rate(120, 120, window=200e-6)
        assert s.delta_c == 0 and s.rate == 0.0

    def test_below_floor_silent(self):
        # drive difference below the switching threshold cannot fire
        s = gradient_rate(40, 0, window=200e-6)
        assert s.rate == 0.0

    def test_above_floor_fires(self):
        s = gradient_rate(255, 0, window=400e-6)
        assert s.rate > 0.0

    def test_rate_depends_on_difference_not_level(self):
        a = gradient_rate(255, 55, window=400e-6)
        b = gradient_rate(200, 0, window=400e-6)
        assert a.delta_c == b.delta_c == 200
        assert a.rate == pytest.approx(b.rate, rel=0.10)

    def test_monotone_small_sweep(self):
        rates = [gradient_rate(d, 0, window=400e-6).rate for d in (160, 200, 240)]
        assert rates[0] < rates[1] < rates[2]

    def test_contrast_range_checked(self):
        with pytest.raises(ValueError):
            gradient_rate(300, 0)

    @pytest.mark.parametrize("delta_c", [224, 255])
    def test_rate_converges_as_dt_halves(self, delta_c):
        # backward Euler's time-step error is first order: the rate falls at
        # each halving of dt, by about half as much as at the halving before
        r50, r25, r12 = (gradient_rate(delta_c, 0, dt=dt).rate for dt in (50e-9, 25e-9, 12.5e-9))
        assert r50 > r25 > r12 > 0.0
        assert r25 - r12 < r50 - r25


class TestFitLinear:
    def test_exact_line(self):
        samples = [GradientSample(d, max(0.0, 2.0 * (d - 10.0))) for d in (0, 20, 40, 80, 160)]
        fit = fit_linear(samples)
        assert fit.slope == pytest.approx(2.0)
        assert fit.floor == pytest.approx(10.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_all_zero_rates_error(self):
        with pytest.raises(ValueError):
            fit_linear([GradientSample(d, 0.0) for d in (0, 50, 100)])

    def test_degenerate_cluster_error(self):
        with pytest.raises(ValueError):
            fit_linear([GradientSample(100, r) for r in (1.0, 2.0, 3.0)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_linear([GradientSample(100, 1.0), GradientSample(200, 2.0)])

    def test_floor_clamped_nonnegative(self):
        samples = [GradientSample(d, 100.0 + 2.0 * d) for d in (10, 20, 30)]
        fit = fit_linear(samples)
        assert fit.floor == 0.0


def test_simulated_sweep_linearity():
    # reduced sweep of the acceptance run; the full sweep lives in
    # test_acceptance
    samples = sweep_gradient([0, 64, 160, 192, 224, 255], window=500e-6)
    rates = [s.rate for s in samples]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[0] == 0.0 and rates[-1] > 0.0
    fit = fit_linear(samples)
    assert fit.r2 >= 0.95
    assert fit.floor > 0.0
