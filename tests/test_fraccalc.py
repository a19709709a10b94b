import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracsource.fraccalc import (
    FractionalOrder,
    caputo_l1,
    l1_weights,
    linear_convolution,
    mittag_leffler,
    rl_integral,
)

INV_GAMMA_1P5 = 1.1283791670955126  # 1/Gamma(1.5)
E_HALF_AT_M1 = 0.427583576155807  # E_{1/2,1}(-1) = e * erfc(1)


class TestMittagLeffler:
    def test_reduces_to_exp(self):
        for z in np.linspace(-10.0, 1.0, 45):
            assert abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) <= 1e-12

    def test_value_at_zero(self):
        assert mittag_leffler(0.5, 1.0, 0.0) == 1.0
        assert_allclose(mittag_leffler(0.3, 0.7, 0.0), 1.0 / math.gamma(0.7), rtol=1e-14)

    def test_half_order_at_minus_one(self):
        assert abs(mittag_leffler(0.5, 1.0, -1.0) - E_HALF_AT_M1) <= 1e-13

    def test_erfc_identity_across_regimes(self):
        # from |z| < 1 to |z|^(1/alpha) = 6400, where the power series would
        # lose all digits to cancellation; erfcx(x) = exp(x^2) erfc(x) avoids
        # the overflow of the raw product
        from scipy.special import erfcx

        for x in (0.5, 3.0, 7.0, 20.0, 80.0):
            assert abs(mittag_leffler(0.5, 1.0, -x) - erfcx(x)) <= 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(-0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(2.5, 1.0, -1.0)

    def test_complete_monotonicity_surrogate(self):
        for alpha in (0.3, 0.5, 0.8):
            vals = [mittag_leffler(alpha, 1.0, -x) for x in np.linspace(0.0, 100.0, 300)]
            assert all(v > 0.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(min_value=0.2, max_value=0.95),
        st.floats(min_value=0.5, max_value=1.4),
        st.floats(min_value=-60.0, max_value=-0.1),
    )
    # beta + alpha just below 1 + alpha: a real-line integral representation
    # of E_{a,b+a} has the exponent 1/(1 + alpha - beta) = 256 there
    @example(0.75, 0.99609375, -5.0)
    @settings(max_examples=60, deadline=None)
    def test_beta_shift_identity(self, alpha, beta, z):
        # E_{a,b}(z) = z E_{a,b+a}(z) + 1/Gamma(b) ties two contour sums with
        # different beta to the closed-form 1/Gamma(b)
        from scipy.special import rgamma

        lhs = mittag_leffler(alpha, beta, z)
        rhs = z * mittag_leffler(alpha, beta + alpha, z) + float(rgamma(beta))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_frozen_reference_spot_check(self):
        # recompute a few small-|z| reference rows live with mpmath to guard
        # the frozen table against corruption
        mp = pytest.importorskip("mpmath")
        import csv
        import pathlib

        rows = []
        path = pathlib.Path(__file__).parent / "data" / "ml_reference.csv"
        with open(path) as fh:
            for row in csv.DictReader(fh):
                if -2.5 <= float(row["z"]) <= -0.5 and len(rows) < 9:
                    rows.append(row)
        assert rows
        for row in rows:
            a, b, z = float(row["alpha"]), float(row["beta"]), float(row["z"])
            with mp.workdps(40):
                s = mp.nsum(lambda k: mp.mpf(z) ** k / mp.gamma(a * k + b), [0, mp.inf])
                assert abs(float(row["value"]) - float(s)) <= 1e-15

    def test_matches_mpmath_beyond_the_frozen_table(self):
        # orders near 1 and beta up to 3.8, which ml_reference.csv does not
        # hold, against the power series in mpmath at a working precision
        # sized to its cancellation; where that would need thousands of
        # digits (alpha = 0.3, z = -20: |z|^(1/alpha) ~ 2e4), against the
        # algebraic asymptotic series, whose error is then below e^-1000
        mp = pytest.importorskip("mpmath")
        from make_ml_reference import ml_series

        worst = 0.0
        for a in (0.3, 0.8, 0.99):
            for b in (a, 1.0, 2.0, 3.8):
                for z in (-1e-8, -0.5, -3.0, -20.0):
                    if abs(z) ** (1.0 / a) < 1000.0:
                        ref = ml_series(a, b, z)
                    else:
                        with mp.workdps(40):
                            ref = -mp.fsum(
                                mp.mpf(z) ** -k * mp.rgamma(b - a * k) for k in range(1, 61)
                            )
                    worst = max(worst, abs(mittag_leffler(a, b, z) - float(ref)))
        assert worst <= 1e-12

    def test_power_series_matches_mpmath(self):
        # z >= 0 over alpha in [0.2, 1], beta in [0.2, 4] and z in [0, 10],
        # where z^k overflows before the terms fade at alpha = 0.45, z = 10;
        # every term is positive, so where one alone exceeds the largest
        # float the value is inf
        mp = pytest.importorskip("mpmath")

        def series(a, b, z, peak):
            # no cancellation, so 30 digits and a relative stop past the peak suffice
            with mp.workdps(30):
                s, k = mp.mpf(0), 0
                while True:
                    t = mp.mpf(z) ** k * mp.rgamma(a * k + b)
                    s += t
                    if k > peak and t < mp.mpf(10) ** -25 * s:
                        return float(s)
                    k += 1

        log_max = math.log(sys.float_info.max)
        for a in (0.2, 0.3, 0.45, 0.7, 1.0):
            for b in (0.2, 1.0, 2.3, 4.0):
                for z in (0.0, 0.5, 2.0, 5.0, 10.0):
                    got = mittag_leffler(a, b, z)
                    peak = int(z ** (1.0 / a) / a)  # near the largest term
                    if peak and peak * math.log(z) - math.lgamma(a * peak + b) > log_max:
                        assert got == math.inf, (a, b, z)
                    else:
                        want = series(a, b, z, peak)
                        assert abs(got - want) <= 1e-12 * want, (a, b, z, got, want)

    def test_quad_oracle_rejects_beta_off_its_kernel(self):
        mp = pytest.importorskip("mpmath")
        from make_ml_reference import ml_quad, ml_series

        with pytest.raises(ValueError, match="beta = alpha or 1"):
            ml_quad(0.302, 1.291, -10.2)
        for beta in (0.302, 1.0):
            assert mp.almosteq(ml_quad(0.302, beta, -2.0), ml_series(0.302, beta, -2.0), 1e-21)

    def test_alpha_one_matches_expm1_ratio(self):
        # E_{1,2}(z) = (e^z - 1) / z: for alpha = 1 the contour encloses the
        # pole s = z
        for z in np.linspace(-50.0, -0.1, 200):
            assert abs(mittag_leffler(1.0, 2.0, z) - math.expm1(z) / z) <= 1e-12


class TestL1Weights:
    def test_first_weights(self):
        w = l1_weights(FractionalOrder(0.5), 8)
        assert w[0] == 1.0
        assert_allclose(w[1], math.sqrt(2.0) - 1.0, rtol=1e-15)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_positive_strictly_decreasing(self, alpha):
        b = l1_weights(FractionalOrder(alpha), 200)
        assert np.all(b > 0.0)
        assert np.all(np.diff(b) < 0.0)

    def test_rejects_invalid_order(self):
        with pytest.raises(ValueError):
            FractionalOrder(1.0)
        with pytest.raises(ValueError):
            FractionalOrder(0.0)
        with pytest.raises(ValueError, match="fractional order"):
            FractionalOrder("0.3")
        with pytest.raises(ValueError):
            l1_weights(FractionalOrder(0.5), 0)
        for n_steps in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                l1_weights(FractionalOrder(0.5), n_steps)


class TestRLIntegral:
    def test_zero_function(self):
        t = np.linspace(0.0, 1.0, 51)
        assert np.all(rl_integral(0.7, np.zeros_like(t), t) == 0.0)

    def test_constant_half_order(self):
        t = np.linspace(0.0, 1.0, 101)
        out = rl_integral(0.5, np.ones_like(t), t)
        assert abs(out[-1] - INV_GAMMA_1P5) <= 1e-12

    def test_power_function(self):
        # J^0.3 t^2 (1) = 2 / Gamma(3.3); exact for piecewise-linear-exact kernel
        t = np.linspace(0.0, 1.0, 201)
        out = rl_integral(0.3, t**2, t)
        assert abs(out[-1] - 0.74531271474735909) <= 5e-6

    def test_rejects_nonpositive_order(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            rl_integral(0.0, t, t)

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.35])
        with pytest.raises(ValueError):
            rl_integral(0.5, t, t)

    def test_semigroup_property(self):
        a, b = 0.4, 0.7
        rel = {}
        for n in (100, 400):
            t = np.linspace(0.0, 1.0, n + 1)
            g = np.sin(2.0 * t) + 1.0
            lhs = rl_integral(a, rl_integral(b, g, t), t)
            rhs = rl_integral(a + b, g, t)
            rel[n] = np.max(np.abs(lhs[1:] - rhs[1:])) / np.max(np.abs(rhs))
        assert rel[100] <= 1e-3
        assert rel[400] < rel[100]


class TestLinearConvolution:
    def test_unit_kernel_is_batched_trapezoid_rule(self):
        # K = 1: the convolution is the running trapezoid integral of g; 600
        # nodes span several row blocks
        t = np.linspace(0.0, 2.0, 600)
        g = np.stack([np.sin(3.0 * t), t**2, np.ones_like(t)], axis=1).reshape(600, 3, 1)
        out = linear_convolution(t, t**2 / 2.0, g, t[1])
        cells = 0.5 * t[1] * (g[1:] + g[:-1])
        want = np.concatenate([np.zeros((1, 3, 1)), np.cumsum(cells, axis=0)])
        assert out.shape == g.shape
        assert_allclose(out, want, rtol=1e-12, atol=1e-13)
        assert_allclose(out[:, 1, 0], linear_convolution(t, t**2 / 2.0, t**2, t[1]), rtol=1e-15)
        with pytest.raises(ValueError):
            linear_convolution(t[:-1], t[:-1] ** 2 / 2.0, g, t[1])

    @pytest.mark.parametrize("stride", [1, 3, 7, 32])
    def test_stride_returns_every_stride_th_row(self, stride):
        # weakly singular K(u) = u^-1/2 / Gamma(1/2); 1000 nodes, so stride 3
        # still spans two row blocks and stride 7 does not divide the grid
        t = np.linspace(0.0, 1.0, 1000)
        m0 = t**0.5 / math.gamma(1.5)
        m1 = t**1.5 / (1.5 * math.gamma(0.5))
        g = np.stack([np.cos(5.0 * t), np.exp(-t)], axis=1)
        full = linear_convolution(m0, m1, g, t[1])
        out = linear_convolution(m0, m1, g, t[1], stride=stride)
        assert out.shape == full[::stride].shape
        assert np.max(np.abs(out - full[::stride])) <= 1e-15 * np.max(np.abs(full))
        # a float or bool stride is rejected, not used as an index or taken as 1
        for bad in (0, 1.5, True):
            with pytest.raises(ValueError):
                linear_convolution(m0, m1, g, t[1], stride=bad)


class TestCaputoL1:
    def test_constants_annihilated_exactly(self):
        t = np.linspace(0.0, 1.0, 33)
        out = caputo_l1(FractionalOrder(0.5), np.full_like(t, 3.7), t)
        assert np.all(out == 0.0)

    def test_linear_function_exact(self):
        # piecewise-linear interpolation is exact for u = t
        t = np.linspace(0.0, 1.0, 81)
        out = caputo_l1(FractionalOrder(0.5), t.copy(), t)
        expected = t[1:] ** 0.5 / math.gamma(1.5)
        assert_allclose(out[1:], expected, atol=1e-12)
        assert abs(out[-1] - INV_GAMMA_1P5) <= 1e-12

    def test_quadratic_convergence_ratio(self):
        # order 2 - alpha: error ratio between N=40 and N=80 near 2^1.7
        errs = {}
        for n in (40, 80):
            t = np.linspace(0.0, 1.0, n + 1)
            out = caputo_l1(FractionalOrder(0.3), t**2, t)
            exact = 2.0 * t**1.7 / math.gamma(2.7)
            errs[n] = np.max(np.abs(out[1:] - exact[1:]))
        ratio = errs[40] / errs[80]
        assert 2.8 <= ratio <= 3.7

    def test_round_trip_recovers_smooth_function(self):
        alpha = FractionalOrder(0.5)
        errs = []
        for n in (50, 100, 200):
            t = np.linspace(0.0, 1.0, n + 1)
            g = np.sin(t)
            recovered = caputo_l1(alpha, rl_integral(0.5, g, t), t)
            errs.append(np.max(np.abs(recovered[1:] - g[1:])))
        assert errs[0] <= 5e-3
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 0.2, 0.3])
        with pytest.raises(ValueError):
            caputo_l1(FractionalOrder(0.5), t, t)
