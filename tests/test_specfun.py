import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from linksec.quadrature import AccuracyError
from linksec.specfun import MellinBarnesEvaluator, meijer_g_2_1_1_2
from oracles import (
    bessel_k,
    meijer_g_1_2_2_1,
    meijer_g_2_0_0_2,
    tricomi_u_integer,
    upper_incomplete_gamma,
)

EULER_GAMMA = 0.5772156649015328606


class TestUpperIncompleteGamma:
    def test_exponential_case(self):
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_complete_value(self):
        assert upper_incomplete_gamma(3.0, 0.0) == pytest.approx(2.0, rel=1e-13)

    def test_integer_shape_closed_form(self):
        # Gamma(3, x) = e^-x (x^2 + 2x + 2)
        x = 1.5
        expected = math.exp(-x) * (x * x + 2 * x + 2)
        assert upper_incomplete_gamma(3.0, x) == pytest.approx(expected, rel=1e-12)

    def test_reduces_to_gamma_at_zero(self):
        for a in (0.5, 1.0, 2.7, 8.0):
            assert upper_incomplete_gamma(a, 0.0) == pytest.approx(
                math.exp(special.gammaln(a)), rel=1e-12
            )

    def test_quadrature_oracle(self):
        for a, x in ((2.2, 1.0), (5.0, 3.5), (0.7, 0.2)):
            oracle, _ = integrate.quad(
                lambda t: t ** (a - 1.0) * math.exp(-t), x, np.inf
            )
            assert upper_incomplete_gamma(a, x) == pytest.approx(oracle, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -0.5)


class TestBesselK:
    def test_half_order_closed_form(self):
        expected = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
        assert bessel_k(0.5, 2.0) == pytest.approx(expected, rel=1e-10)
        assert bessel_k(-0.5, 2.0) == pytest.approx(expected, rel=1e-10)

    def test_integral_representation_oracle(self):
        # K_v(x) = integral of exp(-x cosh t) cosh(v t) over t in (0, inf)
        def oracle(v, x):
            val, _ = integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(v * t), 0, 30
            )
            return val

        assert bessel_k(1.0, 1.0) == pytest.approx(oracle(1.0, 1.0), rel=1e-10)
        assert bessel_k(2.3, 0.7) == pytest.approx(oracle(2.3, 0.7), rel=1e-10)

    def test_order_symmetry_grid(self):
        for v in (0.3, 1.7, 5.5, 12.0):
            for x in (1e-3, 0.5, 2.0, 50.0):
                assert bessel_k(v, x) == pytest.approx(bessel_k(-v, x), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -1.0)

    def test_overflow_flagged(self):
        with pytest.raises(OverflowError):
            bessel_k(50.0, 1e-6)


class TestTricomiU:
    def test_base_case_matches_exponential_integral(self):
        expected = float(np.e * special.exp1(1.0))
        assert tricomi_u_integer(0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_large_argument_asymptote(self):
        oracle, _ = integrate.quad(lambda t: math.exp(-100.0 * t) / (1.0 + t), 0, np.inf)
        assert tricomi_u_integer(0, 100.0) == pytest.approx(oracle, rel=1e-10)

    def test_defining_integral_order_two(self):
        oracle, _ = integrate.quad(
            lambda t: t * t * math.exp(-t) / (1.0 + t), 0, np.inf
        )
        assert 2.0 * tricomi_u_integer(2, 1.0) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_defining_integral_grid(self, s):
        for m in range(11):
            oracle, _ = integrate.quad(
                lambda t: t ** m * math.exp(-s * t) / (1.0 + t), 0, np.inf, limit=200
            )
            value = math.factorial(m) * tricomi_u_integer(m, s)
            assert value == pytest.approx(oracle, rel=1e-8)

    def test_wide_range_against_mpmath(self):
        mpmath.mp.dps = 30
        for m in (0, 3, 15, 40, 60):
            for s in (1e-4, 0.5, 1.0, 30.0, 1e4):
                ref = float(mpmath.hyperu(m + 1, m + 1, s))
                assert tricomi_u_integer(m, s) == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tricomi_u_integer(-1, 1.0)
        with pytest.raises(ValueError):
            tricomi_u_integer(2, 0.0)


class TestMeijerG:
    def test_bessel_cross_check(self):
        # K_v(2 sqrt y) equals half of the two-parameter instance at
        # b = +-v/2, evaluated by the same contour engine.
        v, y = 0.5, 1.0
        val, err = meijer_g_2_0_0_2(y, 0.5 * v, -0.5 * v)
        assert 0.5 * val == pytest.approx(bessel_k(v, 2.0 * math.sqrt(y)), rel=1e-8)
        assert err <= 1e-6 * abs(val)

    def test_laplace_transform_consistency(self):
        # The transform of the product-of-two-gains density, assembled from
        # the contour value, must match direct quadrature.
        a_t, a_i, beta, z = 2.0, 2.0, 4.0, 1.0
        alpha = 0.5 * (a_t + a_i)
        v = a_t - a_i
        x = beta / z

        def pdf(g):
            return (
                2.0
                * beta ** alpha
                * g ** (alpha - 1.0)
                * special.kv(v, 2.0 * math.sqrt(g * beta))
                / (special.gamma(a_t) * special.gamma(a_i))
            )

        oracle, _ = integrate.quad(lambda g: math.exp(-z * g) * pdf(g), 0, np.inf)
        val, _ = meijer_g_2_1_1_2(x, 1.0 - alpha, 0.5 * v, -0.5 * v)
        factor = x ** alpha * val / (special.gamma(a_t) * special.gamma(a_i))
        assert factor == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize(
        "a_t,a_i,beta", [(2.0, 2.0, 4.0), (3.0, 2.0, 1.5), (2.5, 1.5, 0.8)]
    )
    @pytest.mark.parametrize("z", [0.3, 1.0, 6.0])
    def test_laplace_transform_grid(self, a_t, a_i, beta, z):
        alpha = 0.5 * (a_t + a_i)
        v = a_t - a_i
        x = beta / z
        norm = special.gamma(a_t) * special.gamma(a_i)

        def pdf(g):
            return (
                2.0 * beta ** alpha * g ** (alpha - 1.0)
                * special.kv(v, 2.0 * math.sqrt(g * beta)) / norm
            )

        oracle, _ = integrate.quad(
            lambda g: math.exp(-z * g) * pdf(g), 0, np.inf, limit=200
        )
        val, _ = meijer_g_2_1_1_2(x, 1.0 - alpha, 0.5 * v, -0.5 * v)
        assert x ** alpha * val / norm == pytest.approx(oracle, rel=1e-6)

    def test_small_argument_leading_residue(self):
        # For b1 = b2 = 0, a1 = -1 the double pole at s = 0 dominates as the
        # argument shrinks: G(x) ~ -ln x - euler_gamma - 1.
        x = 1e-8
        val, _ = meijer_g_2_1_1_2(x, -1.0, 0.0, 0.0)
        series = -math.log(x) - EULER_GAMMA - 1.0
        assert val == pytest.approx(series, rel=1e-5)

    def test_relay_kernel_against_defining_integral(self):
        # x^{m+1} * integral of t^m e^{-xt}/(1+t) equals the three-parameter
        # contour instance at (0, -m; 0) with argument 1/x.
        for m, rate in ((0, 1.3), (2, 0.6), (4, 2.0)):
            oracle, _ = integrate.quad(
                lambda t: t ** m * math.exp(-rate * t) / (1.0 + t), 0, np.inf
            )
            val, _ = meijer_g_1_2_2_1(1.0 / rate, 0.0, -float(m), 0.0)
            assert val == pytest.approx(rate ** (m + 1) * oracle, rel=1e-8)

    def test_no_separating_contour(self):
        with pytest.raises(ValueError):
            meijer_g_2_1_1_2(1.0, 1.0, 0.0, 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            meijer_g_2_1_1_2(0.0, -1.0, 0.0, 0.0)


class TestBatchedContour:
    @pytest.mark.parametrize("a_t,a_i", [(0.7, 0.7), (2.0, 2.0), (2.5, 1.5), (4.0, 1.0)])
    def test_batch_against_mpmath(self, a_t, a_i):
        alpha = 0.5 * (a_t + a_i)
        v = a_t - a_i
        x = np.logspace(-3, 2, 6)
        val, err = meijer_g_2_1_1_2(x, 1.0 - alpha, 0.5 * v, -0.5 * v)
        assert val.shape == err.shape == x.shape
        ref = [float(mpmath.meijerg([[1.0 - alpha], []], [[0.5 * v, -0.5 * v], []], t)) for t in x]
        np.testing.assert_allclose(val, ref, rtol=1e-9, atol=0.0)

    def test_array_equals_scalar_calls(self):
        ev = MellinBarnesEvaluator((0.0, 0.0), (-1.0,))
        x = np.logspace(-3, 3, 50)
        val, err = ev.evaluate(x)
        scalar = [ev.evaluate(float(t)) for t in x]
        assert all(isinstance(v, float) and isinstance(e, float) for v, e in scalar)
        # Rows of one block and single rows may round differently.
        np.testing.assert_allclose(val, [v for v, _ in scalar], rtol=1e-12, atol=0.0)

    def test_multi_block_equals_scalar_calls(self):
        # The narrow pole strip (0, 0.01) gives 3,112 nodes, so 84 arguments
        # fill one block of kernel values and 200 arguments span three.
        ev = MellinBarnesEvaluator((0.0, 0.0), (0.99,))
        x = np.logspace(-3, 3, 200)
        assert x.size > 2 * (ev._BLOCK_ELEMENTS // ev._t.size)
        val, err = ev.evaluate(x)
        scalar = np.array([ev.evaluate(float(t)) for t in x])
        np.testing.assert_allclose(val, scalar[:, 0], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(err, scalar[:, 1], rtol=1e-14, atol=0.0)

    def test_rejects_nonpositive_argument_in_batch(self):
        with pytest.raises(ValueError):
            meijer_g_2_1_1_2(np.array([1.0, 0.0]), -1.0, 0.0, 0.0)

    def test_unreachable_target_fails_with_bounded_memory(self):
        # A narrow pole strip (0, 0.01) makes the node spacing fine; no
        # argument can meet a target of 1e-300, which is below the rounding
        # floor.
        ev = MellinBarnesEvaluator((0.0, 0.0), (0.99,))
        x = np.logspace(-2, 2, 21)
        tracemalloc.start()
        try:
            with pytest.raises(AccuracyError) as exc_info:
                ev.evaluate(x, rel_target=1e-300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(exc_info.value.estimate)
        # About 1 MB: one 21 x 3112 block on the evaluator's single grid.
        assert peak < 16 * 2**20


class TestRoundingFloor:
    @pytest.mark.parametrize("v", [0.5, 1.5])
    def test_reported_error_bounds_true_error_or_raises(self, v):
        # 2 K_v(2 sqrt x) falls like e^{-2 sqrt x}, far below the kernel's
        # terms of size x^{-c}: the result is rounding noise, which the
        # error estimate must admit.
        mpmath.mp.dps = 30
        for x in np.logspace(3, 4, 5):
            ev = MellinBarnesEvaluator((0.5 * v, -0.5 * v))
            ref = float(2 * mpmath.besselk(v, 2 * mpmath.sqrt(x)))
            try:
                val, err = ev.evaluate(x)
            except AccuracyError:
                continue
            assert abs(val - ref) <= err


# The kernel families the library and the suite build: the surface's 1 - MGF
# line at Re u = 1/2, G^{2,0}_{0,2}, Gamma(s) on both sides of s = 0,
# G^{1,2}_{2,1} and G^{2,1}_{1,2} on its default line.
KERNELS = [
    *(((a, b), (1.0,), 0.5)
      for a, b in [(0.5, 0.5), (0.5, 40.0), (2.0, 2.0), (10.0, 10.0), (40.0, 40.0)]),
    ((0.25, -0.25), (), None),
    ((0.75, -0.75), (), None),
    ((0.0,), (), 0.5),
    ((0.0,), (), -0.5),
    *(((0.0,), (0.0, -float(m)), None) for m in (0, 2, 4)),
    ((0.0, 0.0), (-1.0,), None),
    ((0.5, -0.5), (-1.0,), None),
    ((0.0, 0.0), (0.99,), None),
]


class TestTruncation:
    @pytest.mark.parametrize("lower,upper,abscissa", KERNELS)
    def test_kernel_never_grows_along_the_grid(self, lower, upper, abscissa):
        # Every Gamma factor's modulus falls monotonically in |Im s|, which
        # makes one truncation height valid for every argument.
        ev = MellinBarnesEvaluator(lower, upper, abscissa)
        s = ev.abscissa + 1j * ev._t
        log_mag = sum(special.loggamma(b + s).real for b in ev.lower)
        log_mag = log_mag + sum(special.loggamma(1.0 - a - s).real for a in ev.upper)
        assert np.all(np.diff(log_mag) < 0.0)
        assert log_mag[-1] <= log_mag[0] - 40.0

    def test_line_next_to_a_pole_fails_fast(self):
        # Spacing a third of 1e-9 cannot reach the kernel's decay within
        # the node cap.
        start = time.perf_counter()
        with pytest.raises(AccuracyError):
            MellinBarnesEvaluator((0.0,), abscissa=1e-9).evaluate(1.0)
        assert time.perf_counter() - start < 1.0
