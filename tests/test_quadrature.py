import numpy as np
import pytest
from scipy import special

from linksec.quadrature import (
    _PANEL_COST,
    _WG10,
    _XK21,
    AccuracyError,
    ContourDivergenceError,
    ContourSpec,
    integrate_finite,
    integrate_semi_infinite,
    integrate_vertical_contour,
    _panel_estimate,
)

# Independent oracle value: integral of e^-x/(1+x) over (0, inf) equals
# e * E1(1); frozen from scipy.special.exp1.
E_TIMES_E1_AT_1 = float(np.e * special.exp1(1.0))  # 0.5963473623231941


class TestSemiInfinite:
    def test_unit_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x))
        assert res.value == pytest.approx(1.0, rel=1e-10)
        assert res.abs_error_estimate <= 1e-8 * abs(res.value)

    def test_gaussian_tail(self):
        res = integrate_semi_infinite(lambda x: x * np.exp(-x * x))
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_exponential_over_one_plus_x(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x) / (1.0 + x))
        assert res.value == pytest.approx(E_TIMES_E1_AT_1, rel=1e-10)

    def test_finite_limit_at_origin(self):
        # Integrand with a removable singularity: (1 - e^-x)/x * e^-x has
        # limit 1 at the origin; the open rule must never touch x = 0.
        def f(x):
            return (1.0 - np.exp(-x)) * np.exp(-x) / x

        # Exact value: ln 2 (difference of two Frullani-type integrals).
        res = integrate_semi_infinite(f)
        assert res.value == pytest.approx(np.log(2.0), rel=1e-9)

    def test_linearity_under_exact_scaling(self):
        f = lambda x: np.exp(-0.7 * x) * np.cos(x)
        base = integrate_semi_infinite(f).value
        scaled = integrate_semi_infinite(lambda x: 4.0 * f(x)).value
        assert scaled == pytest.approx(4.0 * base, rel=1e-14)

    def test_budget_exhaustion_carries_estimate(self):
        with pytest.raises(AccuracyError) as exc_info:
            integrate_semi_infinite(lambda x: np.exp(-x), tol_rel=1e-300, budget=200)
        err = exc_info.value
        assert err.estimate == pytest.approx(1.0, rel=1e-3)
        assert err.error_estimate >= 0

    def test_evaluation_budget_respected(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), budget=5000)
        assert res.evaluations <= 5000

    def test_zero_integrand(self):
        res = integrate_semi_infinite(lambda x: 0.0)
        assert res.value == 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.exp(-x), tol_rel=0.0)


class TestGaussKronrod:
    def test_embedded_gauss_rule_is_leggauss_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(_XK21[1::2], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(_WG10, weights, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("degree", range(32))
    def test_k21_panel_exact_to_degree_31(self, degree):
        value, _ = _panel_estimate(lambda x: x ** degree, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-14)

    def test_one_integrand_call_per_panel(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.exp(-x)

        res = integrate_semi_infinite(f)
        assert res.evaluations % 21 == 0
        assert res.evaluations == _PANEL_COST * len(calls)
        assert set(calls) == {(21,)}


class TestFinite:
    def test_polynomial(self):
        res = integrate_finite(lambda x: x * x, 0.0, 2.0)
        assert res.value == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 2.0, 1.0)


class TestVerticalContour:
    def test_cahen_mellin_identity(self):
        # (1/2 pi i) * integral of Gamma(s) x^-s over a vertical line in
        # 0 < Re(s) recovers e^-x.
        for x in (0.5, 1.0, 2.0):
            spec = ContourSpec(abscissa=0.75, half_height=40.0, nodes=16001)
            val = integrate_vertical_contour(
                lambda s: np.exp(special.loggamma(s)) * x ** (-s), spec
            )
            assert val.real == pytest.approx(np.exp(-x), rel=1e-10)

    def test_doubling_height_leaves_converged_result(self):
        kernel = lambda s: np.exp(special.loggamma(s)) * 1.0 ** (-s)
        a = integrate_vertical_contour(kernel, ContourSpec(0.5, 40.0, 16001))
        b = integrate_vertical_contour(kernel, ContourSpec(0.5, 80.0, 32001))
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_conjugate_symmetric_kernel_is_real(self):
        spec = ContourSpec(abscissa=0.5, half_height=40.0, nodes=16001)
        val = integrate_vertical_contour(
            lambda s: np.exp(special.loggamma(s)) * 2.0 ** (-s), spec
        )
        assert abs(val.imag) <= 1e-12 * abs(val.real)

    def test_detects_growing_kernel(self):
        # exp(-0.1 s^2) grows like exp(0.1 t^2) along the vertical line.
        spec = ContourSpec(abscissa=0.5, half_height=30.0, nodes=2001)
        with pytest.raises(ContourDivergenceError):
            integrate_vertical_contour(lambda s: np.exp(-0.1 * s * s), spec)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            ContourSpec(abscissa=0.5, half_height=-1.0, nodes=128)
        with pytest.raises(ValueError):
            ContourSpec(abscissa=0.5, half_height=10.0, nodes=32)
