import math

import numpy as np
import pytest
from scipy import special

from linksec.quadrature import AccuracyError, integrate_semi_infinite
from linksec.specfun import MellinBarnesEvaluator
from oracles import _PANEL_COST, _WG10, _XK21, _panel_estimate, gk21_semi_infinite

# Independent oracle value: integral of e^-x/(1+x) over (0, inf) equals
# e * E1(1); frozen from scipy.special.exp1.
E_TIMES_E1_AT_1 = float(np.e * special.exp1(1.0))  # 0.5963473623231941


class TestFixedRule:
    """The library's trapezoid rule in log x, quadrature.integrate_semi_infinite."""

    def test_unit_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), -40.0, math.log(40.0))
        assert res.value == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert res.abs_error_estimate <= 1e-9 * res.value

    def test_exponential_over_one_plus_x(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x) / (1.0 + x), -40.0, math.log(40.0))
        assert res.value == pytest.approx(E_TIMES_E1_AT_1, rel=1e-12, abs=0.0)

    def test_frullani_ln2(self):
        # (e^-x - e^-2x)/x integrates to ln 2; its limit at 0 is finite.
        res = integrate_semi_infinite(
            lambda x: (np.exp(-x) - np.exp(-2.0 * x)) / x, -40.0, math.log(40.0)
        )
        assert res.value == pytest.approx(math.log(2.0), rel=1e-12, abs=0.0)

    def test_nodes_follow_from_the_interval(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        runs = [integrate_semi_infinite(f, -40.0, math.log(40.0)) for _ in range(3)]
        assert len({r.evaluations for r in runs}) == 1
        assert len({r.value for r in runs}) == 1
        # One call on the nodes s_lo + k * 0.2 up to s_hi, and no halving.
        assert calls == [runs[0].evaluations] * 3
        assert runs[0].evaluations == math.floor((40.0 + math.log(40.0)) / 0.2) + 1

    def test_halves_the_step_once_then_raises(self):
        # A bump of width 0.05 in log x, centered on a node: the step 0.2
        # misses it, and the rule raises after its one pass, with no
        # halving.
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-0.5 * (np.log(x) / 0.05) ** 2) / x

        with pytest.raises(AccuracyError) as exc_info:
            integrate_semi_infinite(f, -2.0, 2.0)
        err = exc_info.value
        assert calls == [math.floor(4.0 / 0.2) + 1]
        assert err.error_estimate > 1e-9 * abs(err.estimate)

    def test_nan_integrand_raises(self):
        def f(x):
            out = np.exp(-x)
            out[x.size // 2] = np.nan
            return out

        with pytest.raises(AccuracyError):
            integrate_semi_infinite(f, -40.0, math.log(40.0))

    def test_zero_integrand(self):
        res = integrate_semi_infinite(lambda x: 0.0, -1.0, 1.0)
        assert res.value == 0.0 and res.abs_error_estimate == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.exp(-x), 1.0, -1.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.exp(-x), math.nan, 1.0)


class TestSemiInfinite:
    """The oracles' adaptive QK21 integrator on (0, inf)."""

    def test_unit_exponential(self):
        res = gk21_semi_infinite(lambda x: np.exp(-x))
        assert res.value == pytest.approx(1.0, rel=1e-10)
        assert res.abs_error_estimate <= 1e-8 * abs(res.value)

    def test_gaussian_tail(self):
        res = gk21_semi_infinite(lambda x: x * np.exp(-x * x))
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_exponential_over_one_plus_x(self):
        res = gk21_semi_infinite(lambda x: np.exp(-x) / (1.0 + x))
        assert res.value == pytest.approx(E_TIMES_E1_AT_1, rel=1e-10)

    def test_finite_limit_at_origin(self):
        # Integrand with a removable singularity: (1 - e^-x)/x * e^-x has
        # limit 1 at the origin; the open rule must never touch x = 0.
        def f(x):
            return (1.0 - np.exp(-x)) * np.exp(-x) / x

        # Exact value: ln 2 (difference of two Frullani-type integrals).
        res = gk21_semi_infinite(f)
        assert res.value == pytest.approx(np.log(2.0), rel=1e-9)

    def test_linearity_under_exact_scaling(self):
        f = lambda x: np.exp(-0.7 * x) * np.cos(x)
        base = gk21_semi_infinite(f).value
        scaled = gk21_semi_infinite(lambda x: 4.0 * f(x)).value
        assert scaled == pytest.approx(4.0 * base, rel=1e-14)

    def test_budget_exhaustion_carries_estimate(self):
        with pytest.raises(AccuracyError) as exc_info:
            gk21_semi_infinite(lambda x: np.exp(-x), tol_rel=1e-300, budget=200)
        err = exc_info.value
        assert err.estimate == pytest.approx(1.0, rel=1e-3)
        assert err.error_estimate >= 0

    def test_evaluation_budget_respected(self):
        res = gk21_semi_infinite(lambda x: np.exp(-x), budget=5000)
        assert res.evaluations <= 5000

    def test_zero_integrand(self):
        res = gk21_semi_infinite(lambda x: 0.0)
        assert res.value == 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            gk21_semi_infinite(lambda x: np.exp(-x), tol_rel=0.0)


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

        res = gk21_semi_infinite(f)
        assert res.evaluations % 21 == 0
        assert res.evaluations == _PANEL_COST * len(calls)
        assert set(calls) == {(21,)}


class TestVerticalContour:
    def test_line_past_a_pole_drops_its_residue(self):
        # Between the poles s = -1 and s = 0 of Gamma(s) the line integral
        # is e^-x less the residue 1 at s = 0.
        shifted = MellinBarnesEvaluator((0.0,), abscissa=-0.5)
        for x in (0.5, 1.0, 2.0):
            val, _ = shifted.evaluate(x)
            assert val == pytest.approx(np.expm1(-x), rel=1e-10)

    def test_line_through_a_pole_rejected(self):
        with pytest.raises(ValueError):
            MellinBarnesEvaluator((0.0,), abscissa=-1.0)
        with pytest.raises(ValueError):
            MellinBarnesEvaluator((2.0, 2.0), (1.0,), abscissa=1.0)

    def test_cahen_mellin_identity(self):
        # (1/2 pi i) * integral of Gamma(s) x^-s over a vertical line in
        # 0 < Re(s) recovers e^-x.
        cahen_mellin = MellinBarnesEvaluator((0.0,))
        for x in (0.5, 1.0, 2.0):
            val, _ = cahen_mellin.evaluate(x)
            assert val.real == pytest.approx(np.exp(-x), rel=1e-10)
