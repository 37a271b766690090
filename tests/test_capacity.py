import dataclasses
import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from linksec import capacity
from linksec.capacity import (
    CapacityEstimate,
    _gamma_rule,
    affg_ccdf,
    affg_ergodic_capacity,
    affg_snr_constant,
    df_ergodic_capacity,
    _element_hop,
    ergodic_capacity_irs,
)
from linksec.channels import (
    FadingParams,
    Scenario,
    relay_hops,
    surface_hops,
)
from linksec.config import reference_config
from linksec.montecarlo import McConfig, branches, mc_branch_estimates
from linksec.quadrature import AccuracyError
from linksec.sweep import _result
from oracles import (
    DF_PATHS,
    affg_ergodic_capacity_bessel,
    df_ergodic_capacity_closed_form,
    ergodic_capacity_irs_contour,
    gamma_ccdf_series,
    gamma_gamma_pdf,
    snr_scaled_params,
)

# Exponential-hop closed form: capacity of min of two unit-shape hops with
# total rate 1 equals e * E1(1) / ln 2.
EXP_CASE_BITS = float(np.e * special.exp1(1.0) / np.log(2.0))  # 0.8603473822708868


def irs_scenario(n=4, d_eve=20.0, power_dbm=20.0, noise=0.01, shape=2.0):
    return Scenario(
        d_source_node=13.0, d_node_legit=10.0, d_node_eve=d_eve, pathloss_exponent=2.0,
        fading_source_node=FadingParams(shape, 1.0),
        fading_node_legit=FadingParams(shape, 1.0),
        fading_node_eve=FadingParams(shape, 1.0),
        tx_power_dbm=power_dbm,
        noise_power_relay=noise,
        noise_power_legit=noise,
        noise_power_eve=noise,
        n_elements=n,
    )


def relay_scenario(d_eve=20.0, power_dbm=20.0, noise=0.01, shape=2.0):
    return irs_scenario(n=1, d_eve=d_eve, power_dbm=power_dbm, noise=noise, shape=shape)


def element_mgf(z, x: FadingParams, y: FadingParams):
    """E[exp(-z * X * Y)] of one element: one minus the capacity's 1 - MGF sum."""
    z_arr = np.asarray(z, dtype=float)
    out = 1.0 - capacity._complement(np.atleast_1d(z_arr), *_element_hop(x, y))
    return float(out[0]) if z_arr.ndim == 0 else out


def df_survival(g, f1: FadingParams, fb: FadingParams):
    """P(min(G1, Gb) > g): the product of the two hops' incomplete gammas."""
    g_arr = np.asarray(g, dtype=float)
    out = capacity._gammaincc(f1.alpha, f1.beta * g_arr) * capacity._gammaincc(
        fb.alpha, fb.beta * g_arr
    )
    return float(out) if g_arr.ndim == 0 else out


class TestMgfElement:
    HOPS = (FadingParams(2.0, 2.0), FadingParams(2.0, 2.0))

    def test_limit_at_zero(self):
        assert element_mgf(1e-7, *self.HOPS) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_decreasing(self):
        grid = np.logspace(-3, 2, 40)
        vals = [element_mgf(z, *self.HOPS) for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_against_transform_quadrature(self, z):
        oracle, _ = integrate.quad(
            lambda g: math.exp(-z * g) * gamma_gamma_pdf(g, *self.HOPS), 0, np.inf
        )
        assert element_mgf(z, *self.HOPS) == pytest.approx(oracle, rel=1e-6)

    def test_array_equals_scalar_calls_across_switch(self):
        x, y = self.HOPS
        z_switch = x.beta * y.beta / (20.0 * (x.alpha + 12.0) * (y.alpha + 12.0))
        z = z_switch * np.logspace(-1.0, 3.0, 41)
        scalar = [element_mgf(float(t), x, y) for t in z]
        assert all(isinstance(v, float) for v in scalar)
        # The grid spans the switch to the moment series that the transform
        # once had; rows of one matrix product and single rows may round
        # differently.
        np.testing.assert_allclose(element_mgf(z, x, y), scalar, rtol=1e-12, atol=0.0)

    def test_series_and_contour_paths_agree(self):
        # Where the transform once switched to its moment series, the
        # Gamma-hop rule must still match quadrature.
        x, y = self.HOPS
        z = x.beta * y.beta / ((x.alpha + 12.0) * (y.alpha + 12.0) / 0.04)
        oracle, _ = integrate.quad(
            lambda g: math.exp(-z * g) * gamma_gamma_pdf(g, x, y), 0, np.inf
        )
        assert element_mgf(z, x, y) == pytest.approx(oracle, rel=1e-9)


class TestIrsCapacity:
    def test_zero_power_limit(self):
        scn = irs_scenario(power_dbm=-280.0)
        x, y_legit, _ = surface_hops(scn)
        est = ergodic_capacity_irs(x, y_legit, scn.n_elements)
        assert est.bits_per_sec_hz == pytest.approx(0.0, abs=1e-9)

    def test_more_elements_help(self):
        c1 = ergodic_capacity_irs(*surface_hops(irs_scenario(n=1))[:2], 1).bits_per_sec_hz
        c2 = ergodic_capacity_irs(*surface_hops(irs_scenario(n=2))[:2], 2).bits_per_sec_hz
        assert c2 > c1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_element_factorization_against_monte_carlo(self, n):
        # The summed-SNR capacity computed through the single-element
        # transform raised to the n-th power must match simulation of the
        # actual n-term sum.
        scn = irs_scenario(n=n, power_dbm=10.0)
        x, y_legit, _ = surface_hops(scn)
        ana = ergodic_capacity_irs(x, y_legit, n)
        mc = mc_branch_estimates(scn, "irs", McConfig(samples=400_000, master_seed=31))[0]
        assert abs(ana.bits_per_sec_hz - mc.bits_per_sec_hz) <= 3.0 * mc.std_error


class TestSecrecyCombiner:
    # branches() returns the unclamped difference; a sweep row clamps it at
    # 0 and reports the difference's own s.e.
    def test_positive_difference(self):
        legit, eve = CapacityEstimate(2.0), CapacityEstimate(0.5)
        assert _result(legit, eve, CapacityEstimate(1.5)) == (1.5, 2.0, 0.5, 0.0, "ok")

    def test_clamped_to_zero(self):
        difference = CapacityEstimate(-1.5, std_error=0.2)
        row = _result(CapacityEstimate(0.5), CapacityEstimate(2.0), difference)
        assert row == (0.0, 0.5, 2.0, 0.2, "ok")

    def test_symmetric_scenarios_zero(self):
        scn = irs_scenario(d_eve=10.0)
        assert branches(scn, "irs")[2].bits_per_sec_hz == 0.0
        rel = relay_scenario(d_eve=10.0)
        assert branches(rel, "df")[2].bits_per_sec_hz == 0.0
        assert branches(rel, "affg")[2].bits_per_sec_hz == 0.0

    def test_sweep_reports_the_paired_error(self):
        # The receivers share the first hop, so their estimates are
        # positively correlated and the difference's s.e. is below
        # hypot(se_L, se_E), which would treat them as independent.
        cfg = McConfig(samples=20_000, master_seed=3)
        for name in ("irs", "df", "affg"):
            legit, eve, difference = branches(irs_scenario(), name, cfg)
            assert _result(legit, eve, difference)[3] == difference.std_error
            assert 0.0 < difference.std_error < math.hypot(legit.std_error, eve.std_error)


class TestDfRelay:
    def test_ccdf_at_zero(self):
        assert df_survival(0.0, FadingParams(2, 1.0), FadingParams(3, 2.0)) == 1.0

    def test_exponential_hops(self):
        f1, fb = FadingParams(1, 0.8), FadingParams(1, 1.4)
        for g in (0.1, 1.0, 3.0):
            assert df_survival(g, f1, fb) == pytest.approx(math.exp(-2.2 * g), rel=1e-13)

    def test_product_of_survivals(self):
        f1, fb = FadingParams(3, 0.9), FadingParams(2, 1.7)
        for g in np.linspace(0.0, 8.0, 17):
            product = gamma_ccdf_series(g, f1) * gamma_ccdf_series(g, fb)
            assert df_survival(g, f1, fb) == pytest.approx(product, abs=1e-12)

    @pytest.mark.parametrize("g", [1e2, 1e4, 1e8])
    def test_large_shapes_stay_finite(self, g):
        # Shape-40 hops with mean SNRs of 40 and 80 dB: a power series in g
        # overflows long before the exponential can damp it.
        f1, fb = FadingParams(40, 4e-3), FadingParams(40, 4e-7)
        value = df_survival(g, f1, fb)
        assert math.isfinite(value) and 0.0 <= value <= 1.0
        with mpmath.workdps(30):
            ref = float(
                mpmath.gammainc(40, f1.beta * g, regularized=True)
                * mpmath.gammainc(40, fb.beta * g, regularized=True)
            )
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_array_equals_scalar_calls(self):
        f1, fb = FadingParams(3, 0.9), FadingParams(2, 1.7)
        g = np.linspace(0.0, 8.0, 17)
        scalar = [df_survival(float(t), f1, fb) for t in g]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(df_survival(g, f1, fb), scalar, rtol=1e-15, atol=0.0)

    def test_exponential_closed_form(self):
        est = df_ergodic_capacity(FadingParams(1, 0.5), FadingParams(1, 0.5))
        assert est.bits_per_sec_hz == pytest.approx(EXP_CASE_BITS, rel=1e-10)

    @pytest.mark.parametrize("a1", [1, 2, 3])
    @pytest.mark.parametrize("ab", [1, 2, 3])
    def test_three_paths_agree(self, a1, ab):
        f1, fb = FadingParams(a1, 0.8), FadingParams(ab, 1.7)
        values = [
            path(f1, fb).bits_per_sec_hz for path in DF_PATHS
        ]
        for a in values:
            for b in values:
                assert abs(a - b) <= 1e-7 * max(abs(a), abs(b))

    def test_weaker_second_hop_reduces_capacity(self):
        f1 = FadingParams(2, 1.0)
        caps = [
            df_ergodic_capacity(f1, FadingParams(2, bb)).bits_per_sec_hz
            for bb in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_secrecy_plateau_at_high_power(self):
        # Both branches grow at the same rate once every hop is strong, so
        # the secrecy difference stabilizes.
        vals = [
            branches(relay_scenario(power_dbm=p), "df")[2].bits_per_sec_hz
            for p in (40.0, 46.0, 52.0)
        ]
        assert abs(vals[-1] - vals[-2]) < 0.01
        assert abs(vals[-2] - vals[-1]) <= abs(vals[0] - vals[1]) + 1e-9


class TestIncompleteGamma:
    """capacity._gammaincc, the regularized upper incomplete gamma Q(a, x)."""

    SHAPES = (0.5, 1.0, 2.0, 2.5, 7.3, 10.0, 40.0)

    @pytest.mark.parametrize("a", (0.05, *SHAPES, 400.0))
    def test_against_mpmath(self, a):
        x = np.concatenate([[0.0], np.logspace(-12, 3.5, 160)])
        values = capacity._gammaincc(a, x)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.gammainc(a, t, regularized=True)) for t in x])
        live = ref > 1e-300
        np.testing.assert_allclose(values[live], ref[live], rtol=1e-12, atol=0.0)
        assert np.all(values[~live] <= 1e-300)

    def test_exactly_one_at_zero(self):
        for a in self.SHAPES:
            assert np.all(capacity._gammaincc(a, np.zeros(3)) == 1.0)

    def test_huge_arguments_give_zero_without_warnings(self):
        x = np.array([1e3, 1e10, 1e100, 1e200, 1e304, np.inf])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for a in self.SHAPES:
                assert np.all(capacity._gammaincc(a, x) == 0.0)

    def test_array_equals_scalar_calls(self):
        x = np.concatenate([[0.0], np.logspace(-6, 3, 40)])
        for a in (0.5, 40.0):
            array = capacity._gammaincc(a, x)
            scalar = [capacity._gammaincc(a, t) for t in x]
            np.testing.assert_array_equal(array, scalar)
            long = np.resize(x, 4097)
            np.testing.assert_array_equal(
                capacity._gammaincc(a, long), np.resize(scalar, long.size)
            )
            square = np.resize(x, (41, 41))
            np.testing.assert_array_equal(
                capacity._gammaincc(a, square), np.resize(scalar, square.shape)
            )

    def test_df_ccdf_array_equals_scalar_calls(self):
        # Non-integer and large shapes, across both branches of Q.
        f1, fb = FadingParams(2.5, 0.3), FadingParams(40, 4.0)
        g = np.concatenate([[0.0], np.logspace(-4, 3, 50)])
        scalar = [df_survival(float(t), f1, fb) for t in g]
        np.testing.assert_array_equal(df_survival(g, f1, fb), scalar)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(capacity, "_GAMMA_MAX_ITER", 1)
        for cached in (capacity._series_length, capacity._fraction_depth):
            monkeypatch.setattr(capacity, cached.__name__, functools.lru_cache(cached.__wrapped__))
        with pytest.raises(AccuracyError):
            capacity._fraction_depth(2.5)
        with pytest.raises(AccuracyError):
            capacity._series_length(2.5)
        with pytest.raises(AccuracyError):
            capacity._gammaincc(2.5, np.array([5.0]))


class TestAffgRelay:
    def test_gain_constant(self):
        assert affg_snr_constant(FadingParams(2, 2.0)) == pytest.approx(2.0)
        assert affg_snr_constant(FadingParams(1, 1e12)) == pytest.approx(1.0, abs=1e-9)

    def test_gain_constant_scales_with_power(self):
        f1 = FadingParams(2, 1.0)
        l0 = affg_snr_constant(f1) - 1.0
        l1 = affg_snr_constant(snr_scaled_params(f1, 10.0)) - 1.0
        assert l1 == pytest.approx(10.0 * l0, rel=1e-12)

    def test_ccdf_at_zero(self):
        assert affg_ccdf(0.0, FadingParams(2, 1.0), FadingParams(2, 3.0)) == 1.0

    def test_ccdf_against_monte_carlo(self):
        f1, fb = FadingParams(2, 1.0), FadingParams(2, 3.0)
        l = affg_snr_constant(f1)
        rng = np.random.default_rng(8)
        n = 1_000_000
        g1 = rng.gamma(2.0, 1.0, n)
        gb = rng.gamma(2.0, 1.0 / 3.0, n)
        snr = g1 * gb / (gb + l)
        for g in (0.1, 1.0, 5.0):
            emp = float((snr > g).mean())
            se = math.sqrt(emp * (1.0 - emp) / n)
            assert abs(affg_ccdf(g, f1, fb) - emp) <= 3.0 * max(se, 1e-6)

    def test_ccdf_against_joint_distribution_quadrature(self):
        # CDF(g) as the iterated integral of the joint hop density over the
        # region where the end-to-end SNR stays below g.
        f1, fb = FadingParams(2, 1.0), FadingParams(3, 2.0)
        l = affg_snr_constant(f1)

        def cdf_oracle(g):
            def inner(t):
                thr = g * (t + l) / t
                return stats.gamma.cdf(thr, f1.alpha, scale=1.0 / f1.beta) * stats.gamma.pdf(
                    t, fb.alpha, scale=1.0 / fb.beta
                )

            val, _ = integrate.quad(inner, 0, np.inf, limit=300)
            return val

        for g in (0.2, 1.0, 3.0):
            assert affg_ccdf(g, f1, fb) == pytest.approx(1.0 - cdf_oracle(g), abs=1e-6)

    def test_array_equals_scalar_calls(self):
        f1, fb = FadingParams(2, 1.0), FadingParams(2.5, 3.0)
        # 0 (exact 1), the body of the distribution, and 1e4 and 1e16, where
        # every incomplete gamma of the receiving hop's rule underflows.
        g = np.array([0.0, 0.1, 1.0, 5.0, 1e4, 1e16])
        scalar = [affg_ccdf(float(t), f1, fb) for t in g]
        assert all(isinstance(v, float) for v in scalar)
        values = affg_ccdf(g, f1, fb)
        np.testing.assert_allclose(values, scalar, rtol=1e-15, atol=0.0)
        assert values[0] == 1.0
        assert values[-2] == 0.0 and values[-1] == 0.0
        assert np.all(np.diff(values) <= 0.0)

    def test_negative_g_rejected(self):
        f1, fb = FadingParams(2, 1.0), FadingParams(2, 1.0)
        with pytest.raises(ValueError):
            affg_ccdf(-1.0, f1, fb)
        with pytest.raises(ValueError):
            affg_ccdf(np.array([1.0, -1.0]), f1, fb)
        with pytest.raises(ValueError):
            affg_ccdf(math.nan, f1, fb)
        with pytest.raises(ValueError):
            affg_ccdf(np.array([1.0, math.nan]), f1, fb)

    def test_overflowing_gain_constant_rejected(self):
        # The first hop's mean, 1e600, overflows, and so does the gain constant.
        f1, fb = FadingParams(1e300, 1e-300), FadingParams(2, 1.0)
        assert affg_snr_constant(f1) == math.inf
        with pytest.raises(ValueError):
            affg_ccdf(1.0, f1, fb)
        with pytest.raises(ValueError):
            affg_ergodic_capacity(f1, fb)

    def test_df_dominates_ergodic(self):
        for p in (0.0, 10.0, 20.0, 35.0, 50.0):
            first, legit, _ = relay_hops(relay_scenario(power_dbm=p))
            df = df_ergodic_capacity(first, legit).bits_per_sec_hz
            af = affg_ergodic_capacity(first, legit).bits_per_sec_hz
            assert df > af

    def test_ergodic_against_monte_carlo(self):
        for mean_scale in (1.0, 10.0):
            f1 = snr_scaled_params(FadingParams(2, 2.0), mean_scale)
            fb = snr_scaled_params(FadingParams(2, 2.0), mean_scale)
            l = affg_snr_constant(f1)
            ana = affg_ergodic_capacity(f1, fb).bits_per_sec_hz
            rng = np.random.default_rng(21)
            n = 1_000_000
            g1 = rng.gamma(f1.alpha, 1.0 / f1.beta, n)
            gb = rng.gamma(fb.alpha, 1.0 / fb.beta, n)
            vals = np.log1p(g1 * gb / (gb + l)) / math.log(2.0)
            se = vals.std() / math.sqrt(n)
            assert abs(ana - vals.mean()) <= 3.0 * se


class TestScenarioInvariances:
    def test_snr_preserving_transformation(self):
        # Scaling transmit power and every noise power by the same factor
        # leaves all capacities unchanged.
        base_irs = irs_scenario()
        base_rel = relay_scenario()
        shift_db = 10.0 * math.log10(7.0)
        scaled_irs = dataclasses.replace(
            base_irs,
            tx_power_dbm=base_irs.tx_power_dbm + shift_db,
            noise_power_legit=base_irs.noise_power_legit * 7.0,
            noise_power_eve=base_irs.noise_power_eve * 7.0,
        )
        scaled_rel = dataclasses.replace(
            base_rel,
            tx_power_dbm=base_rel.tx_power_dbm + shift_db,
            noise_power_relay=base_rel.noise_power_relay * 7.0,
            noise_power_legit=base_rel.noise_power_legit * 7.0,
            noise_power_eve=base_rel.noise_power_eve * 7.0,
        )
        for name, base, scaled in (
            ("irs", base_irs, scaled_irs),
            ("df", base_rel, scaled_rel),
            ("affg", base_rel, scaled_rel),
        ):
            assert branches(scaled, name)[2].bits_per_sec_hz == pytest.approx(
                branches(base, name)[2].bits_per_sec_hz, abs=1e-9
            )

    def test_secrecy_is_combiner_of_branch_capacities(self):
        # branches() is nothing but the per-receiver capacity functions on
        # the analytic route, with their difference, and
        # mc_branch_estimates on the simulated one.
        scn = relay_scenario()
        x, *ys = surface_hops(scn)
        first, *seconds = relay_hops(scn)
        per_receiver = {
            "irs": [ergodic_capacity_irs(x, y, scn.n_elements) for y in ys],
            "df": [df_ergodic_capacity(first, second) for second in seconds],
            "affg": [affg_ergodic_capacity(first, second) for second in seconds],
        }
        cfg = McConfig(samples=1000, master_seed=3)
        for name, expected in per_receiver.items():
            legit, eve = (est.bits_per_sec_hz for est in expected)
            assert branches(scn, name) == (*expected, CapacityEstimate(legit - eve))
            assert branches(scn, name, cfg) == mc_branch_estimates(scn, name, cfg)

    def test_capacities_nondecreasing_in_power(self):
        powers = (0.0, 10.0, 20.0, 30.0)
        irs_caps = [
            ergodic_capacity_irs(*surface_hops(irs_scenario(power_dbm=p))[:2], 4).bits_per_sec_hz
            for p in powers
        ]
        df_caps = []
        af_caps = []
        for p in powers:
            first, legit, _ = relay_hops(relay_scenario(power_dbm=p))
            df_caps.append(df_ergodic_capacity(first, legit).bits_per_sec_hz)
            af_caps.append(affg_ergodic_capacity(first, legit).bits_per_sec_hz)
        for series in (irs_caps, df_caps, af_caps):
            assert all(b >= a for a, b in zip(series, series[1:]))
            assert all(v >= 0.0 for v in series)


class TestAnalyticPins:
    # branches() on the reference scenario, recorded with repr.  The
    # allowance is TestDeterminism.PINNED's: last-bit differences of the
    # vectorized log1p/expm1 paths across CPUs, nothing more.
    PINNED = {
        (0.0, "irs", 4): (0.1288864082239606, 0.033629791505831286),
        (0.0, "df", 4): (0.873261049335092, 0.48452633118390975),
        (0.0, "affg", 4): (0.5405126651877046, 0.2529493569220117),
        (20.0, "irs", 4): (3.2206452523301885, 1.6539927048907177),
        (20.0, "df", 4): (6.191766159384588, 5.107133208705329),
        (20.0, "affg", 4): (5.60527005860176, 4.490077647536211),
        (50.0, "irs", 4): (12.997438460030319, 10.998059299888954),
        (50.0, "df", 4): (16.12895609723272, 15.01245456719282),
        (50.0, "affg", 4): (15.527434425690553, 14.349488436730294),
        (0.0, "irs", 64): (1.3253811760025271, 0.462251604457188),
        (20.0, "irs", 64): (7.238648225439085, 5.267291313958215),
        (50.0, "irs", 64): (17.19476424738621, 15.19479338033392),
    }

    @pytest.mark.parametrize("power, name, n", sorted(PINNED))
    def test_pinned_branches(self, power, name, n):
        scn = dataclasses.replace(reference_config().scenario, tx_power_dbm=power, n_elements=n)
        got = tuple(est.bits_per_sec_hz for est in branches(scn, name)[:2])
        assert got == pytest.approx(self.PINNED[power, name, n], rel=1e-12, abs=0)


def _complement_reference(a, b, x):
    # 1 - MGF = 1 - E[(1 + G/x)^-b] with G ~ Gamma(a, 1), by quadrature.
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)

    def f(g):
        return g ** (a - 1) * mpmath.exp(-g) * -mpmath.expm1(-b * mpmath.log1p(g / x))

    breaks = sorted({mpmath.mpf(0), min(x, a), a, a + 10 * mpmath.sqrt(a) + 10, mpmath.inf})
    return float(mpmath.quad(f, breaks) / mpmath.gamma(a))


class TestMgfComplement:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, 40.0), (2.0, 2.0), (10.0, 10.0), (40.0, 40.0)])
    def test_against_mpmath(self, a, b):
        mpmath.mp.dps = 30
        hops = (FadingParams(a, 1.0), FadingParams(b, 1.0))
        x = np.logspace(-3, 12, 11)
        got = capacity._complement(hops[0].beta * hops[1].beta / x, *_element_hop(*hops))
        ref = [_complement_reference(a, b, t) for t in x]
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)


class TestLargeShapes:
    @pytest.mark.parametrize("shape", [10.0, 40.0])
    @pytest.mark.parametrize("power_dbm", [-30.0, 20.0, 120.0])
    def test_surface_branches_against_monte_carlo(self, shape, power_dbm):
        # Shapes this large used to exhaust the quadrature budget on the
        # rounding noise of 1 - MGF.
        cfg = McConfig(samples=100_000, master_seed=7, chunk_size=16_384)
        for n in (1, 64):
            scn = irs_scenario(n=n, power_dbm=power_dbm, shape=shape)
            for ana, mc in zip(branches(scn, "irs"), branches(scn, "irs", cfg)):
                assert abs(ana.bits_per_sec_hz - mc.bits_per_sec_hz) <= 4.0 * mc.std_error


# The box every analytic branch must cover: shapes, powers and element counts.
BOX_SHAPES = (0.5, 2.0, 2.5, 10.0, 40.0)
BOX_POWERS_DB = (-30.0, 0.0, 50.0, 120.0)
BOX_ELEMENTS = (1, 64, 1024)
BOX_MAX_EVALUATIONS = 2_500


def _relative_gap(value, ref):
    return abs(value - ref) / abs(ref) if ref else abs(value)


class TestAnyShape:
    @pytest.mark.parametrize("shape", BOX_SHAPES)
    def test_gamma_rule_moments(self, shape):
        u, w = _gamma_rule(shape)
        assert not u.flags.writeable and not w.flags.writeable
        assert w @ u == pytest.approx(shape, rel=1e-13, abs=0.0)
        assert w @ (u * u) == pytest.approx(shape * (shape + 1.0), rel=1e-13, abs=0.0)

    def test_affg_ccdf_non_integer_first_hop_against_monte_carlo(self):
        f1, fb = FadingParams(1.5, 1.0), FadingParams(2.5, 3.0)
        l = affg_snr_constant(f1)
        rng = np.random.default_rng(15)
        n = 1_000_000
        g1 = rng.gamma(1.5, 1.0, n)
        gb = rng.gamma(2.5, 1.0 / 3.0, n)
        snr = g1 * gb / (gb + l)
        for g in (0.05, 0.5, 2.0):
            emp = float((snr > g).mean())
            se = math.sqrt(emp * (1.0 - emp) / n)
            assert abs(affg_ccdf(g, f1, fb) - emp) <= 4.0 * se

    @pytest.mark.parametrize("shape", [0.5, 2.5, 7.3])
    def test_branches_against_monte_carlo(self, shape):
        cfg = McConfig(samples=200_000, master_seed=5)
        for arch, scn in (
            ("irs", irs_scenario(shape=shape)),
            ("df", relay_scenario(shape=shape)),
            ("affg", relay_scenario(shape=shape)),
        ):
            for ana, mc in zip(branches(scn, arch), branches(scn, arch, cfg)):
                assert abs(ana.bits_per_sec_hz - mc.bits_per_sec_hz) <= 4.0 * mc.std_error


class TestParameterBox:
    """Every branch of the box is within 1e-9 (DF: 1e-12) of an independent
    oracle and takes at most BOX_MAX_EVALUATIONS integrand evaluations
    (rule nodes for DF), a count that does not depend on the machine."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        counts = []
        integrate_semi_infinite = capacity.integrate_semi_infinite

        def counting(*args, **kwargs):
            result = integrate_semi_infinite(*args, **kwargs)
            counts.append(result.evaluations)
            return result

        monkeypatch.setattr(capacity, "integrate_semi_infinite", counting)
        return counts

    @pytest.fixture
    def rule_nodes(self, monkeypatch):
        """Node counts of the Gamma-hop rules a call asks for, in order."""
        counts = []
        gamma_rule = capacity._gamma_rule

        def counting(*args, **kwargs):
            u, w = gamma_rule(*args, **kwargs)
            counts.append(u.size)
            return u, w

        monkeypatch.setattr(capacity, "_gamma_rule", counting)
        return counts

    def test_surface_against_contour(self, evaluations):
        # The oracle is 1 - MGF on a Mellin-Barnes contour; the receiving
        # hops' shape is paired with every source-hop shape.
        for a, b, power, n in itertools.product(
            BOX_SHAPES, BOX_SHAPES, BOX_POWERS_DB, BOX_ELEMENTS
        ):
            scn = dataclasses.replace(
                irs_scenario(n=n, power_dbm=power, shape=b), fading_source_node=FadingParams(a, 1.0)
            )
            x, *ys = surface_hops(scn)
            for receiver, y in zip(("legit", "eve"), ys):
                evaluations.clear()
                value = ergodic_capacity_irs(x, y, n).bits_per_sec_hz
                ref = ergodic_capacity_irs_contour(x, y, n).bits_per_sec_hz
                point = (a, b, power, n, receiver)
                assert _relative_gap(value, ref) <= 1e-9, point
                assert len(evaluations) == 1 and evaluations[0] <= BOX_MAX_EVALUATIONS, point

    def test_relays_against_closed_forms(self, evaluations, rule_nodes, monkeypatch):
        # Oracles: the Bessel-K survival function in log g for the
        # fixed-gain relay (integer first hop up to 10) and the e^s E_n
        # closed form for decode-and-forward (integer shapes).  DF has no
        # outer integral; its count is the nodes of its two hop rules, and
        # its P(G1 < G2) + P(G2 < G1) stays within 1e-12 of 1, so the
        # production check at 1e-9 has room to spare.
        monkeypatch.setattr(capacity, "_DF_UNITY_TOL", 1e-12)
        for a1, ab, power in itertools.product(BOX_SHAPES, BOX_SHAPES, BOX_POWERS_DB):
            scn = dataclasses.replace(
                relay_scenario(power_dbm=power, shape=ab), fading_source_node=FadingParams(a1, 1.0)
            )
            f1, *seconds = relay_hops(scn)
            for receiver, fb in zip(("legit", "eve"), seconds):
                point = (a1, ab, power, receiver)
                evaluations.clear()
                value = affg_ergodic_capacity(f1, fb).bits_per_sec_hz
                assert len(evaluations) == 1 and evaluations[0] <= BOX_MAX_EVALUATIONS, point
                if a1 in (2.0, 10.0):
                    ref = affg_ergodic_capacity_bessel(f1, fb, affg_snr_constant(f1))
                    assert _relative_gap(value, ref.bits_per_sec_hz) <= 1e-9, ("affg", *point)
                evaluations.clear()
                rule_nodes.clear()
                value = df_ergodic_capacity(f1, fb).bits_per_sec_hz
                assert not evaluations and len(rule_nodes) == 2, point
                assert sum(rule_nodes) <= BOX_MAX_EVALUATIONS, point
                if a1.is_integer() and ab.is_integer():
                    ref = df_ergodic_capacity_closed_form(f1, fb).bits_per_sec_hz
                    assert _relative_gap(value, ref) <= 1e-12, ("df", *point)

    def test_df_unity_check_raises_on_a_coarse_step(self, monkeypatch):
        # A step of 1.5 in log u cannot resolve the other hop's survival
        # function at shape 40, and the check on the same nodes says so.
        gamma_rule = capacity._gamma_rule
        monkeypatch.setattr(
            capacity, "_gamma_rule", lambda shape, step=None: gamma_rule(shape, 1.5)
        )
        with pytest.raises(AccuracyError) as exc_info:
            df_ergodic_capacity(FadingParams(40.0, 1.0), FadingParams(40.0, 0.5))
        assert exc_info.value.error_estimate > 0.0


CORNER_SHAPES = (0.05, 400.0)
CORNER_MAX_EVALUATIONS = 700


class TestParameterCorners:
    """Corners beyond the box that a config still accepts: every branch is
    finite, nonnegative and raises no AccuracyError, each outer rule takes at
    most CORNER_MAX_EVALUATIONS integrand evaluations, and the relays and the
    one-element surface lie within 5 s.e. (or 1e-9 bits) of the simulator."""

    @pytest.mark.parametrize("power", [-150.0, 300.0])
    def test_corners(self, power, monkeypatch):
        counts = []
        integrate_semi_infinite = capacity.integrate_semi_infinite

        def counting(*args):
            result = integrate_semi_infinite(*args)
            counts.append(result.evaluations)
            return result

        monkeypatch.setattr(capacity, "integrate_semi_infinite", counting)
        cfg = McConfig(samples=20_000, master_seed=1)
        for first, legit, eve in itertools.product(CORNER_SHAPES, repeat=3):
            base = dataclasses.replace(
                irs_scenario(power_dbm=power),
                fading_source_node=FadingParams(first, 1.0),
                fading_node_legit=FadingParams(legit, 1.0),
                fading_node_eve=FadingParams(eve, 1.0),
            )
            for arch, n in (("irs", 1), ("irs", 10**6), ("df", 1), ("affg", 1)):
                scn = dataclasses.replace(base, n_elements=n)
                point = (arch, first, legit, eve, power, n)
                counts.clear()
                analytic = branches(scn, arch)
                assert all(c <= CORNER_MAX_EVALUATIONS for c in counts), (point, counts)
                assert all(math.isfinite(ana.bits_per_sec_hz) for ana in analytic), point
                assert all(ana.bits_per_sec_hz >= 0.0 for ana in analytic[:2]), point
                if n > 1:
                    continue
                for ana, mc in zip(analytic, branches(scn, arch, cfg)):
                    gap = abs(ana.bits_per_sec_hz - mc.bits_per_sec_hz)
                    assert gap <= max(5.0 * mc.std_error, 1e-9), (point, gap, mc.std_error)
