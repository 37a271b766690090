import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from linksec.capacity import (
    CapacityEstimate,
    affg_ccdf,
    affg_ergodic_capacity,
    affg_secrecy,
    affg_snr_constant,
    df_ccdf,
    df_ergodic_capacity,
    df_secrecy,
    _mgf_complement,
    ergodic_capacity_irs,
    irs_branches,
    irs_secrecy,
    mgf_irs_element,
    secrecy_capacity,
)
from linksec.channels import (
    FadingParams,
    GammaGammaParams,
    Geometry,
    ScenarioIrs,
    ScenarioRelay,
    snr_scaled_params,
)
from linksec.montecarlo import McConfig, mc_branch_estimates
from oracles import DF_PATHS, gamma_ccdf_series, gamma_gamma_pdf

# Exponential-hop closed form: capacity of min of two unit-shape hops with
# total rate 1 equals e * E1(1) / ln 2.
EXP_CASE_BITS = float(np.e * special.exp1(1.0) / np.log(2.0))  # 0.8603473822708868


def relay_scenario(d_eve=20.0, power_dbm=20.0, noise=0.01, shape=2.0):
    return ScenarioRelay(
        geometry=Geometry(13.0, 10.0, d_eve, 2.0),
        fading_1=FadingParams(shape, 1.0),
        fading_2=FadingParams(shape, 1.0),
        fading_3=FadingParams(shape, 1.0),
        tx_power_dbm=power_dbm,
        noise_power_relay=noise,
        noise_power_legit=noise,
        noise_power_eve=noise,
    )


def irs_scenario(n=4, d_eve=20.0, power_dbm=20.0, noise=0.01, shape=2.0):
    return ScenarioIrs(
        n_elements=n,
        geometry=Geometry(13.0, 10.0, d_eve, 2.0),
        fading_ts=FadingParams(shape, 1.0),
        fading_sl=FadingParams(shape, 1.0),
        fading_se=FadingParams(shape, 1.0),
        tx_power_dbm=power_dbm,
        noise_power_legit=noise,
        noise_power_eve=noise,
    )


class TestMgfElement:
    GG = GammaGammaParams.from_hops(FadingParams(2.0, 2.0), FadingParams(2.0, 2.0))

    def test_limit_at_zero(self):
        assert mgf_irs_element(1e-7, self.GG) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_decreasing(self):
        grid = np.logspace(-3, 2, 40)
        vals = [mgf_irs_element(z, self.GG) for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_against_transform_quadrature(self, z):
        oracle, _ = integrate.quad(
            lambda g: math.exp(-z * g) * gamma_gamma_pdf(g, self.GG), 0, np.inf
        )
        assert mgf_irs_element(z, self.GG) == pytest.approx(oracle, rel=1e-6)

    def test_array_equals_scalar_calls_across_switch(self):
        gg = self.GG
        z_switch = gg.beta_gg / (20.0 * (gg.shape_first + 12.0) * (gg.shape_second + 12.0))
        z = z_switch * np.logspace(-1.0, 3.0, 41)
        scalar = [mgf_irs_element(float(t), gg) for t in z]
        assert all(isinstance(v, float) for v in scalar)
        # The grid spans the switch to the moment series that the transform
        # once had; contour rows of one block and single rows may round
        # differently.
        np.testing.assert_allclose(mgf_irs_element(z, gg), scalar, rtol=1e-12, atol=0.0)

    def test_series_and_contour_paths_agree(self):
        # Where the transform once switched to its moment series, the
        # shifted contour must still match quadrature.
        gg = self.GG
        z = gg.beta_gg / ((gg.shape_first + 12.0) * (gg.shape_second + 12.0) / 0.04)
        oracle, _ = integrate.quad(
            lambda g: math.exp(-z * g) * gamma_gamma_pdf(g, gg), 0, np.inf
        )
        assert mgf_irs_element(z, gg) == pytest.approx(oracle, rel=1e-9)


class TestIrsCapacity:
    def test_zero_power_limit(self):
        scn = irs_scenario(power_dbm=-280.0)
        est = ergodic_capacity_irs(scn, "legit")
        assert est.bits_per_sec_hz == pytest.approx(0.0, abs=1e-9)

    def test_more_elements_help(self):
        c1 = ergodic_capacity_irs(irs_scenario(n=1), "legit").bits_per_sec_hz
        c2 = ergodic_capacity_irs(irs_scenario(n=2), "legit").bits_per_sec_hz
        assert c2 > c1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_element_factorization_against_monte_carlo(self, n):
        # The summed-SNR capacity computed through the single-element
        # transform raised to the n-th power must match simulation of the
        # actual n-term sum.
        scn = irs_scenario(n=n, power_dbm=10.0)
        ana = ergodic_capacity_irs(scn, "legit")
        mc = mc_branch_estimates(scn, "irs", McConfig(samples=400_000, master_seed=31))[0]
        assert abs(ana.bits_per_sec_hz - mc.bits_per_sec_hz) <= 3.0 * mc.std_error


class TestSecrecyCombiner:
    def test_positive_difference(self):
        c = secrecy_capacity(
            CapacityEstimate(2.0, "analytic"), CapacityEstimate(0.5, "analytic")
        )
        assert c.bits_per_sec_hz == 1.5
        assert c.method == "analytic"
        assert c.std_error == 0.0

    def test_clamped_to_zero(self):
        c = secrecy_capacity(
            CapacityEstimate(0.5, "analytic"), CapacityEstimate(2.0, "analytic")
        )
        assert c.bits_per_sec_hz == 0.0

    def test_symmetric_scenarios_zero(self):
        scn = irs_scenario(d_eve=10.0)
        assert irs_secrecy(scn).bits_per_sec_hz == 0.0
        rel = relay_scenario(d_eve=10.0)
        assert df_secrecy(rel).bits_per_sec_hz == 0.0
        assert affg_secrecy(rel).bits_per_sec_hz == 0.0

    def test_errors_combined_in_quadrature(self):
        c = secrecy_capacity(
            CapacityEstimate(2.0, "monte-carlo", std_error=0.3, samples=1000),
            CapacityEstimate(0.5, "monte-carlo", std_error=0.4, samples=1000),
        )
        assert c.std_error == pytest.approx(0.5)
        assert c.method == "monte-carlo"


class TestDfRelay:
    def test_ccdf_at_zero(self):
        assert df_ccdf(0.0, FadingParams(2, 1.0), FadingParams(3, 2.0)) == 1.0

    def test_exponential_hops(self):
        f1, fb = FadingParams(1, 0.8), FadingParams(1, 1.4)
        for g in (0.1, 1.0, 3.0):
            assert df_ccdf(g, f1, fb) == pytest.approx(math.exp(-2.2 * g), rel=1e-13)

    def test_product_of_survivals(self):
        f1, fb = FadingParams(3, 0.9), FadingParams(2, 1.7)
        for g in np.linspace(0.0, 8.0, 17):
            product = gamma_ccdf_series(g, f1) * gamma_ccdf_series(g, fb)
            assert df_ccdf(g, f1, fb) == pytest.approx(product, abs=1e-12)

    @pytest.mark.parametrize("g", [1e2, 1e4, 1e8])
    def test_large_shapes_stay_finite(self, g):
        # Shape-40 hops with mean SNRs of 40 and 80 dB: a power series in g
        # overflows long before the exponential can damp it.
        f1, fb = FadingParams(40, 4e-3), FadingParams(40, 4e-7)
        value = df_ccdf(g, f1, fb)
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
        scalar = [df_ccdf(float(t), f1, fb) for t in g]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(df_ccdf(g, f1, fb), scalar, rtol=1e-15, atol=0.0)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            df_ccdf(-1.0, FadingParams(2, 1.0), FadingParams(2, 1.0))
        with pytest.raises(ValueError):
            df_ccdf(np.array([1.0, -1.0]), FadingParams(2, 1.0), FadingParams(2, 1.0))

    def test_non_integer_shape_rejected(self):
        with pytest.raises(ValueError):
            df_ccdf(1.0, FadingParams(2.5, 1.0), FadingParams(2, 1.0))
        with pytest.raises(ValueError):
            df_ergodic_capacity(FadingParams(2.5, 1.0), FadingParams(2, 1.0))

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
            df_secrecy(relay_scenario(power_dbm=p)).bits_per_sec_hz
            for p in (40.0, 46.0, 52.0)
        ]
        assert abs(vals[-1] - vals[-2]) < 0.01
        assert abs(vals[-2] - vals[-1]) <= abs(vals[0] - vals[1]) + 1e-9


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
        assert affg_ccdf(0.0, FadingParams(2, 1.0), FadingParams(2, 3.0), 5.0) == 1.0

    def test_ccdf_against_monte_carlo(self):
        f1, fb, l = FadingParams(2, 1.0), FadingParams(2, 3.0), 5.0
        rng = np.random.default_rng(8)
        n = 1_000_000
        g1 = rng.gamma(2.0, 1.0, n)
        gb = rng.gamma(2.0, 1.0 / 3.0, n)
        snr = g1 * gb / (gb + l)
        for g in (0.1, 1.0, 5.0):
            emp = float((snr > g).mean())
            se = math.sqrt(emp * (1.0 - emp) / n)
            assert abs(affg_ccdf(g, f1, fb, l) - emp) <= 3.0 * max(se, 1e-6)

    def test_ccdf_against_joint_distribution_quadrature(self):
        # CDF(g) as the iterated integral of the joint hop density over the
        # region where the end-to-end SNR stays below g.
        f1, fb, l = FadingParams(2, 1.0), FadingParams(3, 2.0), 4.0

        def cdf_oracle(g):
            def inner(t):
                thr = g * (t + l) / t
                return stats.gamma.cdf(thr, f1.alpha, scale=1.0 / f1.beta) * stats.gamma.pdf(
                    t, fb.alpha, scale=1.0 / fb.beta
                )

            val, _ = integrate.quad(inner, 0, np.inf, limit=300)
            return val

        for g in (0.2, 1.0, 3.0):
            assert affg_ccdf(g, f1, fb, l) == pytest.approx(1.0 - cdf_oracle(g), abs=1e-6)

    def test_array_equals_scalar_calls(self):
        f1, fb, l = FadingParams(2, 1.0), FadingParams(2.5, 3.0), 5.0
        # 0 (exact 1), the body of the distribution, 1e4 (every term below
        # the e^-700 underflow cut) and 1e16 (large-argument Bessel branch).
        g = np.array([0.0, 0.1, 1.0, 5.0, 1e4, 1e16])
        assert 2.0 * math.sqrt(1e16 * f1.beta * fb.beta * l) > 1e8
        scalar = [affg_ccdf(float(t), f1, fb, l) for t in g]
        assert all(isinstance(v, float) for v in scalar)
        values = affg_ccdf(g, f1, fb, l)
        np.testing.assert_allclose(values, scalar, rtol=1e-15, atol=0.0)
        assert values[0] == 1.0
        assert values[-2] == 0.0 and values[-1] == 0.0
        assert np.all(np.diff(values) <= 0.0)

    def test_negative_g_rejected(self):
        f1, fb = FadingParams(2, 1.0), FadingParams(2, 1.0)
        with pytest.raises(ValueError):
            affg_ccdf(-1.0, f1, fb, 2.0)
        with pytest.raises(ValueError):
            affg_ccdf(np.array([1.0, -1.0]), f1, fb, 2.0)

    def test_non_integer_first_hop_rejected(self):
        with pytest.raises(ValueError):
            affg_ccdf(1.0, FadingParams(1.5, 1.0), FadingParams(2, 1.0), 2.0)
        with pytest.raises(ValueError):
            affg_ccdf(np.array([1.0, 2.0]), FadingParams(1.5, 1.0), FadingParams(2, 1.0), 2.0)

    def test_df_dominates_ergodic(self):
        for p in (0.0, 10.0, 20.0, 35.0, 50.0):
            scn = relay_scenario(power_dbm=p)
            from linksec.channels import relay_hop_params

            hops = relay_hop_params(scn)
            l = affg_snr_constant(hops["first"])
            df = df_ergodic_capacity(hops["first"], hops["legit"]).bits_per_sec_hz
            af = affg_ergodic_capacity(hops["first"], hops["legit"], l).bits_per_sec_hz
            assert df > af

    def test_huge_gain_constant_kills_capacity(self):
        f1, fb = FadingParams(2, 1.0), FadingParams(2, 1.0)
        est = affg_ergodic_capacity(f1, fb, l=1e12)
        assert est.bits_per_sec_hz == pytest.approx(0.0, abs=1e-8)

    def test_ergodic_against_monte_carlo(self):
        for mean_scale in (1.0, 10.0):
            f1 = snr_scaled_params(FadingParams(2, 2.0), mean_scale)
            fb = snr_scaled_params(FadingParams(2, 2.0), mean_scale)
            l = affg_snr_constant(f1)
            ana = affg_ergodic_capacity(f1, fb, l).bits_per_sec_hz
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
        assert irs_secrecy(scaled_irs).bits_per_sec_hz == pytest.approx(
            irs_secrecy(base_irs).bits_per_sec_hz, abs=1e-9
        )
        assert df_secrecy(scaled_rel).bits_per_sec_hz == pytest.approx(
            df_secrecy(base_rel).bits_per_sec_hz, abs=1e-9
        )
        assert affg_secrecy(scaled_rel).bits_per_sec_hz == pytest.approx(
            affg_secrecy(base_rel).bits_per_sec_hz, abs=1e-9
        )

    def test_secrecy_is_combiner_of_branch_capacities(self):
        # Scenario-level secrecy is nothing but the deterministic combiner
        # applied to the two branch capacities.
        from linksec.channels import relay_hop_params

        scn = relay_scenario()
        hops = relay_hop_params(scn)
        via_branches = secrecy_capacity(
            df_ergodic_capacity(hops["first"], hops["legit"]),
            df_ergodic_capacity(hops["first"], hops["eve"]),
        )
        assert df_secrecy(scn).bits_per_sec_hz == via_branches.bits_per_sec_hz
        l = affg_snr_constant(hops["first"])
        via_branches = secrecy_capacity(
            affg_ergodic_capacity(hops["first"], hops["legit"], l),
            affg_ergodic_capacity(hops["first"], hops["eve"], l),
        )
        assert affg_secrecy(scn).bits_per_sec_hz == via_branches.bits_per_sec_hz

    def test_capacities_nondecreasing_in_power(self):
        powers = (0.0, 10.0, 20.0, 30.0)
        irs_caps = [
            ergodic_capacity_irs(irs_scenario(power_dbm=p), "legit").bits_per_sec_hz
            for p in powers
        ]
        df_caps = []
        af_caps = []
        for p in powers:
            scn = relay_scenario(power_dbm=p)
            from linksec.channels import relay_hop_params

            hops = relay_hop_params(scn)
            df_caps.append(
                df_ergodic_capacity(hops["first"], hops["legit"]).bits_per_sec_hz
            )
            af_caps.append(
                affg_ergodic_capacity(
                    hops["first"], hops["legit"], affg_snr_constant(hops["first"])
                ).bits_per_sec_hz
            )
        for series in (irs_caps, df_caps, af_caps):
            assert all(b >= a for a, b in zip(series, series[1:]))
            assert all(v >= 0.0 for v in series)


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
        gg = GammaGammaParams.from_hops(FadingParams(a, 1.0), FadingParams(b, 1.0))
        x = np.logspace(-3, 12, 11)
        got = _mgf_complement(gg.beta_gg / x, gg)
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
            for ana, mc in zip(irs_branches(scn), mc_branch_estimates(scn, "irs", cfg)):
                assert abs(ana.bits_per_sec_hz - mc.bits_per_sec_hz) <= 4.0 * mc.std_error
