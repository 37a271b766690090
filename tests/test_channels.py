import math

import numpy as np
import pytest
from scipy import integrate

from linksec.channels import (
    FadingParams,
    GammaGammaParams,
    Geometry,
    ScenarioIrs,
    irs_element_params,
    pathloss,
    sample_gamma,
    snr_scaled_params,
)
from oracles import (
    gamma_ccdf_series,
    gamma_cdf,
    gamma_gamma_moment,
    gamma_gamma_pdf,
    gamma_pdf,
    sample_gamma_gamma,
)


class TestPathloss:
    @pytest.mark.parametrize(
        "d,zeta,expected",
        [(1.0, 3.0, 1.0), (10.0, 2.0, 0.01), (4.0, 2.5, 4.0 ** -2.5)],
    )
    def test_power_law(self, d, zeta, expected):
        assert pathloss(d, zeta) == pytest.approx(expected, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pathloss(0.0, 2.0)
        with pytest.raises(ValueError):
            pathloss(-3.0, 2.0)


class TestSnrScaling:
    def test_identity(self):
        p = FadingParams(2.0, 4.0)
        assert snr_scaled_params(p, 1.0) == p

    def test_mean_scales(self):
        p = FadingParams(2.0, 4.0)
        q = snr_scaled_params(p, 2.0)
        assert q == FadingParams(2.0, 2.0)
        assert q.mean == pytest.approx(2.0 * p.mean)

    def test_roundtrip(self):
        p = FadingParams(3.0, 0.7)
        q = snr_scaled_params(snr_scaled_params(p, 5.0), 1.0 / 5.0)
        assert q.alpha == p.alpha
        assert q.beta == pytest.approx(p.beta, rel=1e-15)

    def test_shape_preserved(self):
        p = FadingParams(2.5, 1.1)
        for c in (0.1, 3.0, 100.0):
            assert snr_scaled_params(p, c).alpha == p.alpha


class TestGammaDistribution:
    def test_cdf_at_zero(self):
        assert gamma_cdf(0.0, FadingParams(2.0, 1.0)) == 0.0

    def test_exponential_survival(self):
        p = FadingParams(1.0, 2.0)
        assert gamma_ccdf_series(1.0, p) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_survival_from_incomplete_gamma(self):
        # Survival of a shape-3 gain equals Gamma(3, rate*g) / Gamma(3).
        p = FadingParams(3.0, 1.0)
        g = 1.5
        expected = math.exp(-g) * (g * g + 2 * g + 2) / 2.0
        assert gamma_ccdf_series(g, p) == pytest.approx(expected, rel=1e-13)

    def test_series_matches_cdf_complement(self):
        grid = np.linspace(0.0, 12.0, 25)
        for alpha in range(1, 9):
            p = FadingParams(float(alpha), 1.3)
            for g in grid:
                assert gamma_ccdf_series(g, p) == pytest.approx(
                    1.0 - gamma_cdf(g, p), abs=1e-12
                )

    def test_series_requires_integer_shape(self):
        with pytest.raises(ValueError):
            gamma_ccdf_series(1.0, FadingParams(2.5, 1.0))

    def test_pdf_normalizes(self):
        p = FadingParams(2.7, 1.9)
        val, _ = integrate.quad(lambda g: gamma_pdf(g, p), 0, np.inf)
        assert val == pytest.approx(1.0, rel=1e-10)


class TestGammaGamma:
    @pytest.mark.parametrize(
        "hops",
        [
            (FadingParams(2.0, 1.0), FadingParams(2.0, 1.0)),
            (FadingParams(3.0, 2.0), FadingParams(2.0, 5.0)),
            (FadingParams(2.5, 1.5), FadingParams(1.5, 2.0)),
        ],
    )
    def test_pdf_normalizes(self, hops):
        gg = GammaGammaParams.from_hops(*hops)
        val, _ = integrate.quad(
            lambda g: gamma_gamma_pdf(g, gg), 0, np.inf, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_product_of_hop_means(self):
        gg = GammaGammaParams.from_hops(FadingParams(2.0, 3.0), FadingParams(2.0, 5.0))
        assert gg.mean == pytest.approx(4.0 / 15.0, rel=1e-14)
        val, _ = integrate.quad(
            lambda g: g * gamma_gamma_pdf(g, gg), 0, np.inf, limit=200
        )
        assert val == pytest.approx(4.0 / 15.0, rel=1e-8)

    def test_moments_match_quadrature(self):
        gg = GammaGammaParams.from_hops(FadingParams(2.0, 1.0), FadingParams(3.0, 2.0))
        for k in (1, 2, 3):
            val, _ = integrate.quad(
                lambda g: g ** k * gamma_gamma_pdf(g, gg), 0, np.inf, limit=200
            )
            assert gamma_gamma_moment(gg, k) == pytest.approx(val, rel=1e-7)

    def test_rejects_nonpositive_argument(self):
        gg = GammaGammaParams.from_hops(FadingParams(2.0, 1.0), FadingParams(2.0, 1.0))
        with pytest.raises(ValueError):
            gamma_gamma_pdf(0.0, gg)


class TestSamplers:
    def test_sample_mean(self):
        rng = np.random.default_rng(1234)
        p = FadingParams(2.0, 4.0)
        draws = sample_gamma(p, rng, 1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 3.0 * se

    def test_fixed_seed_reproduces(self):
        p = FadingParams(2.0, 4.0)
        a = sample_gamma(p, np.random.default_rng(77), 1000)
        b = sample_gamma(p, np.random.default_rng(77), 1000)
        assert np.array_equal(a, b)

    def test_product_sampler_mean(self):
        rng = np.random.default_rng(5)
        p1 = FadingParams(2.0, 1.0)
        p2 = FadingParams(3.0, 1.0)
        draws = sample_gamma_gamma(p1, p2, rng, 1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 6.0) <= 3.0 * se


class TestScenarioParameterization:
    def _scenario(self):
        return ScenarioIrs(
            n_elements=4,
            geometry=Geometry(10.0, 10.0, 20.0, 2.0),
            fading_ts=FadingParams(2.0, 1.0),
            fading_sl=FadingParams(2.0, 1.0),
            fading_se=FadingParams(2.0, 1.0),
            tx_power_dbm=20.0,
            noise_power_legit=0.01,
            noise_power_eve=0.01,
        )

    def test_element_snr_moment_matches_sampling(self):
        # Sampled per-element SNR agrees in the first moment with the
        # product-distribution parameterization.
        scn = self._scenario()
        gg = irs_element_params(scn, "eve")
        rng = np.random.default_rng(99)
        power = 10.0 ** (scn.tx_power_dbm / 10.0)
        scale = power * 10.0 ** -2.0 * 20.0 ** -2.0 / scn.noise_power_eve
        draws = scale * rng.gamma(2.0, 1.0, 500_000) * rng.gamma(2.0, 1.0, 500_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - gg.mean) <= 3.0 * se

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Geometry(10.0, 0.0, 20.0, 2.0)

    def test_invalid_scenario_rejected(self):
        scn = self._scenario()
        with pytest.raises(ValueError):
            ScenarioIrs(
                n_elements=0,
                geometry=scn.geometry,
                fading_ts=scn.fading_ts,
                fading_sl=scn.fading_sl,
                fading_se=scn.fading_se,
                tx_power_dbm=20.0,
                noise_power_legit=0.01,
                noise_power_eve=0.01,
            )
