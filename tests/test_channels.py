import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from linksec import channels
from linksec.channels import (
    FadingParams,
    Scenario,
    relay_hops,
    sample_gamma,
    surface_hops,
)
from oracles import (
    gamma_ccdf_series,
    gamma_cdf,
    gamma_gamma_moment,
    gamma_gamma_pdf,
    gamma_pdf,
    sample_gamma_gamma,
    snr_scaled_params,
)


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

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            snr_scaled_params(FadingParams(2.0, 4.0), scale)


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
        val, _ = integrate.quad(
            lambda g: gamma_gamma_pdf(g, *hops), 0, np.inf, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_product_of_hop_means(self):
        hops = (FadingParams(2.0, 3.0), FadingParams(2.0, 5.0))
        assert gamma_gamma_moment(*hops, 1) == pytest.approx(4.0 / 15.0, rel=1e-14)
        val, _ = integrate.quad(
            lambda g: g * gamma_gamma_pdf(g, *hops), 0, np.inf, limit=200
        )
        assert val == pytest.approx(4.0 / 15.0, rel=1e-8)

    def test_moments_match_quadrature(self):
        hops = (FadingParams(2.0, 1.0), FadingParams(3.0, 2.0))
        for k in (1, 2, 3):
            val, _ = integrate.quad(
                lambda g: g ** k * gamma_gamma_pdf(g, *hops), 0, np.inf, limit=200
            )
            assert gamma_gamma_moment(*hops, k) == pytest.approx(val, rel=1e-7)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            gamma_gamma_pdf(0.0, FadingParams(2.0, 1.0), FadingParams(2.0, 1.0))


class TestLinkModel:
    # Every distance, noise power, rate and shape differs, so a hop that
    # read another hop's distance or noise power would move its mean.
    SCENARIO = Scenario(
        d_source_node=7.0, d_node_legit=11.0, d_node_eve=17.0, pathloss_exponent=2.7,
        fading_source_node=FadingParams(2.3, 1.7),
        fading_node_legit=FadingParams(3.1, 0.9),
        fading_node_eve=FadingParams(1.6, 2.2),
        tx_power_dbm=23.0,
        noise_power_relay=0.02,
        noise_power_legit=0.03,
        noise_power_eve=0.05,
        n_elements=5,
    )
    POWER = 10.0 ** 2.3
    # Mean gain of each hop before power, pathloss and noise.
    MEAN_FIRST = 2.3 / 1.7
    MEAN_RX = {"legit": 3.1 / 0.9, "eve": 1.6 / 2.2}
    D_RX = {"legit": 11.0, "eve": 17.0}
    NOISE_RX = {"legit": 0.03, "eve": 0.05}

    # A hop function returns (first, second_L, second_E).
    INDEX = {"legit": 1, "eve": 2}

    @pytest.mark.parametrize("rx", ["legit", "eve"])
    def test_relay_hop_means(self, rx):
        hops = relay_hops(self.SCENARIO)
        first, second = hops[0], hops[self.INDEX[rx]]
        mean_first = self.MEAN_FIRST * self.POWER * 7.0 ** -2.7 / 0.02
        mean_second = self.MEAN_RX[rx] * self.POWER * self.D_RX[rx] ** -2.7 / self.NOISE_RX[rx]
        assert len(hops) == 3
        assert first.mean == pytest.approx(mean_first, rel=1e-13)
        assert second.mean == pytest.approx(mean_second, rel=1e-13)

    @pytest.mark.parametrize("rx", ["legit", "eve"])
    def test_surface_element_mean(self, rx):
        hops = surface_hops(self.SCENARIO)
        x, y = hops[0], hops[self.INDEX[rx]]
        mean = (
            self.MEAN_FIRST
            * self.MEAN_RX[rx]
            * self.POWER
            * 7.0 ** -2.7
            * self.D_RX[rx] ** -2.7
            / self.NOISE_RX[rx]
        )
        # X is the configured source-element gain; Y carries every factor.
        assert len(hops) == 3
        assert x == self.SCENARIO.fading_source_node
        assert x.mean * y.mean == pytest.approx(mean, rel=1e-13)

    @pytest.mark.parametrize("hops", [relay_hops, surface_hops])
    def test_receivers_swap_their_second_hops(self, hops):
        # The first hop reads no receiver's fading, distance or noise, and
        # the second hops come legitimate first: swapping the receivers
        # swaps the last two entries, bit for bit, and leaves the first.
        s = self.SCENARIO
        swapped = dataclasses.replace(
            s,
            d_node_legit=s.d_node_eve,
            d_node_eve=s.d_node_legit,
            fading_node_legit=s.fading_node_eve,
            fading_node_eve=s.fading_node_legit,
            noise_power_legit=s.noise_power_eve,
            noise_power_eve=s.noise_power_legit,
        )
        first, legit, eve = hops(s)
        assert legit != eve
        assert hops(swapped) == (first, eve, legit)

    @pytest.mark.parametrize("hops, folds", [(relay_hops, 3), (surface_hops, 2)])
    def test_each_hop_folded_once(self, monkeypatch, hops, folds):
        # Both relay receivers share one folded first hop, and the surface's
        # X is the configured fading, folded not at all.
        calls = []
        folded = channels._folded
        monkeypatch.setattr(channels, "_folded", lambda *a: calls.append(a) or folded(*a))
        hops(self.SCENARIO)
        assert len(calls) == folds


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


# The scenario's distances and pathloss exponent, each checked by name.
GEOMETRY_FIELDS = ("d_source_node", "d_node_legit", "d_node_eve", "pathloss_exponent")


class TestScenarioParameterization:
    def _scenario(self):
        return Scenario(
            d_source_node=10.0, d_node_legit=10.0, d_node_eve=20.0, pathloss_exponent=2.0,
            fading_source_node=FadingParams(2.0, 1.0),
            fading_node_legit=FadingParams(2.0, 1.0),
            fading_node_eve=FadingParams(2.0, 1.0),
            tx_power_dbm=20.0,
            noise_power_relay=0.01,
            noise_power_legit=0.01,
            noise_power_eve=0.01,
            n_elements=4,
        )

    def test_element_snr_moment_matches_sampling(self):
        # Sampled per-element SNR agrees in the first moment with the
        # product-distribution parameterization.
        scn = self._scenario()
        x, _, y = surface_hops(scn)
        rng = np.random.default_rng(99)
        power = 10.0 ** (scn.tx_power_dbm / 10.0)
        scale = power * 10.0 ** -2.0 * 20.0 ** -2.0 / scn.noise_power_eve
        draws = scale * rng.gamma(2.0, 1.0, 500_000) * rng.gamma(2.0, 1.0, 500_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - x.mean * y.mean) <= 3.0 * se

    def test_invalid_geometry_rejected(self):
        scn = self._scenario()
        for field in GEOMETRY_FIELDS:
            with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
                dataclasses.replace(scn, **{field: -3.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_nonpositive_values_rejected(self, bad):
        scn = self._scenario()
        with pytest.raises(ValueError):
            FadingParams(bad, 1.0)
        with pytest.raises(ValueError):
            FadingParams(2.0, bad)
        for field in GEOMETRY_FIELDS:
            with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
                dataclasses.replace(scn, **{field: bad})
        for field in ("noise_power_relay", "noise_power_legit", "noise_power_eve"):
            with pytest.raises(ValueError):
                dataclasses.replace(scn, **{field: bad})
        if not math.isfinite(bad):
            with pytest.raises(ValueError):
                dataclasses.replace(scn, tx_power_dbm=bad)
        if math.isnan(bad):
            with pytest.raises(ValueError):
                dataclasses.replace(scn, n_elements=bad)

    def test_invalid_scenario_rejected(self):
        scn = self._scenario()
        with pytest.raises(ValueError):
            Scenario(
                **{field: getattr(scn, field) for field in GEOMETRY_FIELDS},
                fading_source_node=scn.fading_source_node,
                fading_node_legit=scn.fading_node_legit,
                fading_node_eve=scn.fading_node_eve,
                tx_power_dbm=20.0,
                noise_power_relay=0.01,
                noise_power_legit=0.01,
                noise_power_eve=0.01,
                n_elements=0,
            )

    def test_non_integer_element_count_rejected(self):
        scn = self._scenario()
        for bad in (2.5, 4.0, math.inf, "4"):
            with pytest.raises(ValueError, match="n_elements"):
                dataclasses.replace(scn, n_elements=bad)
        assert dataclasses.replace(scn, n_elements=np.int64(4)).n_elements == 4
