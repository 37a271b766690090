import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from linksec.capacity import (
    affg_ergodic_capacity,
    df_ergodic_capacity,
    ergodic_capacity_irs,
    secrecy_capacity,
)
from linksec import channels, montecarlo
from linksec.channels import FadingParams, Geometry, Scenario, relay_hops, surface_hops
from linksec.config import reference_config
from linksec.montecarlo import (
    _SCRATCH_VALUES,
    _STREAMS,
    ARCHITECTURES,
    McConfig,
    _ChunkStreams,
    _stream,
    branches,
    mc_branch_estimates,
)

EXP_CASE_BITS = float(np.e * special.exp1(1.0) / np.log(2.0))


def irs_scenario(n=2, power_dbm=10.0, d_eve=20.0, shape=2.0):
    return Scenario(
        geometry=Geometry(13.0, 10.0, d_eve, 2.0),
        fading_source_node=FadingParams(shape, 1.0),
        fading_node_legit=FadingParams(shape, 1.0),
        fading_node_eve=FadingParams(shape, 1.0),
        tx_power_dbm=power_dbm,
        noise_power_relay=0.01,
        noise_power_legit=0.01,
        noise_power_eve=0.01,
        n_elements=n,
    )


def relay_scenario(power_dbm=10.0, d_eve=20.0, shape=2.0):
    return irs_scenario(n=1, power_dbm=power_dbm, d_eve=d_eve, shape=shape)


def unit_rate_relay():
    # Unit scale factors: 1 m distances, 0 dB power, unit noise, so the hop
    # rates stay exactly as configured.
    return Scenario(
        geometry=Geometry(1.0, 1.0, 1.0, 2.0),
        fading_source_node=FadingParams(1, 0.5),
        fading_node_legit=FadingParams(1, 0.5),
        fading_node_eve=FadingParams(1, 0.5),
        tx_power_dbm=0.0,
        noise_power_relay=1.0,
        noise_power_legit=1.0,
        noise_power_eve=1.0,
    )


class TestConfig:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            McConfig(samples=10, master_seed=1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            McConfig(samples=1000, master_seed=2**64)

    @pytest.mark.parametrize(
        "field, value",
        [("samples", 2000.5), ("master_seed", 1.0), ("chunk_size", math.nan)],
    )
    def test_non_integer_rejected(self, field, value):
        fields = {"samples": 2000, "master_seed": 1, "chunk_size": 4096, field: value}
        with pytest.raises(ValueError, match=field):
            McConfig(**fields)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        cfg = McConfig(samples=50_000, master_seed=42, chunk_size=8192)
        scn = irs_scenario()
        a = mc_branch_estimates(scn, "irs", cfg)[0]
        b = mc_branch_estimates(scn, "irs", cfg)[0]
        assert a.bits_per_sec_hz == b.bits_per_sec_hz
        assert a.std_error == b.std_error

    def test_different_seeds_differ(self):
        scn = irs_scenario()
        a = mc_branch_estimates(scn, "irs", McConfig(samples=20_000, master_seed=1))[0]
        b = mc_branch_estimates(scn, "irs", McConfig(samples=20_000, master_seed=2))[0]
        assert a.bits_per_sec_hz != b.bits_per_sec_hz

    # (bits_per_sec_hz, std_error) of the legitimate and eavesdropper
    # branches on the reference scenarios at 4,096 samples and seed 23.
    PINNED = {
        "irs": [
            (3.2028972397048507, 0.010595874722380598),
            (1.649966863108654, 0.008133993957101134),
        ],
        "df": [
            (6.172871123734266, 0.017034662202768256),
            (5.109236038458263, 0.01629663049015434),
        ],
        "affg": [
            (5.5772501604896645, 0.019817176532390377),
            (4.4886176788838466, 0.020716512027424867),
        ],
    }

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_pinned_stream(self, architecture):
        # Any change of generator, seeding or draw layout moves these values
        # by about a standard error (0.3-0.5% of each value here).  The 1e-12 allowance only
        # absorbs last-bit differences of np.log1p, whose SIMD path on
        # AVX-512 and the libm fallback disagree by one ulp on a few
        # percent of inputs.
        cfg = McConfig(samples=4096, master_seed=23)
        got = [
            (est.bits_per_sec_hz, est.std_error)
            for est in mc_branch_estimates(reference_config().scenario, architecture, cfg)
        ]
        assert got == [pytest.approx(pair, rel=1e-12, abs=0) for pair in self.PINNED[architecture]]

    def test_chunks_draw_distinct_streams(self):
        # A seeding that dropped the chunk or sub-stream index would repeat
        # draws across chunks or pieces and understate the s.e.
        cfg = McConfig(samples=1000, master_seed=31)
        next_seed = McConfig(samples=1000, master_seed=32)
        draws = [
            tuple(_stream(c, chunk, sub).random(4))
            for c in (cfg, next_seed)
            for chunk in (0, 1)
            for sub in range(_STREAMS)
        ]
        assert len(set(draws)) == len(draws)


class TestParallelFill:
    # The sub-streams, not the threads, decide every draw: one thread and
    # one per CPU must give the same bytes.

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    @pytest.mark.parametrize("samples", [20_000, 65_537])
    def test_thread_count_does_not_change_draws(self, monkeypatch, architecture, samples):
        # 65,537 samples leave a final 1-row chunk: a relay's last arrays hold
        # one value, so three of its four pieces are empty.
        scn = irs_scenario(n=2)
        cfg = McConfig(samples=samples, master_seed=25)
        results = []
        for threads in (1, _STREAMS, montecarlo._threads()):
            monkeypatch.setattr(montecarlo, "_threads", lambda threads=threads: threads)
            results.append(mc_branch_estimates(scn, architecture, cfg))
        assert results[0] == results[1] == results[2]
        assert all(math.isfinite(est.std_error) and est.std_error > 0 for est in results[0])

    def test_pieces_come_from_their_sub_streams(self):
        # Piece s of a 10-value array is sub-stream s's next draws, scaled.
        cfg = McConfig(samples=1000, master_seed=26)
        got = _ChunkStreams(cfg, 3).gamma(2.5, 0.5, (2, 5)).reshape(-1)
        bounds = [10 * sub // _STREAMS for sub in range(_STREAMS + 1)]
        for sub in range(_STREAMS):
            want = _stream(cfg, 3, sub).gamma(2.5, 0.5, bounds[sub + 1] - bounds[sub])
            assert np.array_equal(got[bounds[sub]:bounds[sub + 1]], want)

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_sample_gamma_runs_on_the_calling_thread(self, monkeypatch, architecture):
        # A tracer that wraps channels.sample_gamma keeps one span stack, so
        # every call must be made, and return, on the caller's thread: three
        # per chunk, one per hop.
        callers = []
        inner = channels.sample_gamma

        def recording(*args, **kwargs):
            callers.append(threading.get_ident())
            return inner(*args, **kwargs)

        monkeypatch.setattr(channels, "sample_gamma", recording)
        monkeypatch.setattr(montecarlo, "_threads", lambda: _STREAMS)
        cfg = McConfig(samples=3 * 8192 + 1, master_seed=27, chunk_size=8192)
        mc_branch_estimates(irs_scenario(n=2), architecture, cfg)
        assert callers == [threading.get_ident()] * (3 * 4)


class TestErlangFill:
    # Integer shapes 1 to 5 are -log of a product of uniforms; every other
    # shape is standard_gamma, bit for bit.

    @staticmethod
    def erlang_piece(rng, k, size, scale):
        # The documented draw order, block by block: the block's uniforms,
        # then k - 1 more rounds of them, each taken as 1 - u and multiplied
        # in; then -log, scaled.
        piece = np.empty(size)
        for start in range(0, size, _SCRATCH_VALUES):
            block = piece[start:start + _SCRATCH_VALUES]
            block[:] = 1.0 - rng.random(block.size)
            for _ in range(k - 1):
                block *= 1.0 - rng.random(block.size)
            block[:] = -np.log(block) * scale
        return piece

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 10 * _SCRATCH_VALUES + 3])
    def test_pieces_are_sub_stream_exponential_sums(self, k, size):
        # -log of the product is the sum of k exponentials -log(1 - u), each
        # drawn by inversion.  One value leaves three empty pieces and a
        # piece of one; the large array gives pieces of 2.5 scratch blocks,
        # the last one partial.
        cfg = McConfig(samples=1000, master_seed=28)
        got = _ChunkStreams(cfg, 2).gamma(float(k), 0.25, size)
        bounds = [size * sub // _STREAMS for sub in range(_STREAMS + 1)]
        for sub in range(_STREAMS):
            want = self.erlang_piece(_stream(cfg, 2, sub), k, bounds[sub + 1] - bounds[sub], 0.25)
            assert got[bounds[sub]:bounds[sub + 1]].tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_erlang_draws_follow_gamma(self, k):
        scale = 0.4
        n = 10**6
        draws = _ChunkStreams(McConfig(samples=n, master_seed=29), 0).gamma(float(k), scale, n)
        assert stats.kstest(draws, stats.gamma(k, scale=scale).cdf).pvalue > 1e-3
        mean, var = k * scale, k * scale**2
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / n)
        # Var of the sample variance: var^2 (2 + 6/k) / n, from the Gamma
        # excess kurtosis 6/k.
        assert abs(draws.var(ddof=1) - var) < 5 * var * math.sqrt((2 + 6 / k) / n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_uniform_edges_give_finite_draws(self, monkeypatch, k):
        # Generator.random returns [0, 1): at u = 0 every factor 1 - u is 1
        # and the draw is 0; at the largest u, 1 - 2^-53, each factor is
        # 2^-53 and the product 2^(-53 k) is still a normal float.  Drawing
        # log(u) instead would give inf at u = 0.
        class Constant:
            def __init__(self, value):
                self.value = value

            def random(self, out):
                out.fill(self.value)

        scale = 0.25
        size = 2 * _SCRATCH_VALUES + 3
        cfg = McConfig(samples=1000, master_seed=1)
        for u, want in ((0.0, 0.0), (1.0 - 2.0**-53, -np.log(2.0 ** (-53 * k)) * scale)):
            monkeypatch.setattr(montecarlo, "_stream", lambda cfg, chunk, sub: Constant(u))
            draws = _ChunkStreams(cfg, 0).gamma(float(k), scale, size)
            assert np.isfinite(draws).all()
            assert (draws == want).all()

    @pytest.mark.parametrize("shape", [2.5, 2.0000001, 6.0])
    def test_other_shapes_are_standard_gamma(self, shape):
        # Non-integer shapes and integers above 5 call standard_gamma.
        cfg = McConfig(samples=1000, master_seed=30)
        size = 4 * _SCRATCH_VALUES + 5
        got = _ChunkStreams(cfg, 1).gamma(shape, 3.0, size)
        bounds = [size * sub // _STREAMS for sub in range(_STREAMS + 1)]
        want = np.concatenate([
            _stream(cfg, 1, sub).standard_gamma(shape, bounds[sub + 1] - bounds[sub]) * 3.0
            for sub in range(_STREAMS)
        ])
        assert got.tobytes() == want.tobytes()


class TestChunkBound:
    def test_wide_surface_memory_bounded(self):
        # Unbounded, one 4,096-row chunk at N = 1024 draws three 32 MiB
        # arrays; capped, no array exceeds 2^18 values (2 MiB).
        scn = irs_scenario(n=1024)
        cfg = McConfig(samples=4096, master_seed=21, chunk_size=65536)
        tracemalloc.start()
        try:
            mc_branch_estimates(scn, "irs", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_capped_chunk_sizes_agree(self):
        # At N = 256 every chunk_size of 1,024 rows or more is capped to
        # 2^18 // 256 = 1,024 rows, so the draws are the same.
        scn = irs_scenario(n=256)
        results = {
            mc_branch_estimates(
                scn, "irs", McConfig(samples=8192, master_seed=22, chunk_size=chunk_size)
            )
            for chunk_size in (2048, 65536, 2**20)
        }
        assert len(results) == 1

    def test_chunk_within_cap_is_one_draw(self):
        # N = 4 at 65,536 rows is exactly 2^18 values per hop: one chunk,
        # drawn in one call from chunk 0's stream.
        scn = irs_scenario(n=4)
        n = 65536
        cfg = McConfig(samples=n, master_seed=23, chunk_size=n)
        snrs = ARCHITECTURES["irs"].snr(scn, _ChunkStreams(cfg, 0), n)
        for est, snr in zip(mc_branch_estimates(scn, "irs", cfg), snrs):
            bits = np.log1p(snr) / math.log(2.0)
            mean = float(bits.sum()) / n
            var = max(float((bits * bits).sum()) - n * mean * mean, 0.0) / (n - 1)
            assert est.bits_per_sec_hz == mean
            assert est.std_error == math.sqrt(var / n)

    @pytest.mark.parametrize("architecture", ["df", "affg"])
    def test_relay_draws_ignore_element_count(self, architecture):
        # A relay reads no n_elements, so its chunks keep their width, and
        # its draws their stream, however many elements the scenario names.
        cfg = McConfig(samples=10_000, master_seed=24)
        one = mc_branch_estimates(irs_scenario(n=1), architecture, cfg)
        wide = mc_branch_estimates(irs_scenario(n=64), architecture, cfg)
        assert one == wide


class TestAgainstClosedForms:
    def test_irs_single_element(self):
        scn = irs_scenario(n=1)
        cfg = McConfig(samples=400_000, master_seed=7)
        mc = mc_branch_estimates(scn, "irs", cfg)[0]
        ana = ergodic_capacity_irs(scn, "legit")
        assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    def test_df_exponential_case(self):
        cfg = McConfig(samples=1_000_000, master_seed=13)
        mc = mc_branch_estimates(unit_rate_relay(), "df", cfg)[0]
        assert abs(mc.bits_per_sec_hz - EXP_CASE_BITS) <= 3.0 * mc.std_error

    @pytest.mark.parametrize("shape", [1, 2, 3])
    def test_df_matches_analytic(self, shape):
        scn = relay_scenario(shape=shape)
        cfg = McConfig(samples=400_000, master_seed=17)
        mc = mc_branch_estimates(scn, "df", cfg)[1]
        ana = df_ergodic_capacity(*relay_hops(scn, "eve"))
        assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    def test_affg_matches_analytic(self):
        scn = relay_scenario()
        cfg = McConfig(samples=400_000, master_seed=19)
        mc = mc_branch_estimates(scn, "affg", cfg)[0]
        ana = affg_ergodic_capacity(*relay_hops(scn, "legit"))
        assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    def test_affg_finite_at_extreme_power(self):
        # At 2000 dB the hop SNRs reach about 1e200, so the product of two
        # of them overflows; the simulator must still match the analytic value.
        scn = relay_scenario(power_dbm=2000.0)
        cfg = McConfig(samples=20_000, master_seed=1)
        for mc, receiver in zip(mc_branch_estimates(scn, "affg", cfg), ("legit", "eve")):
            ana = affg_ergodic_capacity(*relay_hops(scn, receiver))
            assert math.isfinite(mc.bits_per_sec_hz) and mc.std_error > 0
            assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 5.0 * mc.std_error


class TestStructuralProperties:
    def test_min_bound(self):
        scn = relay_scenario()
        cfg = McConfig(samples=100_000, master_seed=3)
        df = mc_branch_estimates(scn, "df", cfg)[0]
        # Single-hop capacities estimated with the same budget.
        legit = scn.fading_node_legit
        one = mc_branch_estimates(
            dataclasses.replace(
                scn, fading_node_legit=FadingParams(legit.alpha, legit.beta * 1e-9)
            ),
            "df",
            cfg,
        )[0]
        combined_se = math.hypot(df.std_error, one.std_error)
        assert df.bits_per_sec_hz <= one.bits_per_sec_hz + 3.0 * combined_se

    def test_affg_below_df(self):
        scn = relay_scenario()
        cfg = McConfig(samples=200_000, master_seed=4)
        df = mc_branch_estimates(scn, "df", cfg)[0]
        af = mc_branch_estimates(scn, "affg", cfg)[0]
        assert af.bits_per_sec_hz <= df.bits_per_sec_hz

    def test_doubling_elements_increases_capacity(self):
        cfg = McConfig(samples=200_000, master_seed=5)
        c2 = mc_branch_estimates(irs_scenario(n=2), "irs", cfg)[0]
        c4 = mc_branch_estimates(irs_scenario(n=4), "irs", cfg)[0]
        gap_se = math.hypot(c2.std_error, c4.std_error)
        assert c4.bits_per_sec_hz - c2.bits_per_sec_hz > 3.0 * gap_se

    def test_se_scales_with_sample_count(self):
        scn = irs_scenario()
        se_small = mc_branch_estimates(
            scn, "irs", McConfig(samples=10_000, master_seed=6)
        )[0].std_error
        se_large = mc_branch_estimates(
            scn, "irs", McConfig(samples=1_000_000, master_seed=6)
        )[0].std_error
        ratio = se_small / se_large
        assert 10.0 * 0.8 <= ratio <= 10.0 * 1.2


class TestSecrecy:
    def test_symmetric_scenario_near_zero(self):
        scn = irs_scenario(n=2, d_eve=10.0)
        cfg = McConfig(samples=200_000, master_seed=8)
        est = secrecy_capacity(*branches(scn, "irs", cfg))
        assert est.bits_per_sec_hz <= 3.0 * est.std_error

    def test_increases_with_eavesdropper_distance(self):
        cfg = McConfig(samples=200_000, master_seed=9)
        values = []
        for d_eve in (12.0, 20.0, 32.0):
            scn = relay_scenario(power_dbm=20.0, d_eve=d_eve)
            values.append(secrecy_capacity(*branches(scn, "df", cfg)).bits_per_sec_hz)
        assert values[0] < values[1] < values[2]

    def test_shared_hop_estimator_unbiased(self):
        scn = relay_scenario(power_dbm=20.0)
        cfg = McConfig(samples=400_000, master_seed=10)
        paired = secrecy_capacity(*branches(scn, "df", cfg))
        le = mc_branch_estimates(scn, "df", McConfig(samples=400_000, master_seed=11))[0]
        ev = mc_branch_estimates(scn, "df", McConfig(samples=400_000, master_seed=12))[1]
        independent = max(le.bits_per_sec_hz - ev.bits_per_sec_hz, 0.0)
        combined_se = math.hypot(paired.std_error, math.hypot(le.std_error, ev.std_error))
        assert abs(paired.bits_per_sec_hz - independent) <= 3.0 * combined_se

    def test_matches_analytic_per_architecture(self):
        cfg = McConfig(samples=400_000, master_seed=14)
        scn_i = irs_scenario(n=4, power_dbm=20.0)
        scn_r = relay_scenario(power_dbm=20.0)
        for name, scn in (("irs", scn_i), ("df", scn_r), ("affg", scn_r)):
            mc = secrecy_capacity(*branches(scn, name, cfg))
            ana = secrecy_capacity(*branches(scn, name))
            assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    def test_architecture_validation(self):
        cfg = McConfig(samples=1000, master_seed=1)
        with pytest.raises(ValueError):
            mc_branch_estimates(relay_scenario(), "laser", cfg)
        for mc in (None, cfg):
            with pytest.raises(ValueError, match="architecture must be one of"):
                branches(relay_scenario(), "laser", mc)

    # Every function that takes a receiver name: the analytic capacities and
    # the link model beneath both routes.
    RECEIVER_READERS = {
        **{name: arch.analytic for name, arch in ARCHITECTURES.items()},
        "relay_hops": relay_hops,
        "surface_hops": surface_hops,
    }

    @pytest.mark.parametrize("reader", sorted(RECEIVER_READERS))
    def test_analytic_receiver_validation(self, reader):
        # "first" names the relays' first hop, which is no receiver.
        for receiver in ("first", "laser"):
            with pytest.raises(ValueError, match="receiver must be one of"):
                self.RECEIVER_READERS[reader](relay_scenario(), receiver)
