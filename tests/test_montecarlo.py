import collections
import dataclasses
import math
import tracemalloc
import warnings

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
    _ERLANG_MAX_SHAPE,
    _STREAMS,
    ARCHITECTURES,
    McConfig,
    _fill,
    _stream,
    _sub_chunk_sums,
    branches,
    mc_branch_estimates,
    mc_element_estimates,
)
from oracles import erlang_pairs, paired_mc_estimates, simulated_bits

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

    @pytest.mark.parametrize("chunk_size", [7, True])
    def test_chunk_below_eight_rows_rejected(self, chunk_size):
        # Below 8 rows a sub-chunk of a full chunk could hold one row and no
        # pair.  True is an integer, one row.
        with pytest.raises(ValueError, match="chunk_size"):
            McConfig(samples=1000, master_seed=1, chunk_size=chunk_size)

    def test_chunk_of_eight_rows_accepted(self):
        assert McConfig(samples=1000, master_seed=1, chunk_size=8).chunk_size == 8


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
            (3.2127143218450835, 0.007236432818451064),
            (1.6472899200719966, 0.005476301625092456),
        ],
        "df": [
            (6.187593334865431, 0.012014787604740163),
            (5.106762458496132, 0.010461448178304545),
        ],
        "affg": [
            (5.596079435462679, 0.009727723328590418),
            (4.483112098610343, 0.009753520761639026),
        ],
    }

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_pinned_stream(self, architecture):
        # Any change of generator, seeding or draw layout moves these values
        # by about a standard error (0.2-0.35% of each value here).  The 1e-12 allowance only
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
    # The sub-streams, not the threads, decide every draw, and partial sums
    # are reduced in (chunk, sub-chunk) order: one thread and several must
    # give the same bytes.

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    @pytest.mark.parametrize("samples", [20_000, 65_537])
    def test_thread_count_does_not_change_draws(self, monkeypatch, architecture, samples):
        # 65,537 samples leave a final 1-row chunk, so three of its four
        # sub-chunks are empty.
        scn = irs_scenario(n=2)
        cfg = McConfig(samples=samples, master_seed=25)
        results = []
        for threads in (1, 2, 4):
            monkeypatch.setattr(montecarlo, "_threads", lambda threads=threads: threads)
            estimates = mc_branch_estimates(scn, architecture, cfg)
            results.append(np.array([(e.bits_per_sec_hz, e.std_error) for e in estimates]).tobytes())
        assert results[0] == results[1] == results[2]
        assert all(math.isfinite(est.std_error) and est.std_error > 0 for est in estimates)

    @staticmethod
    def read_layout(scn, architecture, cfg):
        # (legit, eve) moment vectors (Σb, Σb², Σs, Σs²), s the pair sums,
        # reduced in (chunk, sub-chunk) order off the documented layout, and
        # the number of pairs: row r of m rows pairs with row r + m - m // 2.
        sums, pairs = np.zeros((2, 4)), 0
        for bits in simulated_bits(scn, architecture, cfg):
            half = bits[0].size // 2
            pairs += half
            for receiver, b in enumerate(bits):
                s = b[:half] + b[b.size - half :]
                sums[receiver] += (b.sum(), (b * b).sum(), s.sum(), (s * s).sum())
        return sums.tolist(), pairs

    @pytest.mark.parametrize("elements", [1, 6])
    def test_sub_chunks_come_from_their_sub_streams(self, elements):
        # The layout read independently, at shape 2.5, where every draw is
        # Generator.gamma: chunks of 4,099 rows, the last one partial, each
        # split at rows n*s//4 into unequal sub-chunks, odd ones too;
        # sub-chunk s draws from sub-stream s, a surface in blocks of four
        # elements (the first of N = 1, the second of N = 6, drawn whole);
        # the partial moments of the bits and of the pair sums are reduced
        # in (chunk, sub-chunk) order.  N = 1 is a one-element pass on every
        # row.
        scn = irs_scenario(n=elements, shape=2.5)
        cfg = McConfig(samples=20_000, master_seed=26, chunk_size=4099)
        n = cfg.samples
        for architecture in ARCHITECTURES:
            got = mc_branch_estimates(scn, architecture, cfg)
            moments, pairs = self.read_layout(scn, architecture, cfg)
            assert n - 2 * pairs == 16  # one unpaired row per odd sub-chunk
            for est, (s1, s2, p1, p2) in zip(got, moments):
                mean = s1 / n
                var = max(s2 - n * mean * mean, 0.0) / (n - 1)
                pair_mean = p1 / pairs
                pair_var = max(p2 - pairs * pair_mean * pair_mean, 0.0) / (pairs - 1)
                assert est.bits_per_sec_hz == mean
                assert est.std_error == math.sqrt(pairs * pair_var + (n - 2 * pairs) * var) / n

    @pytest.mark.parametrize("chunk_size", [65536, 4099, 8, 9])
    @pytest.mark.parametrize("shape", [2.0, 2.5])
    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_standard_error_matches_pair_sum_oracle(self, architecture, shape, chunk_size):
        # The oracle reads the same draws and takes the s.e. over pair sums
        # with NumPy's two-pass variance: sub-chunks of 5,000 rows (all
        # paired), of 1,024 and 1,025 (one unpaired middle row each when
        # odd), of two rows at the smallest chunk, 8, and of two and three
        # rows at chunk size 9.
        samples = 20_000 if chunk_size > 9 else 1000
        cfg = McConfig(samples=samples, master_seed=37, chunk_size=chunk_size)
        scn = irs_scenario(n=6, shape=shape)
        got = mc_branch_estimates(scn, architecture, cfg)
        want = paired_mc_estimates(scn, architecture, cfg)
        for est, (mean, std_error) in zip(got, want):
            assert est.bits_per_sec_hz == pytest.approx(mean, rel=1e-12, abs=0)
            assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_pairs_are_negatively_correlated(self, architecture):
        # Each architecture's bits rise with every hop, so row r and its
        # partner r + h, drawn from 1 - u and u + 2^-53, move apart.  Over
        # 8,192 pairs at 20 dB the correlation here is -0.50 (DF) to -0.78
        # (AFFG); a partner drawn independently gives 0 +- 0.011.
        scn = irs_scenario(n=4, power_dbm=20.0)
        arch = ARCHITECTURES[architecture]
        hops = arch.hops(scn)
        width, count = (4, 4) if arch.per_element else (1, 1)
        rows, pairs = 2**14, 2**13
        rng = _stream(McConfig(samples=1000, master_seed=36), 0, 0)
        for s1, s2, p1, p2 in _sub_chunk_sums(arch, hops, rng, rows, width, [count])[0].tolist():
            var = (s2 - s1 * s1 / rows) / (rows - 1)
            pair_var = (p2 - p1 * p1 / pairs) / (pairs - 1)
            # Var(b_r + b_(r+h)) = 2 Var(b) (1 + correlation).
            assert pair_var / (2.0 * var) - 1.0 < -0.2

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_simulator_never_calls_sample_gamma(self, monkeypatch, architecture):
        # The pool threads draw through the private fill.  A tracer that
        # wraps channels.sample_gamma keeps one span stack, which calls
        # from pool threads would tangle.
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the simulator called channels.sample_gamma")

        monkeypatch.setattr(channels, "sample_gamma", recording)
        cfg = McConfig(samples=3 * 8192 + 1, master_seed=27, chunk_size=8192)
        mc_branch_estimates(irs_scenario(n=2), architecture, cfg)
        mc_element_estimates(irs_scenario(), architecture, cfg, [1, 5])
        assert calls == []


class TestErlangFill:
    # Integer shapes 1 to 6 are -log of a product of uniforms, in antithetic
    # row pairs; every other shape is Generator.gamma, bit for bit.

    # The documented draw order: k rounds of uniforms over the first
    # m - m // 2 rows, each taken as 1 - u there and, for the first m // 2,
    # as u + 2^-53 in the last m // 2 rows; then -log, scaled.  An odd
    # block's middle row is unpaired.
    erlang_fill = staticmethod(erlang_pairs)

    @staticmethod
    def fill(rng, hop, shape):
        return _fill(rng, hop, np.empty(shape), np.empty(shape))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("size", [1, 327_683])
    def test_pieces_are_sub_stream_exponential_sums(self, k, size):
        # -log of the product is the sum of k exponentials, each drawn by
        # inversion.  One value is an unpaired row alone; an array of five
        # times the largest surface block and three is 163,841 pairs and an
        # unpaired middle row, drawn in k whole rounds.
        cfg = McConfig(samples=1000, master_seed=28)
        got = self.fill(_stream(cfg, 2, 1), FadingParams(k, 4.0), size)
        want = self.erlang_fill(_stream(cfg, 2, 1), k, size, 0.25)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 5])
    def test_surface_blocks_fill_in_flat_order(self, k):
        # A surface block pairs the rows of each element, and each round
        # draws one (4, 8,193) array, in flat order, across the elements;
        # each element's middle row draws in those rounds, unpaired.
        cfg = McConfig(samples=1000, master_seed=28)
        shape = (4, 16_385)
        got = self.fill(_stream(cfg, 0, 2), FadingParams(k, 4.0), shape)
        want = self.erlang_fill(_stream(cfg, 0, 2), k, shape, 0.25)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_erlang_draws_follow_gamma(self, k):
        scale = 0.4
        n = 10**6
        rng = _stream(McConfig(samples=n, master_seed=29), 0, 0)
        values = self.fill(rng, FadingParams(k, 1.0 / scale), n)
        # Each half is i.i.d.; the whole array is not, since row r and row
        # r + n/2 are a pair.
        for draws in np.split(values, 2):
            m = draws.size
            assert stats.kstest(draws, stats.gamma(k, scale=scale).cdf).pvalue > 1e-3
            mean, var = k * scale, k * scale**2
            assert abs(draws.mean() - mean) < 5 * math.sqrt(var / m)
            # Var of the sample variance: var^2 (2 + 6/k) / m, from the
            # Gamma excess kurtosis 6/k.
            assert abs(draws.var(ddof=1) - var) < 5 * var * math.sqrt((2 + 6 / k) / m)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_uniform_edges_give_finite_draws(self, k):
        # Generator.random returns [0, 1).  At u = 0 every factor 1 - u is 1
        # and the first row's draw is 0, while the partner's factor
        # u + 2^-53 is 2^-53, so its product 2^(-53 k) is still a normal
        # float and its draw 53 k ln 2 scale.  At the largest u, 1 - 2^-53,
        # the roles swap and the partner's draw is 0.  Taking u itself as
        # the partner's factor would give inf at u = 0.  65,539 rows are
        # 32,769 pairs and an unpaired middle row, which draws as a first
        # row.
        class Constant:
            def __init__(self, value):
                self.value = value

            def random(self, out):
                out.fill(self.value)

        scale, rows = 0.25, 65_539
        top = -np.log(2.0 ** (-53 * k)) * scale
        assert top == pytest.approx(53 * k * math.log(2.0) * scale, rel=1e-15)
        for u, first, partner in ((0.0, 0.0, top), (1.0 - 2.0**-53, top, 0.0)):
            draws = self.fill(Constant(u), FadingParams(k, 1.0 / scale), rows)
            split = rows - rows // 2
            assert np.isfinite(draws).all()
            assert (draws[:split] == first).all()
            assert (draws[split:] == partner).all()

    @pytest.mark.parametrize("shape", [2.5, 2.0000001, 7.0])
    def test_other_shapes_are_standard_gamma(self, shape):
        # Non-integer shapes and integers above 6 call standard_gamma,
        # scaled: the bits of Generator.gamma.
        assert shape > _ERLANG_MAX_SHAPE or not shape.is_integer()
        cfg = McConfig(samples=1000, master_seed=30)
        size = 131_077
        got = self.fill(_stream(cfg, 1, 3), FadingParams(shape, 0.5), size)
        want = _stream(cfg, 1, 3).gamma(shape, 2.0, size)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [2.0, 6.0, 2.5])
    def test_fill_allocates_nothing(self, shape):
        # Both paths work in the arrays they are given: tracing a fill of a
        # 4 x 16,384 surface block peaks at a few hundred bytes, where one
        # scratch block would take 512 KiB.
        out, scratch = np.empty((4, 16_384)), np.empty((4, 16_384))
        rng = _stream(McConfig(samples=1000, master_seed=35), 0, 0)
        hop = FadingParams(shape, 2.0)
        _fill(rng, hop, out, scratch)
        tracemalloc.start()
        try:
            _fill(rng, hop, out, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096


class TestChunkBound:
    def test_wide_surface_memory_bounded(self):
        # Unbounded, one 4,096-row chunk at N = 1024 draws three 32 MiB
        # arrays; capped, no array exceeds 2^16 values (512 KiB).
        scn = irs_scenario(n=1024)
        cfg = McConfig(samples=4096, master_seed=21, chunk_size=65536)
        tracemalloc.start()
        try:
            mc_branch_estimates(scn, "irs", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @staticmethod
    def fill_shapes(monkeypatch, scn, cfg):
        # The shape of every array the simulator fills, from any thread.
        shapes = collections.Counter()
        inner = montecarlo._fill

        def recording(rng, hop, out, scratch):
            shapes[out.shape] += 1
            return inner(rng, hop, out, scratch)

        monkeypatch.setattr(montecarlo, "_fill", recording)
        mc_branch_estimates(scn, "irs", cfg)
        return shapes

    def test_surface_chunk_rows_do_not_depend_on_n(self, monkeypatch):
        # Every chunk holds chunk_size = 8,192 rows whatever N, in
        # sub-chunks of 2,048 (the last chunk one row, in sub-chunk 3), and
        # the surface draws x, y_L and y_E in whole blocks of four elements:
        # a block is drawn whole for N = 1 and N = 5.
        cfg = McConfig(samples=2 * 8192 + 1, master_seed=22, chunk_size=8192)
        for n in (1, 4, 5, 256):
            blocks = -(-n // 4)
            assert self.fill_shapes(monkeypatch, irs_scenario(n=n), cfg) == {
                (4, 2048): 3 * blocks * 2 * _STREAMS,
                (4, 1): 3 * blocks,
            }

    def test_small_chunks_keep_four_element_blocks(self, monkeypatch):
        # A block is four elements at every chunk size, so an N = 4
        # surface draws 4 elements a row at chunk size 8,192 and at the
        # smallest chunk size, 8.
        for chunk_size, rows in ((8192, 2048), (8, 2)):
            cfg = McConfig(samples=8192, master_seed=22, chunk_size=chunk_size)
            shapes = self.fill_shapes(monkeypatch, irs_scenario(n=4), cfg)
            assert shapes == {(4, rows): 3 * 8192 // rows}

    def test_chunk_within_cap_is_one_draw(self):
        # N = 4 at 65,536 rows, the most a chunk holds, is 2^18 values per
        # hop: one chunk, each of its four sub-chunks one block of 2^16
        # values drawn from its sub-stream,
        # and the estimate the partial sums reduced in sub-chunk order.
        # Every row is paired, so the s.e. is that of 32,768 pair sums.
        scn = irs_scenario(n=4)
        n, pairs = 65536, 32768
        cfg = McConfig(samples=n, master_seed=23, chunk_size=n)
        hops = surface_hops(scn)
        sums = np.zeros((1, 2, 4))
        for sub in range(_STREAMS):
            rng = _stream(cfg, 0, sub)
            sums += _sub_chunk_sums(ARCHITECTURES["irs"], hops, rng, n // _STREAMS, 4, [4])
        for est, (s1, _, p1, p2) in zip(mc_branch_estimates(scn, "irs", cfg), sums[0].tolist()):
            pair_mean = p1 / pairs
            pair_var = max(p2 - pairs * pair_mean * pair_mean, 0.0) / (pairs - 1)
            assert est.bits_per_sec_hz == s1 / n
            assert est.std_error == math.sqrt(pairs * pair_var) / n

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_chunk_rows_capped_at_2_16(self, architecture):
        # A chunk holds at most 65,536 rows, so a chunk size of 2^17 draws
        # the same chunks, bit for bit, over three chunks (the last partial).
        scn = irs_scenario(n=6)
        estimates = [
            mc_branch_estimates(scn, architecture, McConfig(2**17 + 5, 33, chunk_size))
            for chunk_size in (2**16, 2**17)
        ]
        assert estimates[0] == estimates[1]

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # At most two tasks a thread are in flight, so 10^6 samples (980
        # sub-chunks of 4,096-row chunks) peak where 10^5 (100) do.  With
        # every task submitted at once, 10^6 peaked about 1.6 MB higher.
        monkeypatch.setattr(montecarlo, "_threads", lambda: 2)
        scn = irs_scenario(n=4)
        mc_branch_estimates(scn, "irs", McConfig(samples=1000, master_seed=34))  # imports
        peaks = []
        for samples in (10**5, 10**6):
            cfg = McConfig(samples=samples, master_seed=34, chunk_size=4096)
            tracemalloc.start()
            try:
                mc_branch_estimates(scn, "irs", cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**19

    @pytest.mark.parametrize("architecture", ["df", "affg"])
    def test_relay_draws_ignore_element_count(self, architecture):
        # A relay reads no n_elements, so its chunks keep their width, and
        # its draws their stream, however many elements the scenario names.
        cfg = McConfig(samples=10_000, master_seed=24)
        one = mc_branch_estimates(irs_scenario(n=1), architecture, cfg)
        wide = mc_branch_estimates(irs_scenario(n=64), architecture, cfg)
        assert one == wide


class TestElementCounts:
    # One pass to the largest count reads every smaller count on the way.
    # 3,000 samples are one partial chunk of 65,536 rows (blocks of 4
    # elements), or one full and one partial chunk of 2,048 (blocks of 128).

    @pytest.mark.parametrize("chunk_size", [65536, 2048])
    @pytest.mark.parametrize("counts", [range(1, 9), range(64, 257, 64)], ids=["1-8", "64-256"])
    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_pairs_equal_each_count_alone(self, architecture, counts, chunk_size):
        cfg = McConfig(samples=3000, master_seed=31, chunk_size=chunk_size)
        scn = irs_scenario()
        got = mc_element_estimates(scn, architecture, cfg, counts)
        want = [
            mc_branch_estimates(dataclasses.replace(scn, n_elements=n), architecture, cfg)
            for n in counts
        ]
        assert got == want

    def test_a_larger_count_leaves_the_others_unchanged(self):
        cfg = McConfig(samples=3000, master_seed=32)
        scn = irs_scenario()
        alone = mc_element_estimates(scn, "irs", cfg, [3, 6])
        assert mc_element_estimates(scn, "irs", cfg, [3, 6, 200])[:2] == alone
        assert mc_element_estimates(scn, "irs", cfg, [6, 200, 3, 6]) == [
            alone[1], mc_element_estimates(scn, "irs", cfg, [200])[0], alone[0], alone[1]
        ]

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_no_counts_draw_nothing(self, monkeypatch, architecture):
        # A surface once raised IndexError from a pool thread here.
        monkeypatch.setattr(montecarlo, "_stream", lambda *args: pytest.fail("drew a sub-chunk"))
        cfg = McConfig(samples=1000, master_seed=1)
        assert mc_element_estimates(irs_scenario(), architecture, cfg, []) == []

    @pytest.mark.parametrize("count", [0, 2.5])
    def test_counts_must_be_positive_integers(self, count):
        with pytest.raises(ValueError, match="n_elements"):
            cfg = McConfig(samples=1000, master_seed=1)
            mc_element_estimates(irs_scenario(), "irs", cfg, [1, count])


class TestAgainstClosedForms:
    def test_irs_single_element(self):
        scn = irs_scenario(n=1)
        cfg = McConfig(samples=400_000, master_seed=7)
        mc = mc_branch_estimates(scn, "irs", cfg)[0]
        x, y_legit, _ = surface_hops(scn)
        ana = ergodic_capacity_irs(x, y_legit, 1)
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
        first, _, eve = relay_hops(scn)
        ana = df_ergodic_capacity(first, eve)
        assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    def test_affg_matches_analytic(self):
        scn = relay_scenario()
        cfg = McConfig(samples=400_000, master_seed=19)
        mc = mc_branch_estimates(scn, "affg", cfg)[0]
        first, legit, _ = relay_hops(scn)
        ana = affg_ergodic_capacity(first, legit)
        assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    def test_affg_finite_at_extreme_power(self):
        # At 2000 dB the hop SNRs reach about 1e200, so the product of two
        # of them overflows; the simulator must still match the analytic value.
        scn = relay_scenario(power_dbm=2000.0)
        cfg = McConfig(samples=20_000, master_seed=1)
        first, *seconds = relay_hops(scn)
        for mc, second in zip(mc_branch_estimates(scn, "affg", cfg), seconds):
            ana = affg_ergodic_capacity(first, second)
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


class TestFloatPolicy:
    # With noise.legit = 0.001, DF's legitimate hop still has a finite mean
    # at 3065 dB, but its draws times the folded scale pass the largest
    # float, on the pool threads that fill the chunk.
    EDGE = dataclasses.replace(relay_scenario(power_dbm=3065.0), noise_power_legit=0.001)
    CFG = McConfig(samples=20_000, master_seed=1)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_pool_thread_overflow_raises(self, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            before = np.geterr()
            with pytest.raises(OverflowError, match=r"float range at 3065\.0 dB"):
                branches(self.EDGE, "df", self.CFG)
            assert np.geterr() == before

    @pytest.mark.parametrize("architecture", ["df", "affg"])
    def test_simulator_entries_raise(self, architecture):
        # Called directly, not through branches, the simulator still takes
        # the float-range rule, whatever the warnings filter.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            before = np.geterr()
            with pytest.raises(OverflowError, match=r"float range at 3065\.0 dB"):
                mc_branch_estimates(self.EDGE, architecture, self.CFG)
            with pytest.raises(OverflowError, match=r"float range at 3065\.0 dB"):
                mc_element_estimates(self.EDGE, architecture, self.CFG, [1, 2])
            assert np.geterr() == before

    @pytest.mark.parametrize("mc", [None, CFG], ids=["analytic", "mc"])
    def test_error_state_restored_after_a_point(self, mc):
        before = np.geterr()
        estimates = branches(relay_scenario(), "df", mc)
        assert all(math.isfinite(e.bits_per_sec_hz) for e in estimates)
        assert np.geterr() == before
