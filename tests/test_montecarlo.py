import collections
import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

from linksec.capacity import (
    affg_ergodic_capacity,
    df_ergodic_capacity,
    ergodic_capacity_irs,
)
from linksec import channels, montecarlo
from linksec.channels import FadingParams, Scenario, relay_hops, surface_hops
from linksec.config import reference_config
from linksec.montecarlo import (
    _ERLANG_MAX_SHAPE,
    _STREAMS,
    ARCHITECTURES,
    McConfig,
    _buffer_set,
    _fill,
    _stream,
    _task_sums,
    branches,
    mc_branch_estimates,
    mc_element_estimates,
)
from oracles import erlang_pairs, paired_mc_estimates, simulated_bits

EXP_CASE_BITS = float(np.e * special.exp1(1.0) / np.log(2.0))


def irs_scenario(n=2, power_dbm=10.0, d_eve=20.0, shape=2.0):
    return Scenario(
        d_source_node=13.0, d_node_legit=10.0, d_node_eve=d_eve, pathloss_exponent=2.0,
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
        d_source_node=1.0, d_node_legit=1.0, d_node_eve=1.0, pathloss_exponent=2.0,
        fading_source_node=FadingParams(1, 0.5),
        fading_node_legit=FadingParams(1, 0.5),
        fading_node_eve=FadingParams(1, 0.5),
        tx_power_dbm=0.0,
        noise_power_relay=1.0,
        noise_power_legit=1.0,
        noise_power_eve=1.0,
    )


def record_tasks(monkeypatch, architecture, cfg):
    # (rows, width) of every task, keyed by its sub-stream key divmod(t, 4).
    tasks = {}

    def recording(arch, hops, rng, rows, width, counts, buffers):
        tasks[rng] = (rows, width)
        return np.zeros((len(counts), 5))

    monkeypatch.setattr(montecarlo, "_stream", lambda cfg, *key: key)
    monkeypatch.setattr(montecarlo, "_task_sums", recording)
    mc_branch_estimates(irs_scenario(n=4), architecture, cfg)
    monkeypatch.undo()
    return tasks


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

    @pytest.mark.parametrize("chunk_size", [7, 8, 64, 4094, True])
    def test_chunk_below_4096_values_rejected(self, chunk_size):
        # Below 2^12 values, a task's seeding and handoff outweigh its
        # draws.  True is an integer, one value.
        with pytest.raises(ValueError, match="chunk_size"):
            McConfig(samples=1000, master_seed=1, chunk_size=chunk_size)

    @pytest.mark.parametrize("chunk_size", [4096, 4098])
    def test_chunk_of_4096_values_accepted(self, chunk_size):
        assert McConfig(samples=1000, master_seed=1, chunk_size=chunk_size).chunk_size == chunk_size


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
    # branches and of their difference on the reference scenarios at 4,096
    # samples and seed 23.
    PINNED = {
        "irs": [
            (3.2127143218450835, 0.007236432818451064),
            (1.6472899200719966, 0.005476301625092456),
            (1.565424401773087, 0.007704782245680636),
        ],
        "df": [
            (6.187593334865431, 0.012014787604740163),
            (5.106762458496132, 0.010461448178304545),
            (1.0808308763692969, 0.013146799870761887),
        ],
        "affg": [
            (5.596079435462679, 0.009727723328590418),
            (4.483112098610343, 0.009753520761639026),
            (1.1129673368523347, 0.00851957678139482),
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
        # A seeding that dropped either index of a task's key would repeat
        # draws across tasks and understate the s.e.
        cfg = McConfig(samples=1000, master_seed=31)
        next_seed = McConfig(samples=1000, master_seed=32)
        draws = [
            tuple(_stream(c, *divmod(t, _STREAMS)).random(4))
            for c in (cfg, next_seed)
            for t in range(2 * _STREAMS)
        ]
        assert len(set(draws)) == len(draws)


class TestParallelFill:
    # The sub-streams, not the threads, decide every draw, and partial sums
    # are reduced in task order: one thread and several must give the same
    # bytes.

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    @pytest.mark.parametrize("samples", [20_000, 65_538, 262_146])
    def test_thread_count_does_not_change_draws(self, monkeypatch, architecture, samples):
        # 65,538 samples split a surface's 32,769 pairs over eight tasks,
        # one a pair longer than the rest; 262,146 do the same to a relay,
        # whose R is 2^18 rows.
        scn = irs_scenario(n=2)
        cfg = McConfig(samples=samples, master_seed=25)
        results = []
        for threads in (1, 2, 4):
            monkeypatch.setattr(montecarlo, "_threads", lambda threads=threads: threads)
            estimates = mc_branch_estimates(scn, architecture, cfg)
            results.append(np.array([(e.bits_per_sec_hz, e.std_error) for e in estimates]).tobytes())
        assert results[0] == results[1] == results[2]
        assert all(math.isfinite(est.std_error) and est.std_error > 0 for est in estimates)

    def test_concurrent_calls_match_serial(self):
        # Each running task takes its own buffer set, so callers on their
        # own threads get the values each gets alone: a set shared by two
        # tasks would mix their draws.  Three callers run up to six pool
        # threads, and a short switch interval interleaves them often.
        from concurrent.futures import ThreadPoolExecutor

        cfg = McConfig(samples=300_000, master_seed=39)
        jobs = [(irs_scenario(n=6), "irs"), (relay_scenario(), "affg"), (relay_scenario(), "df")]
        serial = [mc_branch_estimates(scn, architecture, cfg) for scn, architecture in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(jobs)) as callers:
                futures = [callers.submit(mc_branch_estimates, scn, a, cfg) for scn, a in jobs]
                assert [future.result(timeout=120) for future in futures] == serial
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def read_layout(scn, architecture, cfg):
        # (legit, eve) sums (Σs, Σs²) of the pair sums s, reduced in task
        # order off the documented layout: row r of m rows pairs with row
        # r + m/2.
        sums = np.zeros((2, 2))
        for bits in simulated_bits(scn, architecture, cfg):
            for receiver, b in enumerate(bits):
                s = b[: b.size // 2] + b[b.size // 2 :]
                sums[receiver] += (s.sum(), (s * s).sum())
        return sums.tolist()

    @pytest.mark.parametrize("elements", [1, 6])
    def test_tasks_come_from_their_sub_streams(self, elements):
        # The layout read independently, at shape 2.5, where every draw is
        # Generator.gamma: R = 4,098 rows on a surface and 16,392 on a
        # relay, so the 10,001 pairs split at pairs h*t//T into T = 20
        # surface tasks or 8 relay tasks of unequal size; task t draws from
        # sub-stream divmod(t, 4), a surface in blocks of four elements (the
        # first of N = 1, the second of N = 6, drawn whole); the sums of the
        # pair sums are reduced in task order.  N = 1 is a one-element pass
        # on every row.
        scn = irs_scenario(n=elements, shape=2.5)
        cfg = McConfig(samples=20_002, master_seed=26, chunk_size=4098)
        n, pairs = cfg.samples, cfg.samples // 2
        for architecture in ARCHITECTURES:
            got = mc_branch_estimates(scn, architecture, cfg)
            for est, (p1, p2) in zip(got, self.read_layout(scn, architecture, cfg)):
                pair_mean = p1 / pairs
                pair_var = max(p2 - pairs * pair_mean * pair_mean, 0.0) / (pairs - 1)
                assert est.bits_per_sec_hz == p1 / n
                assert est.std_error == math.sqrt(pairs * pair_var) / n

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_each_task_seeds_its_stream_on_a_pool_thread(self, monkeypatch, architecture):
        # The caller submits only (t, rows): the pool thread that runs task
        # t builds sub-stream divmod(t, 4), once.  65,538 samples are eight
        # surface tasks and four relay tasks.
        calls = []
        inner = montecarlo._stream

        def recording(cfg, *key):
            calls.append((key, threading.get_ident()))
            return inner(cfg, *key)

        scn, cfg = irs_scenario(n=2), McConfig(samples=65_538, master_seed=40)
        want = mc_branch_estimates(scn, architecture, cfg)
        monkeypatch.setattr(montecarlo, "_stream", recording)
        assert mc_branch_estimates(scn, architecture, cfg) == want
        tasks = 8 if architecture == "irs" else 4
        assert sorted(key for key, _ in calls) == [divmod(t, 4) for t in range(tasks)]
        assert threading.get_ident() not in {thread for _, thread in calls}

    @pytest.mark.parametrize(
        "samples, chunk_size",
        [(20_000, 65_536), (20_000, 4098), (20_000, 8192), (65_538, 65_536),
         (1002, 4096), (1006, 4100), (4002, 65_536), (2**17 + 6, 2**17),
         (12_294, 4096), (100_000, 65_536), (10**6, 65_536), (10**6, 2**20)],
    )
    def test_every_task_holds_whole_pairs(self, monkeypatch, samples, chunk_size):
        # The task rule: R = min(chunk_size, 2^16) rows on a surface and four
        # times that on a relay make four tasks, and the h = n/2 pairs split
        # evenly into T = 4 ceil(n / R) tasks, task t holding pairs h*t//T to
        # h*(t+1)//T and drawing from sub-stream divmod(t, 4).  So the tasks
        # differ by at most one pair, and a task's hop block holds at most
        # min(chunk_size, 2^16) values, rounded up to a multiple of 8.  At
        # the smallest chunk size, 4,096, 1,002 samples make four tasks of
        # 125 or 126 pairs, and 12,294 samples 16 surface tasks of 384 or
        # 385 pairs; no task is empty.
        cfg = McConfig(samples=samples, master_seed=1, chunk_size=chunk_size)
        cap = min(chunk_size, 2**16)
        pairs = samples // 2
        for architecture in ("irs", "df", "affg"):
            width = 4 if architecture == "irs" else 1
            rows = cap * 4 // width
            count = 4 * -(-samples // rows)
            tasks = record_tasks(monkeypatch, architecture, cfg)
            assert set(tasks) == {divmod(t, 4) for t in range(count)}
            assert all(m > 0 and m % 2 == 0 and w == width for m, w in tasks.values())
            sizes = [tasks[divmod(t, 4)][0] for t in range(count)]
            assert sizes == [2 * (pairs * (t + 1) // count - pairs * t // count) for t in range(count)]
            assert sum(sizes) == samples and max(sizes) - min(sizes) <= 2
            assert max(sizes) * width <= -(-cap // 8) * 8
            if cap % 8 == 0:
                assert max(sizes) * width <= cap

    @pytest.mark.parametrize(
        "chunk_size, samples",
        [(65536, 20_000), (4098, 20_000), (4096, 20_002), (4100, 20_002)],
        ids=["65536", "4098", "4096", "4100"],
    )
    @pytest.mark.parametrize("shape", [2.0, 2.5])
    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_standard_error_matches_pair_sum_oracle(self, architecture, shape, chunk_size, samples):
        # The oracle reads the same draws and takes the s.e. over pair sums
        # with NumPy's two-pass variance.  A surface draws tasks of 5,000
        # rows, of 1,000, and of 1,000 and 1,002 rows at chunk sizes 4,096
        # (the smallest) and 4,100; a relay, whose R is four times the
        # rows, of 5,000, of 2,500, and of 2,500 and 2,502.
        cfg = McConfig(samples=samples, master_seed=37, chunk_size=chunk_size)
        scn = irs_scenario(n=6, shape=shape)
        got = mc_branch_estimates(scn, architecture, cfg)
        want = paired_mc_estimates(scn, architecture, cfg)
        assert len(got) == len(want) == 3
        for est, (mean, std_error) in zip(got, want):
            assert est.bits_per_sec_hz == pytest.approx(mean, rel=1e-12, abs=0)
            assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_pairs_are_negatively_correlated(self, architecture):
        # Each architecture's bits rise with every hop, so row r and its
        # partner r + h, drawn from 1 - u and u + 2^-53, move apart.  Over
        # 8,192 pairs at 20 dB the correlation here is -0.50 (DF) to -0.78
        # (AFFG); a partner drawn independently gives 0 +- 0.011.  The row
        # variance comes from the same draws, made through _fill in the
        # kernel's order, and the pair-sum variance from the kernel.
        scn = irs_scenario(n=4, power_dbm=20.0)
        arch = ARCHITECTURES[architecture]
        hops = arch.hops(scn)
        width = 4 if arch.per_element else 1
        rows, pairs = 2**14, 2**13
        cfg = McConfig(samples=1000, master_seed=36)
        rng = _stream(cfg, 0, 0)
        x, *y = (_fill(rng, hop, np.empty((width, rows)), np.empty((width, rows))) for hop in hops)
        y = np.array(y)
        arch.combine(hops[0], x, y, np.empty_like(x))
        row_vars = np.log2(1.0 + y.sum(axis=1)).var(axis=1, ddof=1)
        sums = _task_sums(arch, hops, _stream(cfg, 0, 0), rows, width, [width], _buffer_set())
        s_l, s_e, q_l, q_e, _ = sums[0].tolist()
        for (p1, p2), var in zip([(s_l, q_l), (s_e, q_e)], row_vars):
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
        cfg = McConfig(samples=3 * 8192 + 2, master_seed=27, chunk_size=8192)
        mc_branch_estimates(irs_scenario(n=2), architecture, cfg)
        mc_element_estimates(irs_scenario(), architecture, cfg, [1, 5])
        assert calls == []


class TestErlangFill:
    # Integer shapes 1 to 6 are -log of a product of uniforms, in antithetic
    # row pairs; every other shape is Generator.gamma, bit for bit.

    # The documented draw order: k rounds of uniforms over the first m/2
    # rows, each taken as 1 - u there and as u + 2^-53 in the last m/2
    # rows; then -log, scaled.
    erlang_fill = staticmethod(erlang_pairs)

    @staticmethod
    def fill(rng, hop, shape):
        return _fill(rng, hop, np.empty(shape), np.empty(shape))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("pairs", [1, 327_683])
    def test_pieces_are_sub_stream_exponential_sums(self, k, pairs):
        # -log of the product is the sum of k exponentials, each drawn by
        # inversion.  One pair alone, and an odd number of pairs over ten
        # times the largest surface block, drawn in k whole rounds.
        cfg = McConfig(samples=1000, master_seed=28)
        got = self.fill(_stream(cfg, 2, 1), FadingParams(k, 4.0), 2 * pairs)
        want = self.erlang_fill(_stream(cfg, 2, 1), k, 2 * pairs, 0.25)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 5])
    def test_surface_blocks_fill_in_flat_order(self, k):
        # A surface block pairs the rows of each element, and each round
        # draws one (4, 8,193) array, in flat order, across the elements.
        cfg = McConfig(samples=1000, master_seed=28)
        shape = (4, 16_386)
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
        # the partner's factor would give inf at u = 0.
        class Constant:
            def __init__(self, value):
                self.value = value

            def random(self, out):
                out.fill(self.value)

        scale, rows = 0.25, 65_538
        top = -np.log(2.0 ** (-53 * k)) * scale
        assert top == pytest.approx(53 * k * math.log(2.0) * scale, rel=1e-15)
        for u, first, partner in ((0.0, 0.0, top), (1.0 - 2.0**-53, top, 0.0)):
            draws = self.fill(Constant(u), FadingParams(k, 1.0 / scale), rows)
            assert np.isfinite(draws).all()
            assert (draws[: rows // 2] == first).all()
            assert (draws[rows // 2 :] == partner).all()

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
        # Unbounded, 4,096 samples at N = 1024 draw three 32 MiB
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
        # R = chunk_size = 8,192 rows whatever N, so 16,386 samples make 12
        # tasks for 8,193 pairs: nine of 683 pairs (1,366 rows) and three of
        # 682 (1,364 rows).  The surface draws x, y_L and y_E in whole
        # blocks of four elements: a block is drawn whole for N = 1 and 5.
        cfg = McConfig(samples=2 * 8192 + 2, master_seed=22, chunk_size=8192)
        for n in (1, 4, 5, 256):
            blocks = -(-n // 4)
            assert self.fill_shapes(monkeypatch, irs_scenario(n=n), cfg) == {
                (4, 1366): 3 * blocks * 9,
                (4, 1364): 3 * blocks * 3,
            }

    def test_small_chunks_keep_four_element_blocks(self, monkeypatch):
        # A block is four elements at every chunk size, so an N = 4
        # surface draws 4 elements a row at chunk size 8,192 and at the
        # smallest chunk size, 4,096.
        for chunk_size, rows in ((8192, 2048), (4096, 1024)):
            cfg = McConfig(samples=8192, master_seed=22, chunk_size=chunk_size)
            shapes = self.fill_shapes(monkeypatch, irs_scenario(n=4), cfg)
            assert shapes == {(4, rows): 3 * 8192 // rows}

    def test_chunk_within_cap_is_one_draw(self):
        # N = 4 at 65,536 rows, a surface's largest R, is 2^18 values per
        # hop: four tasks, each one block of 2^16 values drawn from its
        # sub-stream, and the estimate the partial sums reduced in task
        # order.  The s.e. is that of 32,768 pair sums.
        scn = irs_scenario(n=4)
        n, pairs = 65536, 32768
        cfg = McConfig(samples=n, master_seed=23, chunk_size=n)
        hops = surface_hops(scn)
        sums = np.zeros((1, 5))
        for sub in range(_STREAMS):
            rng = _stream(cfg, 0, sub)
            sums += _task_sums(ARCHITECTURES["irs"], hops, rng, n // _STREAMS, 4, [4], _buffer_set())
        s_l, s_e, q_l, q_e, q_d = sums[0].tolist()
        estimates = mc_branch_estimates(scn, "irs", cfg)
        assert [est.bits_per_sec_hz for est in estimates[:2]] == [s_l / n, s_e / n]
        for est, (p1, p2) in zip(estimates, [(s_l, q_l), (s_e, q_e), (s_l - s_e, q_d)]):
            pair_mean = p1 / pairs
            pair_var = max(p2 - pairs * pair_mean * pair_mean, 0.0) / (pairs - 1)
            assert est.std_error == math.sqrt(pairs * pair_var) / n

    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_chunk_rows_capped_at_2_16_surface_2_18_relay(self, architecture):
        # R is at most 2^16 rows on a surface and 2^18 on a relay, so a
        # chunk size of 2^17 draws the same tasks, bit for bit, over 12
        # tasks of unequal size.
        scn = irs_scenario(n=6)
        chunk_rows = 2**16 if architecture == "irs" else 2**18
        estimates = [
            mc_branch_estimates(scn, architecture, McConfig(2 * chunk_rows + 6, 33, chunk_size))
            for chunk_size in (2**16, 2**17)
        ]
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("chunk_size", [65536, 4098])
    def test_every_block_holds_at_most_2_16_values(self, monkeypatch, chunk_size):
        # The task rule: at a whole number of R rows every task is full,
        # and a full task draws min(chunk_size, 2^16) values a hop, 16,384
        # rows x 4 elements on a surface and 65,536 x 1 on a relay at the
        # default chunk size; two more pairs spread over the tasks, and no
        # block is then larger than 2^16 values.
        for samples in (2**19, 2**19 + 4):
            cfg = McConfig(samples=samples, master_seed=1, chunk_size=chunk_size)
            for architecture in ("irs", "df", "affg"):
                tasks = record_tasks(monkeypatch, architecture, cfg)
                assert all(rows * width <= 2**16 for rows, width in tasks.values())
                full = max(tasks.values())
                assert full[1] == (4 if architecture == "irs" else 1)
                if chunk_size == 65536 and samples == 2**19:
                    assert set(tasks.values()) == {(16_384, 4) if architecture == "irs" else (65_536, 1)}

    @pytest.mark.parametrize(
        "architecture, elements", [("irs", 64), ("affg", 1)], ids=["irs", "affg"]
    )
    def test_second_call_allocates_no_buffers(self, architecture, elements):
        # x, the Erlang scratch, y and the accumulator are kept from the
        # first call, so a second 10^6-sample call peaks far below one
        # block's y, (2, 4, 16,384) or (2, 1, 65,536) float64 values, 1 MiB.
        # The N = 64 surface adds its elements in the accumulator, and AFFG
        # forms y + l in the scratch.
        scn = irs_scenario(n=elements)
        cfg = McConfig(samples=10**6, master_seed=38)
        mc_branch_estimates(scn, architecture, cfg)
        tracemalloc.start()
        try:
            mc_branch_estimates(scn, architecture, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # At most two tasks a thread are in flight, so 10^6 samples (980
        # tasks at R = 4,096 rows) peak where 10^5 (100) do.  With
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
        # A relay reads no n_elements, so its tasks keep their width, and
        # its draws their stream, however many elements the scenario names.
        cfg = McConfig(samples=10_000, master_seed=24)
        one = mc_branch_estimates(irs_scenario(n=1), architecture, cfg)
        wide = mc_branch_estimates(irs_scenario(n=64), architecture, cfg)
        assert one == wide


class TestElementCounts:
    # One pass to the largest count reads every smaller count on the way.
    # 3,000 samples are four surface tasks at chunk size 65,536, and 8,194
    # are twelve tasks of unequal size at 4,096; a surface block is 4
    # elements at both.  A relay's samples are four tasks at both, of
    # unequal size at 4,096.

    @pytest.mark.parametrize(
        "chunk_size, samples", [(65536, 3000), (4096, 8194)], ids=["65536", "4096"]
    )
    @pytest.mark.parametrize("counts", [range(1, 9), range(64, 257, 64)], ids=["1-8", "64-256"])
    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_pairs_equal_each_count_alone(self, architecture, counts, chunk_size, samples):
        cfg = McConfig(samples=samples, master_seed=31, chunk_size=chunk_size)
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
        monkeypatch.setattr(montecarlo, "_stream", lambda *args: pytest.fail("drew a task"))
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
        est = branches(scn, "irs", cfg)[2]
        assert abs(est.bits_per_sec_hz) <= 3.0 * est.std_error

    def test_increases_with_eavesdropper_distance(self):
        cfg = McConfig(samples=200_000, master_seed=9)
        values = []
        for d_eve in (12.0, 20.0, 32.0):
            scn = relay_scenario(power_dbm=20.0, d_eve=d_eve)
            values.append(branches(scn, "df", cfg)[2].bits_per_sec_hz)
        assert values[0] < values[1] < values[2]

    def test_shared_hop_estimator_unbiased(self):
        scn = relay_scenario(power_dbm=20.0)
        cfg = McConfig(samples=400_000, master_seed=10)
        paired = branches(scn, "df", cfg)[2]
        le = mc_branch_estimates(scn, "df", McConfig(samples=400_000, master_seed=11))[0]
        ev = mc_branch_estimates(scn, "df", McConfig(samples=400_000, master_seed=12))[1]
        independent = le.bits_per_sec_hz - ev.bits_per_sec_hz
        combined_se = math.hypot(paired.std_error, math.hypot(le.std_error, ev.std_error))
        assert abs(paired.bits_per_sec_hz - independent) <= 3.0 * combined_se

    def test_matches_analytic_per_architecture(self):
        cfg = McConfig(samples=400_000, master_seed=14)
        scn_i = irs_scenario(n=4, power_dbm=20.0)
        scn_r = relay_scenario(power_dbm=20.0)
        for name, scn in (("irs", scn_i), ("df", scn_r), ("affg", scn_r)):
            mc = branches(scn, name, cfg)[2]
            ana = branches(scn, name)[2]
            assert abs(mc.bits_per_sec_hz - ana.bits_per_sec_hz) <= 3.0 * mc.std_error

    @pytest.mark.parametrize("mc", [None, McConfig(samples=20_002, master_seed=41)],
                             ids=["analytic", "mc"])
    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_difference_is_legit_minus_eve(self, architecture, mc):
        # Bit for bit, so a sweep's secrecy column keeps the bytes it had
        # when it was formed from the two receivers' values.
        for power in (0.0, 20.0, 50.0):
            legit, eve, difference = branches(irs_scenario(n=6, power_dbm=power), architecture, mc)
            assert difference.bits_per_sec_hz == legit.bits_per_sec_hz - eve.bits_per_sec_hz
            assert (difference.std_error == 0.0) == (mc is None)

    @pytest.mark.parametrize("power", [0.0, 20.0, 50.0])
    @pytest.mark.parametrize("architecture", ["irs", "df", "affg"])
    def test_difference_matches_paired_oracle(self, architecture, power):
        # The oracle takes the difference of each pair's two pair sums,
        # s_L - s_E, from the same draws and its s.e. with NumPy's
        # two-pass variance; the kernel keeps only Σd² and reads Σd as
        # Σs_L - Σs_E.  A surface draws 20 tasks of 1,000 or 1,002 rows, a
        # relay 8 of 2,500 or 2,502.
        cfg = McConfig(samples=20_002, master_seed=42, chunk_size=4098)
        scn = irs_scenario(n=6, power_dbm=power)
        got = branches(scn, architecture, cfg)[2]
        mean, std_error = paired_mc_estimates(scn, architecture, cfg)[2]
        assert got.bits_per_sec_hz == pytest.approx(mean, rel=1e-12, abs=0)
        assert got.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

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
    # float, on the pool threads that fill the tasks.
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
    @pytest.mark.parametrize("architecture", ["irs", "affg"])
    @pytest.mark.parametrize("distance", ["d_source_node", "d_node_eve"])
    def test_overflowing_pathloss_names_the_power(self, distance, architecture, mc):
        # 1e-160 ** -2 passes the largest float inside Python's float power,
        # whose own OverflowError names nothing.
        scn = dataclasses.replace(irs_scenario(power_dbm=10.0), **{distance: 1e-160})
        with pytest.raises(OverflowError, match=r"^SNR scale leaves the float range at 10\.0 dB$"):
            branches(scn, architecture, mc)

    @pytest.mark.parametrize("mc", [None, CFG], ids=["analytic", "mc"])
    def test_error_state_restored_after_a_point(self, mc):
        before = np.geterr()
        estimates = branches(relay_scenario(), "df", mc)
        assert all(math.isfinite(e.bits_per_sec_hz) for e in estimates)
        assert np.geterr() == before
