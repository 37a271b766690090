"""The architecture table and the Monte Carlo simulator.

``ARCHITECTURES`` describes each architecture once: its analytic capacity
of one receiver, its simulator draw, and whether it reads the scenario's
element count.  ``branches(scenario, name, mc=None)`` is the one way to
evaluate an architecture: it returns the (legitimate, eavesdropper)
capacity estimates, analytic without ``mc`` and simulated with it.

The simulator never calls the analytic route: it samples raw channel
gains, forms the instantaneous end-to-end SNR of each receiver, and
averages log2(1 + SNR).  Work is split into chunks of at most
``chunk_size`` rows and at most max(2^18, N) Gamma values per hop: a
surface of N elements gets chunks of max(1, 2^18 // N) rows, so memory
does not grow with N up to N = 2^18, and beyond it a chunk is one row of
N values; a relay's chunks do not depend on N.  Each chunk owns four
SFC64 sub-streams, seeded from (master seed, chunk index, sub-stream index)
through ``SeedSequence``.  Every Gamma array a chunk draws is split into
four contiguous pieces, piece s drawn from sub-stream s, and the pieces
are filled concurrently on up to four CPUs.  So no draw depends on the
order in which chunks run or on the number of threads, and reruns are
bit-identical.  Chunks run one at a time, and partial sums are reduced in
chunk order.

A piece at an integer shape k <= 5 is an exact Erlang draw, -log of a
product of k uniforms (Knuth, *TAOCP* vol. 2, section 3.4.1; Devroye,
*Non-Uniform Random Variate Generation*, 1986, section IX.3), which costs
k uniforms and one logarithm a value; any other shape is NumPy's
``standard_gamma``.  Through ``_ChunkStreams.gamma`` on 2 pool threads of
a 2-vCPU host, 2^18-value arrays, in ns a value:

    k                  1     2     3     4     5     6
    uniform product    4.0   6.4   8.8  11.1  13.8  16.2
    standard_gamma     5.9  16.1  16.7  16.2  16.6  16.2

so the rule stops at 5.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import capacity, channels
from .capacity import CapacityEstimate, affg_snr_constant
from .channels import Scenario

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "McConfig",
    "branches",
    "mc_branch_estimates",
]

_LN2 = math.log(2.0)

# Most Gamma values a chunk draws per hop, 2 MiB of float64 per array,
# unless one row alone holds more.  At the default chunk_size of 65,536
# rows, a chunk of the reference N = 4 surface fills it exactly and a relay
# chunk holds 65,536 values, 0.5 MiB per array; wider surfaces get shorter
# chunks, so memory does not grow with N up to N = 2^18.  Beyond that a
# chunk is one row of N values.
_BLOCK_VALUES = 1 << 18

# Sub-streams per chunk, and so the most threads that fill one array.  Fixed,
# so the draws are the same on any number of CPUs.  Eight balanced better
# under host CPU steal, but raised the wide-surface sweep's peak RSS by 7%
# where four raise it by 2-3%.
_STREAMS = 4

# Integer shapes up to this one are drawn as -log of a product of uniforms
# (the break-even is in the module docstring).
_ERLANG_MAX_SHAPE = 5

# Values per block of an integer-shape piece, and of the scratch block that
# its second to k-th uniforms are drawn into, 256 KiB of float64.  Each
# NumPy call on a block releases and retakes the GIL; at 2^13 values those
# hand-offs kept the second CPU from helping.  On the wide-surface sweep,
# 2^15 took 16% less time than 2^13 for 0.6 MB more peak RSS; 2^16 saved
# little more and cost 1.8 MB.
_SCRATCH_VALUES = 1 << 15


@dataclass(frozen=True)
class McConfig:
    """Sample count, master seed and the largest chunk, in rows.

    A chunk holds at most ``chunk_size`` rows and at most max(2^18, N)
    Gamma values per hop for a surface of N elements (one row of N values
    once N exceeds 2^18).  The chunk length decides which
    draws of the seeded streams an estimate uses.
    """

    samples: int
    master_seed: int
    chunk_size: int = 65536

    def __post_init__(self):
        for name in ("samples", "master_seed", "chunk_size"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.samples < 1000:
            raise ValueError("samples must be at least 1000 for a reported estimate")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")


def _stream(cfg: McConfig, chunk: int, sub: int) -> np.random.Generator:
    # Sub-stream ``sub`` of chunk ``chunk`` seeds its own SFC64 stream from
    # (master seed, chunk, sub), so its draws do not depend on which chunks
    # ran before it or on which thread fills from it.
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(cfg.master_seed, spawn_key=(chunk, sub)))
    )


def _threads() -> int:
    """Threads that fill a chunk's pieces: one per CPU, at most ``_STREAMS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        cpus = os.cpu_count() or 1
    return min(_STREAMS, cpus)


class _ChunkStreams:
    """One chunk's ``_STREAMS`` sub-streams, drawn like ``Generator.gamma``.

    ``gamma(shape, scale, size)`` returns a new float64 array of ``size``
    Gamma draws: its flat values are split into ``_STREAMS`` contiguous
    pieces, piece s is filled from sub-stream s and then multiplied by
    ``scale``.  At an integer shape k <= ``_ERLANG_MAX_SHAPE`` a piece is
    -scale * log of a product of k factors 1 - u, drawn block by block of
    ``_SCRATCH_VALUES`` values in this order: the block's uniforms, then
    k - 1 more rounds of them through a scratch block, each multiplied in;
    then the log, scaled.  ``Generator.random`` returns u in [0, 1), so
    1 - u lies in (0, 1] and is exact; for k <= 5 the product is at least
    2^-265 and never underflows, and a draw is 0 only when every u is 0.
    Rounding the product adds at most about k * 2^-53 to a draw.  Any other
    shape is filled by ``standard_gamma``, the same bits as
    ``Generator.gamma``.  The pieces are filled concurrently on ``pool``, a
    ``concurrent.futures`` executor, or one after another on the calling
    thread without one; the values are the same either way.
    """

    def __init__(self, cfg: McConfig, chunk: int, pool=None):
        self._rngs = [_stream(cfg, chunk, sub) for sub in range(_STREAMS)]
        self._map = map if pool is None else pool.map

    def gamma(self, shape: float, scale: float, size) -> np.ndarray:
        out = np.empty(size)
        flat = out.reshape(-1)
        n = flat.size
        erlang = float(shape).is_integer() and 1 <= shape <= _ERLANG_MAX_SHAPE

        def fill(sub: int) -> None:
            piece = flat[n * sub // _STREAMS : n * (sub + 1) // _STREAMS]
            rng = self._rngs[sub]
            if not erlang:
                rng.standard_gamma(shape, out=piece)
                piece *= scale
                return
            scratch = np.empty(min(_SCRATCH_VALUES, piece.size))
            for start in range(0, piece.size, _SCRATCH_VALUES):
                block = piece[start : start + _SCRATCH_VALUES]
                rng.random(out=block)
                np.subtract(1.0, block, out=block)
                u = scratch[: block.size]
                for _ in range(int(shape) - 1):
                    rng.random(out=u)
                    np.subtract(1.0, u, out=u)
                    block *= u
                np.log(block, out=block)
                block *= -scale

        list(self._map(fill, range(_STREAMS)))  # also raises a fill's error
        return out


# ---------------------------------------------------------------------------
# Per-architecture SNR draws
# ---------------------------------------------------------------------------

def _irs_snr(scenario: Scenario, rng: _ChunkStreams, n: int):
    # Element-major draws, so each sum over elements adds contiguous rows.
    # The source-surface gains x are shared by both receivers; each
    # receiver's hop is drawn, folded into its SNR and freed before the next.
    shape = (scenario.n_elements, n)
    (first, legit), (_, eve) = (channels.surface_hops(scenario, rx) for rx in channels.RECEIVERS)
    x = channels.sample_gamma(first, rng, shape)

    def snr(hop: channels.FadingParams) -> np.ndarray:
        y = channels.sample_gamma(hop, rng, shape)
        y *= x
        return y.sum(axis=0)

    return snr(legit), snr(eve)


def _relay_draws(scenario: Scenario, rng: _ChunkStreams, n: int):
    """The first hop, and n SNR draws of the first, legitimate and eavesdropper hops."""
    (first, legit), (_, eve) = (channels.relay_hops(scenario, rx) for rx in channels.RECEIVERS)
    return first, [channels.sample_gamma(hop, rng, n) for hop in (first, legit, eve)]


def _df_snr(scenario: Scenario, rng: _ChunkStreams, n: int):
    _, (g1, g2, g3) = _relay_draws(scenario, rng, n)
    return np.minimum(g1, g2), np.minimum(g1, g3)


def _affg_snr(scenario: Scenario, rng: _ChunkStreams, n: int):
    first, (g1, g2, g3) = _relay_draws(scenario, rng, n)
    l = affg_snr_constant(first)
    # g1 * g / (g + l) as g1 times a ratio below 1: the product g1 * g
    # overflows at extreme power while the end-to-end SNR still fits.
    for g in (g2, g3):
        g /= g + l
        g *= g1
    return g2, g3


# ---------------------------------------------------------------------------
# Per-architecture analytic capacity of one receiver
# ---------------------------------------------------------------------------
# Each looks its capacity function up on ``capacity`` at call time, so a
# wrapper set on that module attribute (to count or trace calls) is the one
# called.

def _irs_capacity(scenario: Scenario, receiver: str) -> CapacityEstimate:
    return capacity.ergodic_capacity_irs(scenario, receiver)


def _df_capacity(scenario: Scenario, receiver: str) -> CapacityEstimate:
    return capacity.df_ergodic_capacity(*channels.relay_hops(scenario, receiver))


def _affg_capacity(scenario: Scenario, receiver: str) -> CapacityEstimate:
    return capacity.affg_ergodic_capacity(*channels.relay_hops(scenario, receiver))


@dataclass(frozen=True)
class Architecture:
    """One architecture: its two evaluation routes and whether it reads N.

    ``analytic(scenario, receiver)`` returns the analytic ergodic capacity
    of the receiver ``"legit"`` or ``"eve"``; ``snr(scenario, rng, n)``
    draws ``n`` paired (legitimate, eavesdropper) instantaneous SNRs from
    ``rng``, as two new float arrays that the caller may overwrite.
    ``rng`` is one chunk's sub-streams (``_ChunkStreams``), whose ``gamma``
    splits each array across them and fills the pieces concurrently.
    ``per_element`` is True when both depend on the scenario's
    ``n_elements``.
    """

    analytic: Callable[[Scenario, str], CapacityEstimate]
    snr: Callable[[Scenario, _ChunkStreams, int], tuple[np.ndarray, np.ndarray]]
    per_element: bool = False


ARCHITECTURES = {
    "irs": Architecture(_irs_capacity, _irs_snr, per_element=True),
    "df": Architecture(_df_capacity, _df_snr),
    "affg": Architecture(_affg_capacity, _affg_snr),
}


def _architecture(name: str) -> Architecture:
    arch = ARCHITECTURES.get(name)
    if arch is None:
        raise ValueError(f"architecture must be one of {tuple(ARCHITECTURES)}")
    return arch


# ---------------------------------------------------------------------------
# Paired branches
# ---------------------------------------------------------------------------

def branches(
    scenario: Scenario, architecture: str, mc: McConfig | None = None
) -> tuple[CapacityEstimate, CapacityEstimate]:
    """(Legitimate, eavesdropper) ergodic capacity estimates of one architecture.

    Without ``mc`` both are analytic; given an ``McConfig`` they are the
    paired simulator estimates of ``mc_branch_estimates``.  Their secrecy
    is ``secrecy_capacity(*branches(...))``.  An unknown architecture
    raises ValueError on both routes.
    """
    if mc is not None:
        return mc_branch_estimates(scenario, architecture, mc)
    analytic = _architecture(architecture).analytic
    return tuple(analytic(scenario, receiver) for receiver in channels.RECEIVERS)


def mc_branch_estimates(scenario: Scenario, architecture: str, cfg: McConfig):
    """Paired (legitimate, eavesdropper) estimates sharing the common hop.

    The source-side draws are reused by both receiver branches, matching
    the physical channel and reducing the variance of their difference.
    Sums and sums of squares of log2(1 + SNR) accumulate in chunk order.
    """
    arch = _architecture(architecture)
    width = scenario.n_elements if arch.per_element else 1
    rows = min(cfg.chunk_size, max(1, _BLOCK_VALUES // width))
    sums = [[0.0, 0.0], [0.0, 0.0]]
    # Imported here, so the analytic route does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_threads()) as pool:
        for index in range(-(-cfg.samples // rows)):
            count = min(rows, cfg.samples - index * rows)
            rng = _ChunkStreams(cfg, index, pool)
            for acc, b in zip(sums, arch.snr(scenario, rng, count)):
                # The SNR array becomes bits in place, with no temporary.
                np.log1p(b, out=b)
                b /= _LN2
                acc[0] += float(b.sum())
                acc[1] += float((b * b).sum())
    n = cfg.samples
    estimates = []
    for s1, s2 in sums:
        mean = s1 / n
        var = max(s2 - n * mean * mean, 0.0) / (n - 1)
        estimates.append(
            CapacityEstimate(mean, "monte-carlo", std_error=math.sqrt(var / n), samples=n)
        )
    return tuple(estimates)
