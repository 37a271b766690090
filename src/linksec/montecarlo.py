"""Monte Carlo estimates of the same capacities the analytic route produces.

``ARCHITECTURES`` describes each architecture once: its analytic
(legitimate, eavesdropper) capacity pair, its simulator draw, and whether
it reads the scenario's element count.  The table records the analytic
pair so that sweeps and validation find both routes in one place, but the
simulator never calls it: it samples raw channel gains, forms the
instantaneous end-to-end SNR of each receiver, and averages
log2(1 + SNR).  Work is split into chunks of at most ``chunk_size`` rows
and at most 2^18 Gamma values per hop, so a surface of N elements gets
chunks of at most 2^18 // N rows and memory stays bounded as N grows; a
relay's chunks do not depend on N.  Each chunk draws from its own SFC64
stream, seeded from (master seed, chunk index) through ``SeedSequence``,
so no draw depends on the order in which chunks run and reruns are
bit-identical.  Partial sums are reduced in chunk order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import capacity, channels
from .capacity import CapacityEstimate, affg_snr_constant, secrecy_capacity
from .channels import Scenario

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "McConfig",
    "mc_branch_estimates",
    "mc_secrecy",
]

_LN2 = math.log(2.0)

# Most Gamma values a chunk draws per hop: 2 MiB of float64 per array.  A
# 65,536-row chunk of the reference N = 4 surface fills it exactly, as does
# a relay chunk of 2^18 rows; wider surfaces get shorter chunks, so memory
# does not grow with N.
_BLOCK_VALUES = 1 << 18


@dataclass(frozen=True)
class McConfig:
    """Sample count, master seed and the largest chunk, in rows.

    A chunk holds at most ``chunk_size`` rows and at most 2^18 Gamma values
    per hop, whichever bound is smaller.  The chunk length decides which
    draws of the seeded stream an estimate uses.
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


def _chunk_rng(cfg: McConfig, index: int) -> np.random.Generator:
    # Chunk ``index`` seeds its own SFC64 stream from (master seed, index),
    # so its draws do not depend on which chunks ran before it.
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(cfg.master_seed, spawn_key=(index,)))
    )


# ---------------------------------------------------------------------------
# Per-architecture SNR draws
# ---------------------------------------------------------------------------

def _irs_snr(scenario: Scenario, rng: np.random.Generator, n: int):
    # Element-major draws, so each sum over elements adds contiguous rows.
    # The source-surface gains x are shared by both receivers; each
    # receiver's hop is drawn, folded into its SNR and freed before the next.
    shape = (scenario.n_elements, n)
    x = channels.sample_gamma(scenario.fading_source_node, rng, shape)

    def snr(hop: channels.FadingParams, receiver: str) -> np.ndarray:
        y = channels.sample_gamma(hop, rng, shape)
        y *= x
        total = y.sum(axis=0)
        total *= channels._irs_scale(scenario, receiver)
        return total

    return snr(scenario.fading_node_legit, "legit"), snr(scenario.fading_node_eve, "eve")


def _df_snr(scenario: Scenario, rng: np.random.Generator, n: int):
    hops = channels.relay_hop_params(scenario)
    g1 = channels.sample_gamma(hops["first"], rng, n)
    g2 = channels.sample_gamma(hops["legit"], rng, n)
    g3 = channels.sample_gamma(hops["eve"], rng, n)
    return np.minimum(g1, g2), np.minimum(g1, g3)


def _affg_snr(scenario: Scenario, rng: np.random.Generator, n: int):
    hops = channels.relay_hop_params(scenario)
    l = affg_snr_constant(hops["first"])
    g1 = channels.sample_gamma(hops["first"], rng, n)
    g2 = channels.sample_gamma(hops["legit"], rng, n)
    g3 = channels.sample_gamma(hops["eve"], rng, n)
    # g1 * g / (g + l) as g1 times a ratio below 1: the product g1 * g
    # overflows at extreme power while the end-to-end SNR still fits.
    for g in (g2, g3):
        g /= g + l
        g *= g1
    return g2, g3


@dataclass(frozen=True)
class Architecture:
    """One architecture: its two evaluation routes and whether it reads N.

    ``analytic(scenario)`` returns the analytic (legitimate,
    eavesdropper) capacity estimates; ``snr(scenario, rng, n)`` draws ``n``
    paired (legitimate, eavesdropper) instantaneous SNRs from ``rng``, as
    two new float arrays that the caller may overwrite.  ``per_element``
    is True when both depend on the scenario's ``n_elements``.
    """

    analytic: Callable[[Scenario], tuple[CapacityEstimate, CapacityEstimate]]
    snr: Callable[[Scenario, np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    per_element: bool = False


ARCHITECTURES = {
    "irs": Architecture(capacity.irs_branches, _irs_snr, per_element=True),
    "df": Architecture(capacity.df_branches, _df_snr),
    "affg": Architecture(capacity.affg_branches, _affg_snr),
}


# ---------------------------------------------------------------------------
# Paired branches and secrecy
# ---------------------------------------------------------------------------

def mc_branch_estimates(scenario: Scenario, architecture: str, cfg: McConfig):
    """Paired (legitimate, eavesdropper) estimates sharing the common hop.

    The source-side draws are reused by both receiver branches, matching
    the physical channel and reducing the variance of their difference.
    Sums and sums of squares of log2(1 + SNR) accumulate in chunk order.
    """
    arch = ARCHITECTURES.get(architecture)
    if arch is None:
        raise ValueError(f"architecture must be one of {tuple(ARCHITECTURES)}")

    width = scenario.n_elements if arch.per_element else 1
    rows = min(cfg.chunk_size, max(1, _BLOCK_VALUES // width))
    sums = [[0.0, 0.0], [0.0, 0.0]]
    for index in range(-(-cfg.samples // rows)):
        count = min(rows, cfg.samples - index * rows)
        rng = _chunk_rng(cfg, index)
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


def mc_secrecy(scenario: Scenario, architecture: str, cfg: McConfig) -> CapacityEstimate:
    """Clamped difference of the paired branch estimates."""
    est_l, est_e = mc_branch_estimates(scenario, architecture, cfg)
    return secrecy_capacity(est_l, est_e)
