"""The architecture table and the Monte Carlo simulator.

``ARCHITECTURES`` describes each architecture once: its analytic capacity
of one receiver, its simulator draw, and whether it reads the scenario's
element count.  ``branches(scenario, name, mc=None)`` is the one way to
evaluate an architecture: it returns the (legitimate, eavesdropper)
capacity estimates, analytic without ``mc`` and simulated with it.

The simulator never calls the analytic route: it samples raw channel
gains, forms the instantaneous end-to-end SNR of each receiver, and
averages log2(1 + SNR).  Work is split into chunks of at most
``chunk_size`` rows and at most 2^18 Gamma values per hop, so a surface of
N elements gets chunks of at most 2^18 // N rows and memory stays bounded
as N grows; a relay's chunks do not depend on N.  Each chunk draws from its
own SFC64 stream, seeded from (master seed, chunk index) through
``SeedSequence``, so no draw depends on the order in which chunks run and
reruns are bit-identical.  Partial sums are reduced in chunk order.
"""

from __future__ import annotations

import math
import operator
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

# Most Gamma values a chunk draws per hop: 2 MiB of float64 per array.  At
# the default chunk_size of 65,536 rows, a chunk of the reference N = 4
# surface fills it exactly and a relay chunk holds 65,536 values, 0.5 MiB
# per array; wider surfaces get shorter chunks, so memory does not grow
# with N.
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


# ---------------------------------------------------------------------------
# Per-architecture analytic capacity of one receiver
# ---------------------------------------------------------------------------
# Each looks its capacity function up on ``capacity`` at call time, so a
# wrapper set on that module attribute (to count or trace calls) is the one
# called.

def _irs_capacity(scenario: Scenario, receiver: str) -> CapacityEstimate:
    return capacity.ergodic_capacity_irs(scenario, receiver)


def _relay_hops(scenario: Scenario, receiver: str):
    if receiver not in channels.RECEIVERS:
        raise ValueError(f"receiver must be one of {channels.RECEIVERS}")
    hops = channels.relay_hop_params(scenario)
    return hops["first"], hops[receiver]


def _df_capacity(scenario: Scenario, receiver: str) -> CapacityEstimate:
    return capacity.df_ergodic_capacity(*_relay_hops(scenario, receiver))


def _affg_capacity(scenario: Scenario, receiver: str) -> CapacityEstimate:
    first, hop = _relay_hops(scenario, receiver)
    return capacity.affg_ergodic_capacity(first, hop, affg_snr_constant(first))


@dataclass(frozen=True)
class Architecture:
    """One architecture: its two evaluation routes and whether it reads N.

    ``analytic(scenario, receiver)`` returns the analytic ergodic capacity
    of the receiver ``"legit"`` or ``"eve"``; ``snr(scenario, rng, n)``
    draws ``n`` paired (legitimate, eavesdropper) instantaneous SNRs from
    ``rng``, as two new float arrays that the caller may overwrite.
    ``per_element`` is True when both depend on the scenario's
    ``n_elements``.
    """

    analytic: Callable[[Scenario, str], CapacityEstimate]
    snr: Callable[[Scenario, np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
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
