"""The architecture table and the Monte Carlo simulator.

Each architecture is a two-hop link, and ``ARCHITECTURES`` describes it
once, as plain data: its analytic capacity function, its link model, how
an element's two hops x and y combine into its SNR (x * y for a surface
element, min(x, y) for DF, x * y / (y + l) for AFFG), and whether it
reads the scenario's element count.  ``branches(scenario, name, mc=None)``
is the one way to evaluate an architecture: it returns the (legitimate,
eavesdropper) capacity estimates, analytic without ``mc`` and simulated
with it.

The simulator never calls the analytic route: it samples raw channel
gains, forms the instantaneous end-to-end SNR of each receiver, and
averages log2(1 + SNR).  Work is split into chunks of min(chunk_size, 2^16)
rows, whatever the architecture and N, and a chunk of n rows into four
sub-chunks, sub-chunk s holding rows n*s//4 to n*(s+1)//4 and drawing
every hop from its own SFC64 sub-stream, seeded from (master seed, chunk
index, s) through ``SeedSequence``.  Up to four pool threads run whole
sub-chunks through one kernel for every architecture: the draws, both
receivers' SNRs, log1p and one moment vector per (count, receiver): the
sums of the bits, of their squares, of the pair sums (below) and of their
squares.  The caller reduces those in (chunk, sub-chunk) order, with at
most two tasks a thread in flight.  So no value depends on the number of
threads, reruns are bit-identical, and memory does not grow with the
sample count.

The kernel draws the hop triple in element blocks: x, then y_L and y_E
into one (2, E, sub-chunk rows) array, whose first axis is the receiver,
and the block holding the last element needed is drawn whole.  A
surface's E is 4, so element i's draws do not depend on how many elements
follow, memory does not depend on N, and no block holds more than 2^16
values a hop.  Both receivers' SNRs add one element at a time, in element
order, into one (2, rows) accumulator, so the estimate at N elements is
read after element N; ``mc_element_estimates`` reads many counts off one
pass.  A relay is a one-element block, E = 1, and its draws do not read N.

A Gamma array at an integer shape k <= 6 is an exact Erlang draw, -log of
a product of k uniforms (Knuth, *TAOCP* vol. 2, section 3.4.1; Devroye,
*Non-Uniform Random Variate Generation*, 1986, section IX.3), drawn in
antithetic pairs (Hammersley and Morton, Proc. Camb. Phil. Soc. 52, 1956;
Glasserman, *Monte Carlo Methods in Financial Engineering*, 2004, section
4.2): with t = m - m // 2, row r of a block of m rows takes the factors
1 - u and row r + t the factors u + 2^-53 of the same k rounds of
uniforms, so a pair costs k uniforms and two logarithms, and an odd
block's middle row draws unpaired in the same rounds.  Any other shape is
NumPy's ``standard_gamma``, and both rows of a pair are then independent.
Every hop and element block of a sub-chunk pairs the same rows, and
x * y, min(x, y) and x * y / (y + l) are all nondecreasing in each hop,
so the two rows' bits move in opposite directions and their covariance is
<= 0.  The kernel therefore also sums the pair sums s = b_r + b_(r+t) and
their squares, and an estimate over n rows, P pairs and U = n - 2P
unpaired rows has s.e.² = (P V_s + U V_b) / n², V_s and V_b the sample
variances of the pair sums and of the rows; a chunk holds at least 8
rows, so P >= 2.  At the reference shape 2 this is 0.46-0.75 times the
s.e. of independent rows.  Through ``_fill`` on one thread of a 2-vCPU
host, a default surface block of 4 x 16,384 values, in ns a value (the
least of 31 interleaved runs of 50 fills; the uniform product at 7 and 8
is the same code run above the bound):

    k                  1     2     3     4     5     6     7     8
    paired product     2.7   4.2   6.0   7.7   9.1  11.6  13.0  15.1
    standard_gamma     6.6  20.4  20.4  19.7  19.8  20.2  20.2  19.8

The rule stops at 6, where it stood when each value took its own k
uniforms (at 7 the two then tied, and at 8 ``standard_gamma`` was
cheaper); the paired product now stays cheaper up to about k = 11.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import capacity, channels
from .capacity import CapacityEstimate, affg_snr_constant
from .channels import FadingParams, Scenario

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "McConfig",
    "branches",
    "mc_branch_estimates",
    "mc_element_estimates",
]

_LN2 = math.log(2.0)

# Most rows in a chunk.  A sub-chunk then holds at most 2^14 rows, so a
# surface block of four elements holds 2^16 values a hop (512 KiB of
# float64), and the largest buffer, both receivers' blocks, twice that.
_CHUNK_ROWS = 1 << 16

# Elements in a surface block: the reference N = 4 surface draws one block,
# and no surface draws more than three elements it does not use.
_BLOCK_ELEMENTS = 4

# Sub-chunks, and so sub-streams, per chunk, and the most threads that run
# them.  Fixed, so the draws are the same on any number of CPUs.  Eight
# balanced better under host CPU steal, but raised the wide-surface
# sweep's peak RSS by 7% where four raise it by 2-3%.
_STREAMS = 4

# Integer shapes up to this one are drawn as -log of a product of uniforms
# (the break-even is in the module docstring).
_ERLANG_MAX_SHAPE = 6

# The spacing of Generator.random's grid: u + _ULP is exact and lies in
# (0, 1], as 1 - u does.
_ULP = 2.0**-53


@dataclass(frozen=True)
class McConfig:
    """Sample count, master seed and the largest chunk, in rows.

    A chunk holds min(chunk_size, 2^16) rows for every architecture and
    every N, split into four sub-chunks; a surface draws blocks of four
    elements a hop.  The chunk length decides which draws of the seeded
    streams an estimate uses.  It is at least 8 rows, so every sub-chunk of
    a full chunk holds an antithetic pair.
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
        if self.chunk_size < 2 * _STREAMS:
            raise ValueError(f"chunk_size must be at least {2 * _STREAMS} rows")


def _stream(cfg: McConfig, chunk: int, sub: int) -> np.random.Generator:
    # Sub-stream ``sub`` of chunk ``chunk`` seeds its own SFC64 stream from
    # (master seed, chunk, sub), so its draws do not depend on which chunks
    # ran before it or on which thread draws from it.
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(cfg.master_seed, spawn_key=(chunk, sub)))
    )


def _threads() -> int:
    """Threads that run sub-chunks: one per CPU, at most ``_STREAMS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        cpus = os.cpu_count() or 1
    return min(_STREAMS, cpus)


def _fill(
    rng: np.random.Generator, hop: FadingParams, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with Gamma draws of ``hop`` from ``rng``; return it.

    ``out`` and ``scratch`` are C-contiguous arrays of one shape, whose last
    axis holds m rows, and nothing is allocated.  At an integer shape
    k <= ``_ERLANG_MAX_SHAPE`` the rows are antithetic pairs: with
    t = m - m // 2, each of k rounds draws one array of uniforms u of shape
    (..., t) into ``scratch``, in flat order, and multiplies 1 - u into
    rows [0, t) and u + 2^-53 of u's first m // 2 rows into rows [t, m), so
    an odd block's middle row, t - 1, is its one unpaired row.  Then one
    log and one scale make each row -scale * log of its product.
    ``Generator.random`` returns u in [0, 1) on a grid of 2^-53, so both
    factors are exact, lie in (0, 1] and are uniform on the same grid:
    every row is an exact Erlang draw, and row r and row r + t fall as the
    other rises.  A product is at least 2^(-53 k), a normal float for any k
    up to 19, so every draw is finite; rounding the product adds at most
    about k * 2^-53 to a draw.  Any other shape is ``standard_gamma`` times
    the scale, the same bits as ``Generator.gamma``, and leaves ``scratch``
    alone.
    """
    shape, scale = hop.alpha, 1.0 / hop.beta
    if not (float(shape).is_integer() and 1 <= shape <= _ERLANG_MAX_SHAPE):
        rng.standard_gamma(shape, out=out)
        out *= scale
        return out
    rows = out.shape[-1]
    top, half = rows - rows // 2, rows // 2
    first, partner = out[..., :top], out[..., top:]
    flat = scratch.reshape(-1)
    u = flat[: first.size].reshape(first.shape)
    factor = flat[first.size : first.size + partner.size].reshape(partner.shape)
    for round_ in range(int(shape)):
        rng.random(out=u)
        if round_ == 0:
            np.add(u[..., :half], _ULP, out=partner)
            np.subtract(1.0, u, out=first)
        else:
            np.add(u[..., :half], _ULP, out=factor)
            partner *= factor
            np.subtract(1.0, u, out=u)
            first *= u
    np.log(out, out=out)
    out *= -scale
    return out


def _sub_chunk_sums(arch: Architecture, hops, rng, rows: int, width: int, counts) -> np.ndarray:
    """The moment vector per (count, receiver) of one sub-chunk of ``rows`` rows.

    The vector is (Σb, Σb², Σs, Σs²): b runs over the rows' bits, and s over
    the pair sums b_r + b_(r+t), t = rows - rows // 2, of the rows ``_fill``
    pairs.
    Given the folded hop triple (first, legitimate, eavesdropper), draws
    from ``rng`` in blocks of ``width`` elements: x, of shape (``width``,
    ``rows``), then y_L and y_E into y, of shape (2, ``width``, ``rows``).
    One ``arch.combine`` call turns y into both receivers' element SNRs,
    which add one element at a time, in element order, into a (2, ``rows``)
    accumulator; at each of the ascending element ``counts`` both
    receivers' bits are written into the spent element of y.  A relay is
    one element: ``width`` 1 and ``counts`` [1].
    """
    first = hops[0]
    # Three buffers serve every block: x, shared by both receivers, y, and
    # the Erlang scratch, which also holds the pair sums.  A one-element
    # pass reads its SNR off y and keeps no sum: adding y into a zeroed
    # accumulator cost DF 3-6% and AFFG 4-9% more CPU time at 10^6 samples
    # on one CPU of a 2-vCPU host.
    x, scratch = np.empty((width, rows)), np.empty((width, rows))
    y = np.empty((2, width, rows))
    half = rows // 2
    pair = scratch.reshape(-1)[: 2 * half].reshape(2, half)
    last = counts[-1]
    acc = np.zeros((2, rows)) if last > 1 else None
    snapshot = {count: k for k, count in enumerate(counts)}
    sums = np.zeros((len(counts), 2, 4))
    for start in range(0, last, width):
        used = min(width, last - start)
        _fill(rng, first, x, scratch)
        for receiver, hop in enumerate(hops[1:]):
            _fill(rng, hop, y[receiver], scratch)
        arch.combine(first, x[:used], y[:, :used])
        for i in range(used):
            snr = y[:, i]
            if acc is not None:
                snr = acc
                snr += y[:, i]
            k = snapshot.get(start + i + 1)
            if k is not None:
                # The bits go into the spent element, with no temporary.
                bits = np.log1p(snr, out=y[:, i])
                bits /= _LN2
                np.add(bits[:, :half], bits[:, rows - half :], out=pair)
                sums[k, :, 0] = bits.sum(axis=1)
                sums[k, :, 2] = pair.sum(axis=1)
                bits *= bits
                pair *= pair
                sums[k, :, 1] = bits.sum(axis=1)
                sums[k, :, 3] = pair.sum(axis=1)
    return sums


def _estimate(moments, n: int, pairs: int) -> CapacityEstimate:
    """One receiver's estimate from its moment vector over ``n`` rows.

    The mean is Σb / n.  The rows form ``pairs`` antithetic pairs, P, and
    U = n - 2P unpaired rows; pairs are independent of each other and of
    the unpaired rows, so s.e.² = (P V_s + U V_b) / n², V_s the sample
    variance of the pair sums and V_b that of the rows.  ``McConfig``'s
    smallest chunk gives every run P >= 2.
    """
    s1, s2, p1, p2 = moments
    mean = s1 / n
    var = max(s2 - n * mean * mean, 0.0) / (n - 1)
    pair_mean = p1 / pairs
    pair_var = max(p2 - pairs * pair_mean * pair_mean, 0.0) / (pairs - 1)
    std_error = math.sqrt(pairs * pair_var + (n - 2 * pairs) * var) / n
    return CapacityEstimate(mean, "monte-carlo", std_error=std_error, samples=n)


@dataclass(frozen=True)
class Architecture:
    """One architecture as plain data: the same two-hop link on both routes.

    ``hops(scenario)`` gives the hop triple (first, second_L, second_E) of
    the link model.  The analytic route passes ``capacity`` the first hop
    and one receiver's second, with the element count after them when
    ``per_element`` is True.  The simulator draws one element's first hop x
    and both second hops y, of shape (2, ...), and ``combine(first, x, y)``
    overwrites y with both receivers' element SNRs, ``first`` being the
    folded first hop; a surface adds its elements' SNRs, and a relay is one
    element.
    """

    capacity: Callable[..., CapacityEstimate]
    hops: Callable[[Scenario], tuple[FadingParams, FadingParams, FadingParams]]
    combine: Callable[[FadingParams, np.ndarray, np.ndarray], None]
    per_element: bool = False


def _affg_combine(first: FadingParams, x: np.ndarray, y: np.ndarray) -> None:
    # x * y / (y + l) as x times a ratio below 1: the product x * y
    # overflows at extreme power while the end-to-end SNR still fits.
    y /= y + affg_snr_constant(first)
    y *= x


# Each row looks its capacity function up on ``capacity`` at call time, so
# a wrapper set on that module attribute (to count or trace calls) is the
# one called.
ARCHITECTURES = {
    "irs": Architecture(
        lambda *a: capacity.ergodic_capacity_irs(*a),
        channels.surface_hops,
        lambda first, x, y: np.multiply(y, x, out=y),
        per_element=True,
    ),
    "df": Architecture(
        lambda *a: capacity.df_ergodic_capacity(*a),
        channels.relay_hops,
        lambda first, x, y: np.minimum(y, x, out=y),
    ),
    "affg": Architecture(
        lambda *a: capacity.affg_ergodic_capacity(*a),
        channels.relay_hops,
        _affg_combine,
    ),
}


def _architecture(name: str) -> Architecture:
    arch = ARCHITECTURES.get(name)
    if arch is None:
        raise ValueError(f"architecture must be one of {tuple(ARCHITECTURES)}")
    return arch


# ---------------------------------------------------------------------------
# Paired branches
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _float_range(scenario: Scenario):
    """NumPy's overflow, divide and invalid operations raise OverflowError naming the power."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        message = f"{exc}: the capacity leaves the float range at {scenario.tx_power_dbm} dB"
        raise OverflowError(message) from None


def branches(
    scenario: Scenario, architecture: str, mc: McConfig | None = None
) -> tuple[CapacityEstimate, CapacityEstimate]:
    """(Legitimate, eavesdropper) ergodic capacity estimates of one architecture.

    Without ``mc`` both are analytic; given an ``McConfig`` they are the
    paired simulator estimates of ``mc_branch_estimates``.  Their secrecy
    is ``secrecy_capacity(*branches(...))``.  An unknown architecture
    raises ValueError on both routes.  Both run under one float-range rule:
    NumPy's overflow, divide and invalid operations raise, on the pool
    threads too, and leave as OverflowError naming the power, as a hop out
    of the float range does in ``channels``.  The NumPy error state is kept.
    """
    if mc is not None:
        return mc_branch_estimates(scenario, architecture, mc)
    arch = _architecture(architecture)
    count = [scenario.n_elements] if arch.per_element else []
    with _float_range(scenario):
        first, *seconds = arch.hops(scenario)
        return tuple(arch.capacity(first, second, *count) for second in seconds)


def mc_branch_estimates(scenario: Scenario, architecture: str, cfg: McConfig):
    """Paired (legitimate, eavesdropper) estimates sharing the common hop.

    The source-side draws are reused by both receiver branches, matching
    the physical channel and reducing the variance of their difference.
    Each receiver's moment vector of log2(1 + SNR) accumulates in (chunk,
    sub-chunk) order, and its s.e. is taken over antithetic pairs (see the
    module docstring).
    Runs under the float-range rule of ``branches``.
    """
    return mc_element_estimates(scenario, architecture, cfg, (scenario.n_elements,))[0]


def mc_element_estimates(scenario: Scenario, architecture: str, cfg: McConfig, counts):
    """``mc_branch_estimates`` at each element count of ``counts``, from one pass.

    Returns one (legitimate, eavesdropper) pair per count, in the order
    given, each bit for bit the pair of ``scenario`` with that many
    elements: the pass draws to the largest count and reads each smaller
    one on the way.  So the pairs share their draws and are correlated
    across counts.  A relay reads no element count and is simulated once;
    an empty ``counts`` returns [] and draws nothing.
    Runs under the float-range rule of ``branches``: the hops are folded
    on the calling thread before any draw, the pool threads take its NumPy
    error state, and a value out of the float range at any count raises
    OverflowError naming the power.
    """
    arch = _architecture(architecture)
    for count in counts:  # a count that is no valid n_elements raises ValueError
        replace(scenario, n_elements=count)
    if not counts:
        return []
    rows = min(cfg.chunk_size, _CHUNK_ROWS)
    if arch.per_element:
        targets, width = sorted(set(counts)), _BLOCK_ELEMENTS
    else:  # a relay is one element: one pass serves every count
        targets, width = [1], 1

    # Imported here, so the analytic route does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    totals, pairs = np.zeros((len(targets), 2, 4)), 0
    with _float_range(scenario):
        hops = arch.hops(scenario)
        errors, threads = np.geterr(), _threads()
        with ThreadPoolExecutor(threads, initializer=lambda: np.seterr(**errors)) as pool:
            # At most two tasks a thread in flight, reduced oldest first:
            # memory does not grow with samples, and sums add in task order.
            window = deque()
            for chunk in range(-(-cfg.samples // rows)):
                size = min(rows, cfg.samples - chunk * rows)
                for sub in range(_STREAMS):
                    m = size * (sub + 1) // _STREAMS - size * sub // _STREAMS
                    if m:
                        pairs += m // 2
                        if len(window) == 2 * threads:
                            totals += window.popleft().result()
                        rng = _stream(cfg, chunk, sub)
                        task = pool.submit(_sub_chunk_sums, arch, hops, rng, m, width, targets)
                        window.append(task)
            for future in window:
                totals += future.result()
    estimates = {
        count: tuple(_estimate(moments, cfg.samples, pairs) for moments in per_receiver)
        for count, per_receiver in zip(targets, totals.tolist())
    }
    return [estimates[count if arch.per_element else 1] for count in counts]
