"""The architecture table and the Monte Carlo simulator.

Each architecture is a two-hop link, and ``ARCHITECTURES`` describes it
once, as plain data: its analytic capacity function, its link model, how
an element's two hops x and y combine into its SNR (x * y for a surface
element, min(x, y) for DF, x * y / (y + l) for AFFG), and whether it
reads the scenario's element count.  ``branches(scenario, name, mc=None)``
is the one way to evaluate an architecture: it returns the legitimate and
eavesdropper capacity estimates and their difference, analytic without
``mc`` and simulated with it.

The simulator never calls the analytic route: it samples raw channel
gains, forms the instantaneous end-to-end SNR of each receiver, and
averages log2(1 + SNR).  One rule splits the work into tasks.  A task
draws each hop in blocks of E elements, E = 4 for a surface and 1 for a
relay, and R = min(chunk_size, 2^16) * 4 / E rows make four tasks, so a
full task draws 2^16 values a hop whatever N.  The h = n/2 row pairs of n
samples split evenly into T = 4 * ceil(n / R) tasks: task t holds pairs
h*t//T to h*(t+1)//T and draws every hop from its own SFC64 sub-stream,
which the pool thread running it seeds from (master seed, t // 4, t % 4)
through ``SeedSequence``.  Up to four pool threads run whole tasks
through one kernel for every architecture: the draws, both receivers'
SNRs, log1p and five sums per count, of each receiver's pair sums, of
their squares and of the squared differences of the two receivers' pair
sums.  The caller reduces those in task order, with at most two
tasks a thread in flight.  So no value depends on the number of threads,
reruns are bit-identical, and memory does not grow with the sample count.
The chunk size is at least 2^12, so a task of n >= 1,000 samples holds at
least 125 pairs, and its fixed cost, one seeding and one handoff, stays
small.  ``validate --samples 200000 --seed 1`` in s, best of 3 on a
2-vCPU host, 64 and 1,024 as accepted before the floor:

    chunk_size   64    1,024   4,096   65,536
    wall         7.0   0.98    0.40    0.25

The kernel draws the hop triple in element blocks: x, then y_L and y_E
into one (2, E, task rows) array, whose first axis is the receiver, and
the block holding the last element needed is drawn whole.  So a surface
element i's draws do not depend on how many elements follow, memory does
not depend on N, and no block holds more than 2^16 values a hop.  Both
receivers' SNRs add one element at a time, in element order, into one
(2, rows) accumulator, so the estimate at N elements is read after
element N; ``mc_element_estimates`` reads many counts off one pass.  A
relay's draws do not read N.  The kernel allocates nothing per task: x,
the Erlang scratch, y and the accumulator are contiguous prefixes of the
four flat arrays of one buffer set per running task, 2^16, 2^16, 2 * 2^16
and 2^15 values, made when first needed and kept for every later task and
call, about 2.25 MiB a set, so about 4.5 MiB at two threads.  A relay
block of 2^16 values is what lets the second thread pay: at 2^14 values
each NumPy call was too short to hide the handoff of the interpreter
lock, and two threads ran DF and AFFG no faster than one.

A Gamma array at an integer shape k <= 6 is an exact Erlang draw, -log of
a product of k uniforms (Knuth, *TAOCP* vol. 2, section 3.4.1; Devroye,
*Non-Uniform Random Variate Generation*, 1986, section IX.3), drawn in
antithetic pairs (Hammersley and Morton, Proc. Camb. Phil. Soc. 52, 1956;
Glasserman, *Monte Carlo Methods in Financial Engineering*, 2004, section
4.2): row r of a block of m rows takes the factors 1 - u and row r + m/2
the factors u + 2^-53 of the same k rounds of uniforms, so a pair costs k
uniforms and two logarithms.  Any other shape is NumPy's
``standard_gamma``, and both rows of a pair are then independent.  Every
hop and element block of a task pairs the same rows, and x * y,
min(x, y) and x * y / (y + l) are all nondecreasing in each hop, so the
two rows' bits move in opposite directions and their covariance is <= 0.
So the pair is the sampling unit, and sample counts and chunk sizes are
even: over n rows, an estimate is Σs / n and its s.e. √(P V_s) / n, that
of a mean of P = n/2 independent pair sums s = b_r + b_(r+m/2), V_s their
sample variance.  At the reference shape 2 this is 0.46-0.75 times the
s.e. of independent rows.  The receivers' difference, the secrecy, is
paired too: its s.e. is √(P V_d) / n over the differences d = s_L - s_E,
0.64-0.94 times hypot(s.e._L, s.e._E) on figure 3's rows.  Through
``_fill`` on one thread of a 2-vCPU host, a default surface block of 4 x
16,384 values, in ns a value (the least of 31 interleaved runs of 50
fills; the uniform product at 7 and 8 is the same code run above the
bound):

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

# The most values a task draws a hop (512 KiB of float64): a full surface
# task is 2^14 rows x 4 elements, and a full relay task 2^16 rows x 1.
_BLOCK_VALUES = 1 << 16

# Elements in a surface block: the reference N = 4 surface draws one block,
# and no surface draws more than three elements it does not use.
_BLOCK_ELEMENTS = 4

# Tasks per R rows, so task t's sub-stream key is divmod(t, 4), and the
# most threads that run them.  Fixed, so the draws are the same on any
# number of CPUs.  Eight balanced better under host CPU steal, but raised
# the wide-surface sweep's peak RSS by 7% where four raise it by 2-3%.
_STREAMS = 4

# Integer shapes up to this one are drawn as -log of a product of uniforms
# (the break-even is in the module docstring).
_ERLANG_MAX_SHAPE = 6

# The spacing of Generator.random's grid: u + _ULP is exact and lies in
# (0, 1], as 1 - u does.
_ULP = 2.0**-53


@dataclass(frozen=True)
class McConfig:
    """Sample count, master seed and the chunk size, the cap on a task's block.

    For every architecture, ``chunk_size`` caps the values a task draws a
    hop at min(chunk_size, 2^16), rounded up to a multiple of 8, and so
    decides which draws of the seeded streams an estimate uses (the task
    rule is in the module docstring).  Rows come in antithetic pairs, so
    both counts are even.  The chunk size is at least 2^12, so a task's
    seeding and handoff stay small beside its draws (timed there too).
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
        if self.samples % 2:
            raise ValueError("samples must be even, since rows are drawn in antithetic pairs")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.chunk_size < 4096:
            raise ValueError("chunk_size must be at least 4096 values, so no task is tiny")
        if self.chunk_size % 2:
            raise ValueError("chunk_size must be even, since rows are drawn in antithetic pairs")


def _stream(cfg: McConfig, *key: int) -> np.random.Generator:
    # The sub-stream of ``key``, divmod(t, 4) for task t, seeds its own
    # SFC64 stream from (master seed, *key), so its draws do not depend on
    # which tasks ran before it or on which thread draws from it.
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(cfg.master_seed, spawn_key=key))
    )


def _threads() -> int:
    """Threads that run tasks: one per CPU, at most ``_STREAMS``."""
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
    axis holds an even number m of rows, and nothing is allocated.  At an
    integer shape k <= ``_ERLANG_MAX_SHAPE`` row r pairs with row r + m/2:
    each of k rounds draws one array of uniforms u of shape (..., m/2) into
    ``scratch``, in flat order, and multiplies 1 - u into rows [0, m/2) and
    u + 2^-53 into rows [m/2, m).  Then one log and one scale make each row
    -scale * log of its product.  ``Generator.random`` returns u in [0, 1)
    on a grid of 2^-53, so both factors are exact, lie in (0, 1] and are
    uniform on the same grid: every row is an exact Erlang draw, and row r
    and row r + m/2 fall as the other rises.  A product is at least
    2^(-53 k), a normal float for any k up to 19, so every draw is finite;
    rounding the product adds at most about k * 2^-53 to a draw.  Any other
    shape is ``standard_gamma`` times the scale, the same bits as
    ``Generator.gamma``, and leaves ``scratch`` alone.
    """
    shape, scale = hop.alpha, 1.0 / hop.beta
    if not (float(shape).is_integer() and 1 <= shape <= _ERLANG_MAX_SHAPE):
        rng.standard_gamma(shape, out=out)
        out *= scale
        return out
    half = out.shape[-1] // 2
    first, partner = out[..., :half], out[..., half:]
    u, factor = scratch.reshape(2, *first.shape)
    for round_ in range(int(shape)):
        rng.random(out=u)
        if round_ == 0:
            np.add(u, _ULP, out=partner)
            np.subtract(1.0, u, out=first)
        else:
            np.add(u, _ULP, out=factor)
            partner *= factor
            np.subtract(1.0, u, out=u)
            first *= u
    np.log(out, out=out)
    out *= -scale
    return out


# Buffer sets that no running task holds, each (x, scratch, y, acc) of flat
# float64 arrays.  There are as many sets as tasks ever ran at once: two on
# a 2-vCPU host, or twice that while two callers simulate at once.  Every
# view is a contiguous prefix: viewing y as [:, :n] of a (2, 2^16) array,
# or the whole set as one (5, 2^16) array, cost the wide-surface sweep
# about 1 MB more peak RSS.
_FREE_BUFFERS: list[tuple[np.ndarray, ...]] = []


def _buffer_set() -> tuple[np.ndarray, ...]:
    """A buffer set that no running task holds: a free one, or a new one."""
    try:
        return _FREE_BUFFERS.pop()
    except IndexError:
        block = _BLOCK_VALUES
        return np.empty(block), np.empty(block), np.empty(2 * block), np.empty(block // 2)


def _task_sums(
    arch: Architecture, hops, rng, rows: int, width: int, counts, buffers: tuple
) -> np.ndarray:
    """(Σs_L, Σs_E, Σs_L², Σs_E², Σd²) per count of a task of ``rows`` rows, an even number.

    s runs over the pair sums b_r + b_(r+rows/2) of the bits of the rows
    ``_fill`` pairs, and d = s_L - s_E.  Given the folded hop triple (first,
    legitimate, eavesdropper), draws from ``rng`` in blocks of ``width``
    elements: x, of shape (``width``, ``rows``), then y_L and y_E into y, of
    shape (2, ``width``, ``rows``).
    One ``arch.combine`` call turns y into both receivers' element SNRs,
    which add one element at a time, in element order, into a (2, ``rows``)
    accumulator; at each of the ascending element ``counts`` both
    receivers' bits are written into the spent element of y.  A relay is
    one element: ``width`` 1 and ``counts`` [1].  Every array is a prefix
    of ``buffers``, a set that no other running task holds
    (``_buffer_set``), so a task allocates nothing but its small sums.
    """
    first = hops[0]
    # Three buffers serve every block: x, shared by both receivers, y, and
    # the Erlang scratch, which also holds the pair sums.  A one-element
    # pass reads its SNR off y and keeps no sum: adding y into a zeroed
    # accumulator cost DF 3-6% and AFFG 4-9% more CPU time at 10^6 samples
    # on one CPU of a 2-vCPU host.
    size, half = width * rows, rows // 2
    x_buf, scratch_buf, y_buf, acc_buf = buffers
    x, scratch = x_buf[:size].reshape(width, rows), scratch_buf[:size].reshape(width, rows)
    y = y_buf[: 2 * size].reshape(2, width, rows)
    pair = scratch_buf[:rows].reshape(2, half)
    last = counts[-1]
    acc = None
    if last > 1:
        acc = acc_buf[: 2 * rows].reshape(2, rows)
        acc.fill(0.0)
    snapshot = {count: k for k, count in enumerate(counts)}
    sums = np.zeros((len(counts), 5))
    for start in range(0, last, width):
        used = min(width, last - start)
        _fill(rng, first, x, scratch)
        for receiver, hop in enumerate(hops[1:]):
            _fill(rng, hop, y[receiver], scratch)
        arch.combine(first, x[:used], y[:, :used], scratch[:used])
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
                np.add(bits[:, :half], bits[:, half:], out=pair)
                sums[k, :2] = pair.sum(axis=1)
                # d into the spent legitimate bits.  A BLAS dot product here,
                # pair[0] @ pair[1], ran DF and AFFG at 10^6 samples 1.6-2.4x
                # slower on a 2-vCPU host, its threads fighting the pool.
                d = np.subtract(pair[0], pair[1], out=bits[0, :half])
                d *= d
                sums[k, 4] = d.sum()
                pair *= pair
                sums[k, 2:4] = pair.sum(axis=1)
    return sums


def _estimates(sums, n: int) -> tuple[CapacityEstimate, ...]:
    """(Legitimate, eavesdropper, difference) from one count's ``_task_sums`` over ``n`` rows.

    A mean is Σs / n and its s.e. √(P V_s) / n, that of a mean of the P =
    n/2 pair sums s, V_s their sample variance; the difference is exactly
    legitimate minus eavesdropper, and its s.e. that of d, Σd = Σs_L - Σs_E.
    """
    pairs = n // 2

    def std_error(total, squares):
        pair_mean = total / pairs
        pair_var = max(squares - pairs * pair_mean * pair_mean, 0.0) / (pairs - 1)
        return math.sqrt(pairs * pair_var) / n

    s_l, s_e, q_l, q_e, q_d = sums
    legit = CapacityEstimate(s_l / n, std_error(s_l, q_l))
    eve = CapacityEstimate(s_e / n, std_error(s_e, q_e))
    gap = legit.bits_per_sec_hz - eve.bits_per_sec_hz
    return legit, eve, CapacityEstimate(gap, std_error(s_l - s_e, q_d))


@dataclass(frozen=True)
class Architecture:
    """One architecture as plain data: the same two-hop link on both routes.

    ``hops(scenario)`` gives the hop triple (first, second_L, second_E) of
    the link model.  The analytic route passes ``capacity`` the first hop
    and one receiver's second, with the element count after them when
    ``per_element`` is True.  The simulator draws one element's first hop x
    and both second hops y, of shape (2, ...), and ``combine(first, x, y,
    scratch)`` overwrites y with both receivers' element SNRs, ``first``
    being the folded first hop and ``scratch`` a free array shaped as x; a
    surface adds its elements' SNRs, and a relay is one element.
    """

    capacity: Callable[..., CapacityEstimate]
    hops: Callable[[Scenario], tuple[FadingParams, FadingParams, FadingParams]]
    combine: Callable[[FadingParams, np.ndarray, np.ndarray, np.ndarray], None]
    per_element: bool = False


def _affg_combine(first: FadingParams, x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> None:
    # x * y / (y + l) as x times a ratio below 1: the product x * y
    # overflows at extreme power while the end-to-end SNR still fits.  Each
    # receiver's y + l goes into the scratch, so nothing is allocated.
    l = affg_snr_constant(first)
    for receiver in y:
        np.add(receiver, l, out=scratch)
        receiver /= scratch
    y *= x


# Each row looks its capacity function up on ``capacity`` at call time, so
# a wrapper set on that module attribute (to count or trace calls) is the
# one called.
ARCHITECTURES = {
    "irs": Architecture(
        lambda *a: capacity.ergodic_capacity_irs(*a),
        channels.surface_hops,
        lambda first, x, y, scratch: np.multiply(y, x, out=y),
        per_element=True,
    ),
    "df": Architecture(
        lambda *a: capacity.df_ergodic_capacity(*a),
        channels.relay_hops,
        lambda first, x, y, scratch: np.minimum(y, x, out=y),
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
) -> tuple[CapacityEstimate, CapacityEstimate, CapacityEstimate]:
    """(Legitimate, eavesdropper, difference) ergodic capacity estimates of one architecture.

    Without ``mc`` all are analytic, with s.e. 0; given an ``McConfig``
    they are the paired estimates of ``mc_branch_estimates``.  The
    difference is legitimate minus eavesdropper, unclamped: the secrecy
    capacity is its max with 0.  An unknown architecture raises
    ValueError on both routes.  Both run under one float-range rule:
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
        legit, eve = (arch.capacity(first, second, *count) for second in seconds)
    return legit, eve, CapacityEstimate(legit.bits_per_sec_hz - eve.bits_per_sec_hz)


def mc_branch_estimates(scenario: Scenario, architecture: str, cfg: McConfig):
    """Paired (legitimate, eavesdropper, difference) estimates sharing the common hop.

    The source-side draws are reused by both receiver branches, matching
    the physical channel and reducing the variance of their difference.
    The sums of the pair sums of log2(1 + SNR) accumulate in task order,
    and each s.e. is that of the pair sums, or of their differences (see
    the module docstring).  Runs under the float-range rule of ``branches``.
    """
    return mc_element_estimates(scenario, architecture, cfg, (scenario.n_elements,))[0]


def mc_element_estimates(scenario: Scenario, architecture: str, cfg: McConfig, counts):
    """``mc_branch_estimates`` at each element count of ``counts``, from one pass.

    Returns one (legitimate, eavesdropper, difference) triple per count, in
    the order given, each bit for bit the triple of ``scenario`` with that
    many elements: the pass draws to the largest count and reads each
    smaller one on the way.  So the triples share their draws and are
    correlated across counts.  A relay reads no element count and is
    simulated once; an empty ``counts`` returns [] and draws nothing.
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
    if arch.per_element:
        targets, width = sorted(set(counts)), _BLOCK_ELEMENTS
    else:  # a relay is one element: one pass serves every count
        targets, width = [1], 1
    # The task rule: R rows make four tasks, so a full task draws 2^16
    # values a hop, and the pairs split evenly into T = 4 ceil(n / R) tasks.
    rows = min(cfg.chunk_size, _BLOCK_VALUES) * _BLOCK_ELEMENTS // width
    pairs, tasks = cfg.samples // 2, _STREAMS * -(-cfg.samples // rows)

    # Imported here, so the analytic route does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    totals = np.zeros((len(targets), 5))
    with _float_range(scenario):
        hops = arch.hops(scenario)
        errors, threads = np.geterr(), _threads()

        def task(t, m):
            rng = _stream(cfg, *divmod(t, _STREAMS))
            buffers = _buffer_set()
            try:
                return _task_sums(arch, hops, rng, m, width, targets, buffers)
            finally:
                _FREE_BUFFERS.append(buffers)

        with ThreadPoolExecutor(threads, initializer=lambda: np.seterr(**errors)) as pool:
            # At most two tasks a thread in flight, reduced oldest first:
            # memory does not grow with samples, and sums add in task order.
            window = deque()
            for t in range(tasks):
                m = 2 * (pairs * (t + 1) // tasks - pairs * t // tasks)
                if len(window) == 2 * threads:
                    totals += window.popleft().result()
                window.append(pool.submit(task, t, m))
            for future in window:
                totals += future.result()
    estimates = {
        count: _estimates(sums, cfg.samples) for count, sums in zip(targets, totals.tolist())
    }
    return [estimates[count if arch.per_element else 1] for count in counts]
