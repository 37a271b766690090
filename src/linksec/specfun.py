"""Special functions backing the capacity formulas.

log Gamma is delegated to scipy behind a validating wrapper.  What is
built here by hand is the machinery the closed-form capacities actually
hinge on:

* a scaled generalized exponential integral e^s * E_n(s), evaluated by a
  small-argument series and a Lentz continued fraction, with stable
  recurrences filling in whole order ranges.  It is the confluent
  U(m+1, m+1, s) up to a power of s, which closes the survival-function
  capacity integral of the decode-and-forward relay;
* a reusable Mellin-Barnes engine: the integral of a product of Gamma
  factors against x^{-s} along a vertical line, by default the Meijer G
  line of the separating strip, or any line off the poles.  The surface
  capacity places it one pole right of the MGF's line, which yields
  1 - MGF directly.  Gamma products along the contour are computed once
  per parameter set and reused for every argument, and one call
  evaluates a whole array of arguments, so sweeping the transform
  variable is cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .quadrature import AccuracyError, ContourDivergenceError

__all__ = [
    "log_gamma",
    "meijer_g_2_1_1_2",
    "MellinBarnesEvaluator",
]

_EULER_GAMMA = 0.5772156649015328606
_EPS = float(np.finfo(float).eps)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Accepts complex arguments; rejects the poles at 0, -1, -2, ...
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"log_gamma pole at z = {z.real:g}")
    return complex(sp.loggamma(z))


# ---------------------------------------------------------------------------
# Scaled generalized exponential integral e^s * E_n(s)
# ---------------------------------------------------------------------------

def _expn_scaled_series(n: int, s: float) -> float:
    """e^s * E_n(s) for 0 < s <= 1 via the ascending series."""
    if n == 1:
        # E_1(s) = -gamma - ln s + sum_{k>=1} (-1)^{k+1} s^k / (k * k!)
        acc = -_EULER_GAMMA - math.log(s)
        term = 1.0
        for k in range(1, 200):
            term *= -s / k
            contrib = -term / k
            acc += contrib
            if abs(contrib) < 1e-18 * abs(acc):
                break
        return math.exp(s) * acc
    psi = -_EULER_GAMMA + sum(1.0 / i for i in range(1, n))
    lead = (-s) ** (n - 1) / math.factorial(n - 1) * (-math.log(s) + psi)
    acc = 0.0
    term = 1.0  # (-s)^k / k!
    for k in range(0, 400):
        if k > 0:
            term *= -s / k
        if k == n - 1:
            continue
        acc -= term / (k - n + 1)
        if k > n and abs(term / (k - n + 1)) < 1e-18 * max(abs(acc), 1e-300):
            break
    return math.exp(s) * (lead + acc)


def _expn_scaled_cf(n: int, s: float) -> float:
    """e^s * E_n(s) for s >= 1 via the modified Lentz continued fraction."""
    tiny = 1e-300
    b = s + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200_000):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise AccuracyError(
        f"continued fraction for order {n} did not converge at s = {s:g}",
        estimate=h,
        error_estimate=abs(h),
    )


def _expn_scaled_range(n_max: int, s: float) -> np.ndarray:
    """e^s * E_n(s) for n = 1 .. n_max.

    One seed is evaluated directly; the rest of the range is filled by the
    three-term relation n * E_{n+1}(s) = e^{-s} - s * E_n(s), run upward
    where n >= s and downward where n <= s, which keeps every step stable.
    """
    out = np.empty(n_max, dtype=float)
    if s <= 1.0:
        out[0] = _expn_scaled_series(1, s)
        for n in range(1, n_max):
            out[n] = (1.0 - s * out[n - 1]) / n
        return out
    n_seed = min(max(int(math.floor(s)), 1), n_max)
    out[n_seed - 1] = _expn_scaled_cf(n_seed, s)
    for n in range(n_seed, n_max):
        out[n] = (1.0 - s * out[n - 1]) / n
    for n in range(n_seed - 1, 0, -1):
        out[n - 1] = (1.0 - n * out[n]) / s
    return out


# ---------------------------------------------------------------------------
# Mellin-Barnes contour engine
# ---------------------------------------------------------------------------

def _pole_distance(w: float) -> float:
    """Distance from real w to the nearest pole 0, -1, -2, ... of Gamma."""
    if w > 0.0:
        return w
    return min(w - math.floor(w), math.ceil(w) - w)


class MellinBarnesEvaluator:
    """Vertical-line integral of a product of Gamma factors against x^{-s}.

    ``lower`` lists parameters b with a factor Gamma(b + s); ``upper``
    lists parameters a with a factor Gamma(1 - a - s).  The separating
    strip is max(-b) < c < min(1 - a), and by default the contour Re s = c
    sits at its midpoint (or one unit right of the poles when unbounded
    above), which gives the Meijer G function.  An explicit ``abscissa``
    places the line anywhere off the poles.  The value changes by the
    residues of the poles the line is moved across: moved right past
    poles of the upper factors, it leaves their terms out of G's residue
    sum over those poles.

    Gamma values along the contour depend only on the parameters, so they
    are computed once and reused for every argument x.  Node spacing
    follows the distance from the line to the nearest pole.  On the line
    |x^{-s}| = x^{-c}, so the kernel's decay does not depend on x either:
    the starting truncation height is where the log-kernel has fallen
    ``_START_DECAY`` below its peak.  The height then doubles, per argument,
    until the contour tail is negligible against the accumulated value.
    """

    _MAX_NODES = 131_072
    # Most kernel values (arguments x nodes) evaluated in one block.
    _BLOCK_ELEMENTS = 262_144
    _START_DECAY = 40.0

    def __init__(
        self,
        lower: tuple[float, ...],
        upper: tuple[float, ...] = (),
        abscissa: float | None = None,
    ):
        if not lower:
            raise ValueError("at least one Gamma(b + s) factor is required")
        self.lower = tuple(float(b) for b in lower)
        self.upper = tuple(float(a) for a in upper)
        if abscissa is None:
            c_lo = max(-b for b in self.lower)
            if self.upper:
                c_hi = min(1.0 - a for a in self.upper)
                if not c_hi > c_lo:
                    raise ValueError(
                        f"no separating contour: pole strip ({c_lo:g}, {c_hi:g}) is empty"
                    )
                abscissa = 0.5 * (c_lo + c_hi)
            else:
                abscissa = c_lo + 1.0
        self.abscissa = float(abscissa)
        margin = min(
            [_pole_distance(b + self.abscissa) for b in self.lower]
            + [_pole_distance(1.0 - a - self.abscissa) for a in self.upper]
        )
        if not margin > 0.0:
            raise ValueError(f"the contour Re s = {self.abscissa:g} passes through a pole")
        # Node spacing tied to the distance from the contour to the nearest
        # pole; the trapezoid rule is then spectrally accurate.
        self._h = min(0.05, margin / 3.0)
        self._levels: dict[int, tuple[np.ndarray, ...]] = {}
        intervals = 64
        while True:
            log_mag = self._log_kernel(intervals)[1].real
            fallen = np.flatnonzero(
                log_mag <= np.maximum.accumulate(log_mag) - self._START_DECAY
            )
            if fallen.size or 2 * intervals >= self._MAX_NODES:
                break
            intervals *= 2
        first = int(fallen[0]) if fallen.size else intervals
        # An even interval count puts the half-height prefix on a node.
        self._start = max(2, first + first % 2)
        self._peak = float(log_mag.max())

    def _log_kernel(self, intervals: int) -> tuple[np.ndarray, np.ndarray]:
        t = np.arange(intervals + 1) * self._h
        s = self.abscissa + 1j * t
        log_g = np.zeros_like(s)
        for b in self.lower:
            log_g += sp.loggamma(b + s)
        for a in self.upper:
            log_g += sp.loggamma(1.0 - a - s)
        return t, log_g

    def _level(self, intervals: int) -> tuple[np.ndarray, ...]:
        """Nodes, kernel phase, weighted magnitudes and tail at one height.

        Magnitudes are relative to the kernel peak and omit the factor
        x^{-c}, so large Gamma factors cannot overflow the cache.
        """
        cached = self._levels.get(intervals)
        if cached is not None:
            return cached
        t, log_g = self._log_kernel(intervals)
        mag = np.exp(log_g.real - self._peak)
        # Trapezoid weights on the full line: the truncation node keeps
        # half weight.
        trap = np.full(t.shape, self._h)
        trap[-1] *= 0.5
        weighted = mag * trap
        n_tail = max(4, t.size // 25)
        if weighted[-n_tail:].mean() > weighted.mean():
            raise ContourDivergenceError(
                "contour kernel grows toward the truncation edge"
            )
        # Half-line fold of the full trapezoid: the real-axis node counts
        # once, every t > 0 node stands for a conjugate pair.  The prefix
        # up to half the height is the same fold of the grid at that height.
        full = 2.0 * weighted
        full[0] = weighted[0]
        half = full[: intervals // 2 + 1].copy()
        half[-1] = 0.5 * full[intervals // 2]
        level = (t, log_g.imag, full, half, 2.0 * weighted[-n_tail:].sum())
        self._levels[intervals] = level
        return level

    def evaluate(
        self, x: float | np.ndarray, rel_target: float = 1e-8
    ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """Return (value, abs_error_estimate) of the contour integral at x.

        ``x`` is a positive scalar or array; both results have its shape,
        and are floats for a scalar.  The integral is reduced to twice the
        real part of the upper half-line, so the result is real by
        construction; the conjugate pairing that cancels the imaginary part
        is exact.  The error estimate is |T(H) - T(H/2)| + tail, where
        T(H/2) is the prefix of the same grid, plus the rounding floor
        eps * sum|terms|.  Arguments whose estimate misses ``rel_target``
        of |T(H)| go on to height 2H.  Raising the height cannot lower the
        floor, so AccuracyError is raised at once when the floor alone
        misses the target.
        """
        x_arr = np.asarray(x, dtype=float)
        if not np.all(x_arr > 0):
            raise ValueError("x must be positive")
        log_x = np.log(x_arr).ravel()
        scale = np.exp(self._peak - self.abscissa * log_x) / (2.0 * np.pi)
        value = np.empty_like(log_x)
        error = np.empty_like(log_x)
        pending = np.arange(log_x.size)
        intervals = self._start
        while True:
            t, phase, full, half, tail = self._level(intervals)
            floor = _EPS * full.sum() * scale
            rows = max(1, self._BLOCK_ELEMENTS // t.size)
            for lo in range(0, pending.size, rows):
                idx = pending[lo:lo + rows]
                kernel = np.cos(phase - np.outer(log_x[idx], t))
                total = kernel @ full
                prev = kernel[:, :half.size] @ half
                value[idx] = scale[idx] * total
                error[idx] = scale[idx] * (np.abs(total - prev) + tail) + floor[idx]
            target = rel_target * np.maximum(np.abs(value[pending]), 1e-300)
            hopeless = floor[pending] > target
            if hopeless.any():
                first = pending[np.argmax(hopeless)]
                raise AccuracyError(
                    f"contour rounding floor exceeds the relative target "
                    f"{rel_target:g} at {np.count_nonzero(hopeless)} of {log_x.size} arguments",
                    estimate=float(value[first]),
                    error_estimate=float(error[first]),
                )
            pending = pending[error[pending] > target]
            if not pending.size:
                break
            intervals *= 2
            if 2 * intervals > self._MAX_NODES:
                first = pending[0]
                raise AccuracyError(
                    f"contour refinement exceeded the node limit at "
                    f"{pending.size} of {log_x.size} arguments",
                    estimate=float(value[first]),
                    error_estimate=float(error[first]),
                )
        if x_arr.ndim == 0:
            return float(value[0]), float(error[0])
        return value.reshape(x_arr.shape), error.reshape(x_arr.shape)


@lru_cache(maxsize=256)
def _evaluator(
    lower: tuple[float, ...], upper: tuple[float, ...], abscissa: float | None = None
) -> MellinBarnesEvaluator:
    return MellinBarnesEvaluator(lower, upper, abscissa)


def meijer_g_2_1_1_2(
    x: float | np.ndarray, a1: float, b1: float, b2: float
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """G^{2,1}_{1,2}(x | a1; b1, b2) with its absolute error estimate.

    ``x`` is a positive scalar or array (see MellinBarnesEvaluator.evaluate).
    The kernel is Gamma(b1+s) Gamma(b2+s) Gamma(1-a1-s) x^{-s}; a separating
    contour requires -min(b1, b2) < 1 - a1.
    """
    ev = _evaluator((b1, b2), (a1,))
    return ev.evaluate(x)
