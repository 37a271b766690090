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
  1 - MGF directly.  One grid per parameter set, cut at a height set by
  the kernel's monotone decay, serves every argument; one call evaluates
  a whole array of arguments, with error = tail + rounding floor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .quadrature import AccuracyError

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

    The grid is built once, from the parameters alone.  Node spacing
    follows the distance from the line to the nearest pole, which makes
    the trapezoid rule converge exponentially.  On the line
    |x^{-s}| = x^{-c}, and the modulus of every Gamma factor falls
    monotonically in |Im s|, so the truncation error does not depend on
    x: the grid ends at the first node where the log-kernel has fallen
    ``_DECAY`` below its peak, and construction raises AccuracyError when
    that takes more than ``_MAX_NODES`` nodes.  What is left for
    ``evaluate`` to control is rounding.
    """

    _MAX_NODES = 131_072
    # Most kernel values (arguments x nodes) evaluated in one block.
    _BLOCK_ELEMENTS = 262_144
    _DECAY = 40.0

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
        intervals = 64
        while True:
            t = np.arange(intervals + 1) * self._h
            s = self.abscissa + 1j * t
            args = [b + s for b in self.lower] + [1.0 - a - s for a in self.upper]
            log_g = sum(sp.loggamma(w) for w in args)
            fallen = np.flatnonzero(
                log_g.real <= np.maximum.accumulate(log_g.real) - self._DECAY
            )
            if fallen.size:
                break
            if 2 * intervals >= self._MAX_NODES:
                raise AccuracyError(
                    f"contour kernel has not fallen e^-{self._DECAY:g} within "
                    f"{intervals + 1} nodes of spacing {self._h:.3g}",
                    estimate=math.nan,
                    error_estimate=math.inf,
                )
            intervals *= 2
        n = fallen[0] + 1
        self._t, log_g = t[:n], log_g[:n]
        self._phase = log_g.imag
        self._peak = float(log_g.real.max())
        # Trapezoid weights folded onto the half-line: the real-axis node
        # counts once, every t > 0 node stands for a conjugate pair, and the
        # truncation node keeps half weight.  Magnitudes are relative to the
        # peak and omit x^{-c}, so large Gamma factors cannot overflow.
        weighted = np.exp(log_g.real - self._peak) * self._h
        weighted[-1] *= 0.5
        self._weights = 2.0 * weighted
        self._weights[0] = weighted[0]
        # Relative error: the last nodes' share stands in for the truncated
        # tail, eps * sum|terms| for the rounding of the sum.
        tail = 2.0 * weighted[-max(4, n // 25):].sum()
        self._bound = tail + _EPS * self._weights.sum()

    def evaluate(
        self, x: float | np.ndarray, rel_target: float = 1e-8
    ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """Return (value, abs_error_estimate) of the contour integral at x.

        ``x`` is a positive scalar or array; both results have its shape,
        and are floats for a scalar.  The integral is reduced to twice the
        real part of the upper half-line, so the result is real by
        construction; the conjugate pairing that cancels the imaginary part
        is exact.  The value is the trapezoid sum on the evaluator's one
        grid; the error estimate is its truncated tail plus the rounding
        floor eps * sum|terms|, both scaled by x^{-c}.  AccuracyError is
        raised when the estimate misses ``rel_target`` of |value| at any
        argument.
        """
        x_arr = np.asarray(x, dtype=float)
        if not np.all(x_arr > 0):
            raise ValueError("x must be positive")
        log_x = np.log(x_arr).ravel()
        scale = np.exp(self._peak - self.abscissa * log_x) / (2.0 * np.pi)
        value = np.empty_like(log_x)
        rows = max(1, self._BLOCK_ELEMENTS // self._t.size)
        for lo in range(0, log_x.size, rows):
            block = slice(lo, lo + rows)
            kernel = np.cos(self._phase - np.outer(log_x[block], self._t))
            value[block] = scale[block] * (kernel @ self._weights)
        error = self._bound * scale
        missed = error > rel_target * np.maximum(np.abs(value), 1e-300)
        if missed.any():
            first = np.argmax(missed)
            raise AccuracyError(
                f"contour error estimate exceeds the relative target "
                f"{rel_target:g} at {np.count_nonzero(missed)} of {log_x.size} arguments",
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
    contour requires -min(b1, b2) < 1 - a1.  The capacities no longer call
    it; the benchmark's tracer (``bench/tracer.py``) still wraps it by name.
    """
    return _evaluator((b1, b2), (a1,)).evaluate(x)
