"""Ergodic and secrecy capacities of the three architectures.

All capacities are in bits/s/Hz, and every fading shape may be any
positive real.  Every capacity is a trapezoid sum in a log variable on
nodes that follow from the inputs alone.

The surface element and the fixed-gain relay go through the moment
generating function M of the SNR (Hamdi's lemma):
C = (1/ln 2) * integral of (1 - M(z)^n) e^{-z} / z over z > 0, with n = N
for a surface of N independent elements and n = 1 for the relay.  For
both, 1 - M(z) is an expectation over a single unit-rate Gamma hop U of
1 - (1 + z phi(U))^{-p}, which is bounded, positive and analytic in
log u: the other hop has been averaged in closed form.  One trapezoid
rule in log u (``_gamma_rule``) takes that expectation, term by term
positive, so 1 - M is never formed by subtraction, and the fixed rule in
log z of ``quadrature.integrate_semi_infinite`` takes the outer integral.

The decode-and-forward relay needs no outer integral: the capacity of
the weaker hop is a sum over the two hops of E[log2(1 + G_i) P(G_j > G_i)],
each on the Gamma-hop rule of G_i.  The survival function is this
module's own regularized upper incomplete gamma (``_gammaincc``, element
by element: a Horner series below the split x = a + 1, a backward
continued fraction above it), so the capacities need NumPy and ``math``
only.

Each capacity takes the first hop and one receiver's second hop of the
triple that ``channels.surface_hops`` or ``channels.relay_hops`` returns.
Average secrecy is the clamped difference of the two receivers' ergodic
capacities: ``montecarlo.branches`` returns both and their difference for
any architecture from a ``Scenario``, and a sweep clamps it at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import FadingParams
from .quadrature import AccuracyError, integrate_semi_infinite

__all__ = [
    "CapacityEstimate",
    "affg_ergodic_capacity",
    "affg_snr_constant",
    "df_ergodic_capacity",
    "ergodic_capacity_irs",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity value and its standard error, zero for analytic results."""

    bits_per_sec_hz: float
    std_error: float = 0.0

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


# ---------------------------------------------------------------------------
# One Gamma hop: the inner rule and the damped MGF integral
# ---------------------------------------------------------------------------

# Nodes whose log-density lies further than this below the peak are dropped.
_RULE_DECAY = 45.0


@lru_cache(maxsize=64)
def _gamma_rule(shape: float, step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights w with sum(w * f(u)) ~ E f(U), U ~ Gamma(shape, 1).

    A trapezoid rule in v = log u on the nodes v = k*step, by default
    step = min(0.1, 0.5/sqrt(shape)), against the density
    exp(shape*v - e^v) of V, whose peak at v = log(shape) has width about
    1/sqrt(shape).  For integrands analytic in a strip around the real v
    axis it converges exponentially.  Nodes whose log-density is more than
    ``_RULE_DECAY`` below the peak are dropped; all others lie in
    [log(shape) - 45/shape - 1, log(2*shape + 90)].  The weights are
    normalized to sum to one, and both arrays are read-only.
    """
    h = min(0.1, 0.5 / math.sqrt(shape)) if step is None else step
    lo = math.log(shape) - _RULE_DECAY / shape - 1.0
    hi = math.log(2.0 * shape + 2.0 * _RULE_DECAY)
    v = h * np.arange(math.floor(lo / h), math.ceil(hi / h) + 1)
    log_density = shape * v - np.exp(v)
    keep = log_density >= shape * (math.log(shape) - 1.0) - _RULE_DECAY
    w = np.exp(log_density[keep] - log_density[keep].max())
    w /= w.sum()
    u = np.exp(v[keep])
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _complement(z: np.ndarray, phi: np.ndarray, w: np.ndarray, power: float) -> np.ndarray:
    """1 - E[(1 + z phi(U))^-power] on an array of z, as the rule's positive sum.

    The (z, u) array is transformed in place: on a whole outer grid it is
    the largest array of a capacity, and one copy of it is the peak memory.
    """
    t = np.multiply.outer(z, phi)
    np.log1p(t, out=t)
    t *= -power
    np.expm1(t, out=t)
    return -(t @ w)


# 1 - M^n is concave in z and vanishes at 0, so (1 - M^n)/z does not
# increase and the integral beyond z = _Z_TAIL is at most
# e^{-_Z_TAIL} / (1 - e^{-_Z_TAIL}) of the whole: below double precision.
_Z_TAIL = 40.0
# Below z = e^{-_Z_LEFT} / max(1, n m), n m the slope of 1 - M^n at 0, the
# integrand in log z is at most n m z, which leaves out about e^{-_Z_LEFT}.
_Z_LEFT = 32.0


def _damped_capacity(phi: np.ndarray, w: np.ndarray, power: float, n: int) -> CapacityEstimate:
    """(1/ln 2) * integral of (1 - M(z)^n) e^{-z}/z, 1 - M as in ``_complement``.

    The integral is the fixed trapezoid rule in log z of
    ``integrate_semi_infinite`` on [-log(max(1, n m)) - _Z_LEFT, log _Z_TAIL],
    where m = power * E[phi(U)] is the slope of 1 - M at 0.
    """

    def integrand(z: np.ndarray) -> np.ndarray:
        delta = _complement(z, phi, w, power)
        # 1 - (1 - delta)^n without cancellation for delta close to zero.
        power_complement = np.ones_like(delta)
        below = delta < 1.0
        power_complement[below] = -np.expm1(n * np.log1p(-delta[below]))
        return power_complement * np.exp(-z) / z

    slope = power * float(phi @ w)
    s_lo = -math.log(max(1.0, n * slope)) - _Z_LEFT
    result = integrate_semi_infinite(integrand, s_lo, math.log(_Z_TAIL))
    return CapacityEstimate(bits_per_sec_hz=max(result.value, 0.0) / _LN2)


# ---------------------------------------------------------------------------
# Surface-assisted link
# ---------------------------------------------------------------------------

def _element_hop(x: FadingParams, y: FadingParams) -> tuple[np.ndarray, np.ndarray, float]:
    """(phi, w, power) of the 1 - MGF of one element's SNR X * Y.

    With unit-rate Gamma hops U and V the element's SNR is U V / beta,
    beta the product of the two rates.  Averaging over V in closed form
    leaves 1 - MGF(z) = E_U[1 - (1 + z U / beta)^-b], b the shape of V.  U
    is the hop with the smaller shape, whose density is the wider in log u.
    """
    a, b = sorted((x.alpha, y.alpha))
    u, w = _gamma_rule(a)
    return u / (x.beta * y.beta), w, b


def ergodic_capacity_irs(x: FadingParams, y: FadingParams, n: int) -> CapacityEstimate:
    """E[log2(1 + sum of n element SNRs X_i Y_i)] via the damped MGF integral.

    ``x`` and ``y`` are X and one receiver's Y of ``channels.surface_hops``;
    the n elements are independent and alike.
    Out of the float range this may return nan or inf: call it through
    ``montecarlo.branches``, which raises OverflowError naming the power.
    """
    return _damped_capacity(*_element_hop(x, y), n)


# ---------------------------------------------------------------------------
# Regularized upper incomplete gamma
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
# Cap on the series length and on the continued-fraction depth of one shape.
_GAMMA_MAX_ITER = 10_000


@lru_cache(maxsize=64)
def _series_length(a: float) -> int:
    """Terms of the series for P(a, x) that reach double precision below the split.

    P(a, x) = x^a e^-x / Gamma(a + 1) * S with S = sum over n >= 0 of
    x^n / ((a + 1) ... (a + n)).  Every term grows with x, so the split
    x = a + 1 is the worst case, and S >= 1 makes the absolute tail bound a
    relative one.
    """
    x = a + 1.0
    term = 1.0
    for n in range(1, _GAMMA_MAX_ITER + 1):
        term *= x / (a + n)
        ratio = x / (a + n + 1.0)
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < 0.5 * _EPS:
            return n
    message = f"incomplete gamma series at shape {a:g} needs more than {_GAMMA_MAX_ITER} terms"
    raise AccuracyError(message, math.nan, math.inf)


@lru_cache(maxsize=64)
def _fraction_depth(a: float) -> int:
    """Depth of the continued fraction for Q(a, x) that converges above the split.

    Q(a, x) = x^a e^-x / Gamma(a) / (b_0 + a_1/(b_1 + a_2/(b_2 + ...))) with
    a_n = -n (n - a) and b_n = x + 2n + 1 - a (Numerical Recipes, 6.2).  It
    converges slowest at the split x = a + 1, where modified Lentz
    iterations (Numerical Recipes, 5.2) find the depth.  At integer a the
    numerator a_a vanishes and the fraction terminates exactly.
    """
    tiny = 1e-300
    b = 2.0  # b_0 at x = a + 1
    c, d = 1.0 / tiny, 1.0 / b
    for n in range(1, _GAMMA_MAX_ITER + 1):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        if abs(c * d - 1.0) < _EPS:
            return n
    message = f"incomplete gamma fraction at shape {a:g} needs more than {_GAMMA_MAX_ITER} terms"
    raise AccuracyError(message, math.nan, math.inf)


def _gammaincc(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x), element by element.

    Below the split x = a + 1, Q = 1 - P, P the series of ``_series_length``
    by Horner's rule from its last term; at and above it, the continued
    fraction of ``_fraction_depth``, evaluated backward.  Q(a, 0) = 1.  Both
    branches run on every element, x clamped into their range, and no
    operation mixes elements: scalar and array calls agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    split = a + 1.0
    low = np.minimum(np.maximum(x, 1e-300), split)
    s = np.ones(x.shape)
    for n in range(_series_length(a), 0, -1):
        s *= low
        s /= a + n
        s += 1.0
    q_low = 1.0 - s * np.exp(a * np.log(low) - low - math.lgamma(a + 1.0))
    high = np.minimum(np.maximum(x, split), 1e300)  # Q(a, 1e300) = Q(a, inf) = 0
    t = np.zeros(x.shape)
    for k in range(_fraction_depth(a), 0, -1):
        t += high
        t += 2.0 * k + 1.0 - a
        np.divide(-k * (k - a), t, out=t)
    q_high = np.exp(a * np.log(high) - high - math.lgamma(a)) / (high + (1.0 - a) + t)
    return np.where(x < split, np.where(x > 0.0, q_low, 1.0), q_high)


# ---------------------------------------------------------------------------
# Decode-and-forward relay
# ---------------------------------------------------------------------------

# Largest admissible |1 - P(G1 < G2) - P(G2 < G1)| on the rules' nodes.
_DF_UNITY_TOL = 1e-9


def df_ergodic_capacity(f1: FadingParams, fb: FadingParams) -> CapacityEstimate:
    """Ergodic capacity of the weakest-hop SNR as two sums on Gamma-hop rules.

    With hop SNRs G_i = U_i / beta_i, U_i ~ Gamma(shape_i, 1),
    E[ln(1 + min(G_1, G_b))] is the sum over i != j of
    E[ln(1 + G_i) Q(shape_j, beta_j G_i)], Q the survival function of the
    other hop: one expectation over one hop each, on ``_gamma_rule``.  The
    step min(0.1, 0.5/sqrt(max shape)) resolves the step of Q, whose width
    in log u is about 1/sqrt(shape_j).  The same Q values sum to
    P(G_1 < G_b) + P(G_b < G_1) = 1; AccuracyError is raised when they miss
    it by more than ``_DF_UNITY_TOL``.  The rules keep their full window:
    ln(1 + u/beta_i) does not vanish with u fast enough to trim it.
    Out of the float range this may return nan or inf: call it through
    ``montecarlo.branches``, which raises OverflowError naming the power.
    """
    step = min(0.1, 0.5 / math.sqrt(max(f1.alpha, fb.alpha)))
    capacity = unity = 0.0
    for own, other in ((f1, fb), (fb, f1)):
        u, w = _gamma_rule(own.alpha, step)
        g = u / own.beta
        q = _gammaincc(other.alpha, other.beta * g)
        capacity += float(w @ (np.log1p(g) * q))
        unity += float(w @ q)
    if not abs(1.0 - unity) <= _DF_UNITY_TOL:
        raise AccuracyError(
            f"decode-and-forward rule at step {step:g} gives "
            f"P(G1 < G2) + P(G2 < G1) = {unity!r}",
            estimate=capacity / _LN2,
            error_estimate=abs(1.0 - unity) * capacity / _LN2,
        )
    return CapacityEstimate(bits_per_sec_hz=capacity / _LN2)


# ---------------------------------------------------------------------------
# Fixed-gain relay
# ---------------------------------------------------------------------------

def affg_snr_constant(f1: FadingParams) -> float:
    """Gain constant of the fixed-gain relay: mean first-hop SNR plus one."""
    return f1.mean + 1.0


def _relay_hop(f1: FadingParams, fb: FadingParams) -> tuple[np.ndarray, np.ndarray]:
    """(phi, w): the end-to-end SNR is X phi(U), X ~ Gamma(shape_1, 1).

    snr_1 * snr_b / (snr_b + l) with snr_b = U / beta_b, U ~ Gamma(shape_b,
    1), and l = ``affg_snr_constant(f1)`` gives phi(u) = u / (beta_1 (u + l
    beta_b)); ``w`` is the receiving hop's rule.  Raises ValueError if l
    overflows.
    """
    l = affg_snr_constant(f1)
    if not math.isfinite(l):
        raise ValueError("gain constant must be finite")
    u, w = _gamma_rule(fb.alpha)
    return u / (f1.beta * (u + l * fb.beta)), w


def affg_ccdf(g: float | np.ndarray, f1: FadingParams, fb: FadingParams) -> float | np.ndarray:
    """Survival function of the fixed-gain end-to-end SNR.

    The end-to-end SNR is snr_1 * snr_b / (snr_b + l) = X phi(U), l the gain
    constant ``affg_snr_constant(f1)``, so its survival function is
    E_U[Q(shape_1, g / phi(U))], Q the regularized upper incomplete gamma,
    on the receiving hop's rule.  Both shapes may be any positive real.
    ``g`` is a nonnegative scalar or array; the result has its shape, is a
    float for a scalar, and is exactly 1 at 0.  Raises ValueError when the
    gain constant overflows.  Only the tests call it; it is not exported,
    but ``bench/tracer.py`` wraps it.
    """
    phi, w = _relay_hop(f1, fb)
    g_arr = np.asarray(g, dtype=float)
    if not np.all(g_arr >= 0):
        raise ValueError("g must be nonnegative")
    out = np.ones(g_arr.shape)
    positive = g_arr > 0
    x = np.multiply.outer(g_arr[positive], 1.0 / phi)
    tail = _gammaincc(f1.alpha, x) @ w
    out[positive] = np.minimum(tail, 1.0)
    return float(out) if g_arr.ndim == 0 else out


def affg_ergodic_capacity(f1: FadingParams, fb: FadingParams) -> CapacityEstimate:
    """Ergodic capacity of the fixed-gain link via the damped MGF integral.

    Averaging over X in closed form leaves
    1 - MGF(z) = E_U[1 - (1 + z phi(U))^-shape_1], phi as in ``affg_ccdf``.
    Out of the float range this may return nan or inf: call it through
    ``montecarlo.branches``, which raises OverflowError naming the power.
    """
    return _damped_capacity(*_relay_hop(f1, fb), f1.alpha, 1)
