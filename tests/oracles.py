"""Reference implementations that the tests compare the library against.

None of these is reached by the CLI or by the capacity and simulator API:
an adaptive Gauss-Kronrod integrator on (0, inf) for the oracle integrals,
independent of the library's trapezoid rules, thin validating wrappers
over scipy, the scaled exponential integral, the capacities by routes
independent of the library's Gamma-hop rule (the
decode-and-forward closed form and contour path, the surface's 1 - MGF on
a Mellin-Barnes contour, the fixed-gain relay's Bessel-K survival
function), the Gamma and product-of-Gammas densities and distribution
functions, the product-of-Gammas sampler and moments, and the
simulator's draws and paired estimates, read off its documented layout.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np
from scipy import special as sp

from linksec import channels
from linksec.capacity import CapacityEstimate, df_ergodic_capacity
from linksec.channels import FadingParams, sample_gamma
from linksec.quadrature import AccuracyError, QuadratureResult
from linksec.specfun import MellinBarnesEvaluator, _evaluator

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod integration on (0, inf)
# ---------------------------------------------------------------------------

# QUADPACK QK21: the 21 Kronrod nodes on (-1, 1) and their weights, and the
# weights of the 10-point Gauss rule on the ten nodes it shares with them
# (the odd positions).  |K21 - G10| serves as the panel error.  All nodes
# are interior, which keeps the rule open.
_XK21 = np.array([
    -0.995657163025808080735527280689003, -0.973906528517171720077964012084452,
    -0.930157491355708226001207180059508, -0.865063366688984510732096688423493,
    -0.780817726586416897063717578345042, -0.679409568299024406234327365114874,
    -0.562757134668604683339000099272694, -0.433395394129247190799265943165784,
    -0.294392862701460198131126603103866, -0.148874338981631210884826001129720,
    0.0,
    0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
    0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
    0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
    0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
    0.973906528517171720077964012084452, 0.995657163025808080735527280689003,
])
_WK21 = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_WG10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
_PANEL_COST = len(_XK21)


def _panel_estimate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.empty_like(_XK21)
    fx[:] = f(mid + half * _XK21)
    k21 = half * float(_WK21 @ fx)
    g10 = half * float(_WG10 @ fx[1::2])
    return k21, abs(k21 - g10)


def _adaptive(f, a, b, tol_rel, budget):
    """Adaptive bisection with the embedded Gauss-Kronrod pair on (a, b)."""
    # Seed with a handful of panels so the first refinement has somewhere
    # to look other than the middle of the interval.
    seeds = np.linspace(a, b, 5)
    heap = []
    evals = 0
    counter = 0
    # Running totals drive the stopping test; the reported sums are formed
    # once by _sums, so they do not carry the running totals' drift.
    total = total_err = 0.0
    for lo, hi in zip(seeds[:-1], seeds[1:]):
        val, err = _panel_estimate(f, lo, hi)
        evals += _PANEL_COST
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
        total += val
        total_err += err

    while not (total_err <= tol_rel * abs(total) or total_err < 1e-300):
        if evals + 2 * _PANEL_COST > budget:
            total, total_err = _sums(heap)
            raise AccuracyError(
                f"evaluation budget {budget} exhausted before reaching "
                f"relative tolerance {tol_rel:g}",
                estimate=total,
                error_estimate=total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        total -= val
        total_err -= err
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            val, err = _panel_estimate(f, sub_lo, sub_hi)
            evals += _PANEL_COST
            heapq.heappush(heap, (-err, counter, sub_lo, sub_hi, val, err))
            counter += 1
            total += val
            total_err += err
    return (*_sums(heap), evals)


def _sums(heap) -> tuple[float, float]:
    """Value summed in interval order, and error, of the panels in the heap."""
    return (
        sum(item[4] for item in sorted(heap, key=lambda it: it[2])),
        sum(item[5] for item in heap),
    )


def gk21_semi_infinite(f, tol_rel: float = 1e-8, budget: int = 200_000) -> QuadratureResult:
    """Integrate ``f`` over (0, inf) by adaptive QK21, independent of the library's rule.

    ``f`` receives a 1-D array of nodes and returns an array of the same
    shape, or a scalar.  The interval is mapped onto (0, 1) through
    x = t/(1-t) and then subdivided adaptively; ``evaluations`` counts
    nodes, 21 per panel.  The rule is open: ``f`` may have a removable
    singularity or a finite nonzero limit at 0; it is never called at
    x = 0.

    Raises AccuracyError (carrying the best estimate) if the evaluation
    budget runs out before the requested relative tolerance is met.
    """
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")

    def g(t: np.ndarray) -> np.ndarray:
        u = 1.0 - t
        return f(t / u) / (u * u)

    value, err, evals = _adaptive(g, 0.0, 1.0, tol_rel, budget)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)



def upper_incomplete_gamma(a: float, x: float) -> float:
    """Unregularized upper incomplete gamma integral from x to infinity."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(sp.gammaincc(a, x) * sp.gamma(a))


def bessel_k(v: float, x: float) -> float:
    """Modified Bessel function of the second kind, real order.

    Symmetric in the order: K_v = K_{-v}.  Overflow (tiny argument with a
    large order) is reported rather than returned as inf.
    """
    if x <= 0:
        raise ValueError("bessel_k requires x > 0")
    val = float(sp.kv(v, x))
    if math.isinf(val):
        raise OverflowError(f"bessel_k overflows for order {v:g} at x = {x:g}")
    if math.isnan(val):
        raise ValueError(f"bessel_k undefined for order {v:g} at x = {x:g}")
    return val


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


def tricomi_u_integer(m: int, s: float) -> float:
    """Confluent hypergeometric U(m+1, m+1, s) for integer m >= 0.

    Equals the capacity kernel integral of gamma^m e^{-s gamma}/(1+gamma)
    over (0, inf), divided by m!.  Computed as s^{-m} e^s E_{m+1}(s).
    """
    if m != int(m) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if s <= 0:
        raise ValueError("s must be positive")
    m = int(m)
    return s ** (-m) * _expn_scaled_range(m + 1, s)[m]


def meijer_g_2_0_0_2(x: float, b1: float, b2: float) -> tuple[float, float]:
    """G^{2,0}_{0,2}(x | -; b1, b2); twice this at b = +-v/2 is K_v(2 sqrt x)."""
    return MellinBarnesEvaluator((b1, b2), ()).evaluate(x)


def meijer_g_1_2_2_1(x: float, a1: float, a2: float, b1: float) -> tuple[float, float]:
    """G^{1,2}_{2,1}(x | a1, a2; b1), the contour form of the relay capacity kernel."""
    return MellinBarnesEvaluator((b1,), (a1, a2)).evaluate(x)


def snr_scaled_params(fading: FadingParams, scale: float) -> FadingParams:
    """Fold a deterministic SNR scale factor into the Gamma rate."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    return FadingParams(alpha=fading.alpha, beta=fading.beta / scale)


def gamma_pdf(g, p: FadingParams):
    """Gamma density with shape p.alpha and rate p.beta."""
    g = np.asarray(g, dtype=float)
    out = np.where(
        g < 0,
        0.0,
        np.exp(
            p.alpha * math.log(p.beta)
            + (p.alpha - 1.0) * np.log(np.where(g > 0, g, 1.0))
            - p.beta * g
            - math.lgamma(p.alpha)
        ),
    )
    out = np.where(g == 0, 0.0 if p.alpha > 1 else (p.beta if p.alpha == 1 else np.inf), out)
    return out if out.ndim else float(out)


def gamma_cdf(g, p: FadingParams):
    """P[X <= g] through the upper incomplete gamma integral."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma_cdf requires g >= 0")
    out = 1.0 - sp.gammaincc(p.alpha, p.beta * g)
    return out if out.ndim else float(out)


def gamma_ccdf_series(g, p: FadingParams):
    """Survival function as the finite Poisson-tail sum; integer shape only."""
    if not float(p.alpha).is_integer():
        raise ValueError("series survival form requires an integer shape")
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma_ccdf_series requires g >= 0")
    n = int(p.alpha)
    bg = p.beta * g
    term = np.ones_like(bg)
    acc = np.ones_like(bg)
    for j in range(1, n):
        term = term * bg / j
        acc = acc + term
    out = acc * np.exp(-bg)
    return out if out.ndim else float(out)


def gamma_gamma_pdf(g, x: FadingParams, y: FadingParams):
    """Density of the product X * Y of two independent Gamma gains.

    Its power is the mean of the two shapes, its Bessel order their
    difference, and its rate the product of the two rates.
    """
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any(g_arr <= 0):
        raise ValueError("gamma_gamma_pdf requires g > 0")
    beta = x.beta * y.beta
    alpha = 0.5 * (x.alpha + y.alpha)
    order = x.alpha - y.alpha
    norm = math.exp(math.lgamma(x.alpha) + math.lgamma(y.alpha))
    bess = sp.kv(order, 2.0 * np.sqrt(g_arr * beta))
    out = 2.0 * beta ** alpha * g_arr ** (alpha - 1.0) * bess / norm
    return out if np.ndim(g) else float(out[0])


def sample_gamma_gamma(p1: FadingParams, p2: FadingParams, rng: np.random.Generator, size=None):
    """Draws of the product of two independent Gamma gains."""
    return sample_gamma(p1, rng, size) * sample_gamma(p2, rng, size)


def gamma_gamma_moment(x: FadingParams, y: FadingParams, k: int) -> float:
    """E[(X Y)^k] from the product-of-independent-Gammas factorization."""
    num = (
        math.lgamma(x.alpha + k)
        - math.lgamma(x.alpha)
        + math.lgamma(y.alpha + k)
        - math.lgamma(y.alpha)
    )
    return math.exp(num - k * math.log(x.beta * y.beta))


def df_ergodic_capacity_contour(f1: FadingParams, fb: FadingParams) -> CapacityEstimate:
    """Decode-and-forward capacity from Mellin-Barnes contour values of its kernel."""
    a1, ab = int(f1.alpha), int(fb.alpha)
    s = f1.beta + fb.beta
    g_by_order: dict[int, float] = {}
    total = 0.0
    for j in range(a1):
        for p in range(ab):
            m = j + p
            if m not in g_by_order:
                g_by_order[m], _ = meijer_g_1_2_2_1(1.0 / s, 0.0, -float(m), 0.0)
            total += (
                f1.beta ** j
                * fb.beta ** p
                / (math.factorial(j) * math.factorial(p))
                * s ** (-(m + 1))
                * g_by_order[m]
            )
    return CapacityEstimate(bits_per_sec_hz=total / _LN2, method="analytic")


def df_ergodic_capacity_closed_form(f1: FadingParams, fb: FadingParams) -> CapacityEstimate:
    """Decode-and-forward capacity in closed form; integer shapes only.

    The survival function is a finite double sum, and each of its terms
    integrates against 1/(1+g) to a confluent U function, here the scaled
    exponential integral e^s E_{m+1}(s).
    """
    a1, ab = int(f1.alpha), int(fb.alpha)
    if (a1, ab) != (f1.alpha, fb.alpha):
        raise ValueError("the closed form requires integer shapes")
    s = f1.beta + fb.beta
    scaled = _expn_scaled_range(a1 + ab - 1, s)
    total = 0.0
    for j in range(a1):
        for p in range(ab):
            m = j + p
            total += math.comb(m, j) * (f1.beta / s) ** j * (fb.beta / s) ** p * scaled[m]
    return CapacityEstimate(bits_per_sec_hz=total / _LN2, method="analytic")


# The library's two Gamma-hop sums and their two independent cross-checks.
DF_PATHS = (
    df_ergodic_capacity,
    df_ergodic_capacity_closed_form,
    df_ergodic_capacity_contour,
)


# ---------------------------------------------------------------------------
# Surface: 1 - MGF on a Mellin-Barnes contour
# ---------------------------------------------------------------------------

def mgf_complement_contour(
    z: np.ndarray, first: FadingParams, second: FadingParams
) -> np.ndarray:
    """1 - MGF(z) of one element's SNR, the product of the two hop gains.

    With x = (product of the two rates) / z and the hop shapes a, b, the MGF is
    G^{2,1}_{1,2}(x | 1; a, b) / (Gamma(a) Gamma(b)): the line integral of
    Gamma(a+u) Gamma(b+u) Gamma(-u) x^{-u} left of u = 0.  Moving the line
    to Re u = 1/2 drops only the residue at u = 0, which is
    Gamma(a) Gamma(b), the leading 1 of the MGF, so the shifted integral is
    -(1 - MGF) Gamma(a) Gamma(b) with no subtraction.

    The line's terms have size x^{-1/2} while 1 - MGF falls like ab/x, so
    its rounding grows like sqrt(x).  Where the residue at u = 1 is within
    5e-11 of the whole, (a+1)(b+1)/(2x) <= 5e-11, the value is ab/x.
    """
    a, b = first.alpha, second.alpha
    x = first.beta * second.beta / z
    far = x > 1e10 * (a + 1.0) * (b + 1.0)
    out = a * b / x
    if not far.all():
        value, _ = _evaluator((a, b), (1.0,), 0.5).evaluate(x[~far])
        out[~far] = -value / math.exp(math.lgamma(a) + math.lgamma(b))
    return out


def ergodic_capacity_irs_contour(x: FadingParams, y: FadingParams, n: int) -> CapacityEstimate:
    """Surface capacity from the contour's 1 - MGF in the damped MGF integral.

    Takes what ``ergodic_capacity_irs`` takes: one element's hops towards
    one receiver and the element count.
    """

    def integrand(z):
        out = np.zeros_like(z)
        near = z < 40.0
        zn = z[near]
        delta = mgf_complement_contour(zn, x, y)
        power = np.ones_like(delta)
        below = delta < 1.0
        power[below] = -np.expm1(n * np.log1p(-delta[below]))
        out[near] = power * np.exp(-zn) / zn
        return out

    result = gk21_semi_infinite(integrand, tol_rel=1e-10)
    return CapacityEstimate(bits_per_sec_hz=max(result.value, 0.0) / _LN2, method="analytic")


# ---------------------------------------------------------------------------
# Fixed-gain relay: the Bessel-K survival function (Hasna & Alouini, 2004)
# ---------------------------------------------------------------------------

def affg_ccdf_bessel(g, f1: FadingParams, fb: FadingParams, l: float):
    """Survival function of the fixed-gain end-to-end SNR as a Bessel-K sum.

    The end-to-end SNR is snr_1 * snr_b / (snr_b + l).  The first-hop
    shape must be an integer.  Terms are assembled in log space so the
    Bessel factor cannot overflow for tiny arguments.
    """
    a1 = int(f1.alpha)
    if a1 != f1.alpha:
        raise ValueError("the Bessel sum requires an integer first-hop shape")
    g_arr = np.asarray(g, dtype=float)
    out = np.ones(g_arr.shape)
    positive = g_arr > 0
    gp = g_arr[positive]
    ab = fb.alpha
    log_const = ab * math.log(fb.beta) - math.lgamma(ab) + math.log(2.0)
    bess_arg = 2.0 * np.sqrt(gp * f1.beta * fb.beta * l)
    # Uniform large-argument behavior; the scaled Bessel routine itself
    # gives up well before the term stops underflowing.
    asymptotic = bess_arg > 1e8
    log_asymptote = 0.5 * np.log(np.pi / (2.0 * bess_arg)) - bess_arg
    bess_finite = np.where(asymptotic, 1.0, bess_arg)
    half_log_ratio = 0.5 * (np.log(f1.beta * l * gp) - math.log(fb.beta))
    # Log of (f1.beta*l*g/fb.beta)^(u/2) * K_u(bess_arg) for u = ab - k;
    # -inf drops a term whose scaled Bessel value is not positive.
    log_bessel = []
    for k in range(a1):
        kve = sp.kve(ab - k, bess_finite)
        log_kv = np.where(kve > 0.0, np.log(np.where(kve > 0.0, kve, 1.0)), -np.inf) - bess_arg
        log_bessel.append((ab - k) * half_log_ratio + np.where(asymptotic, log_asymptote, log_kv))
    log_b1g = np.log(f1.beta * gp)
    total = np.zeros_like(gp)
    for j in range(a1):
        log_j = j * log_b1g - f1.beta * gp
        for k in range(j + 1):
            coef = math.log(math.comb(j, k)) + k * math.log(l) - math.lgamma(j + 1) + log_const
            log_term = coef + log_j + log_bessel[k]
            total += np.exp(np.where(log_term < -700.0, -np.inf, log_term))
    out[positive] = np.minimum(total, 1.0)
    return out


def affg_ergodic_capacity_bessel(f1: FadingParams, fb: FadingParams, l: float) -> CapacityEstimate:
    """Fixed-gain capacity: the Bessel-sum survival function against 1/(1+g), in log g."""
    u_max = 700.0 - math.log(max(f1.beta, fb.beta, 1.0))

    def h(u):
        return affg_ccdf_bessel(np.exp(np.minimum(u, u_max)), f1, fb, l) * sp.expit(u)

    result = gk21_semi_infinite(lambda u: h(u) + h(-u), tol_rel=1e-10)
    return CapacityEstimate(bits_per_sec_hz=result.value / _LN2, method="analytic")


# ---------------------------------------------------------------------------
# The simulator's draws, read off its documented layout
# ---------------------------------------------------------------------------

# Integer shapes up to this one are drawn as antithetic uniform products.
_PAIRED_MAX_SHAPE = 6


def erlang_pairs(rng: np.random.Generator, k: int, shape, scale: float) -> np.ndarray:
    """Gamma(k, ``scale``) draws in an array of ``shape``, whose last axis holds m rows.

    The documented paired order, with t = m - m // 2: k rounds of uniforms
    u of shape (..., t), each taken as 1 - u into rows [0, t) and, for u's
    first m // 2 rows, as u + 2^-53 into rows [t, m); then -log of each
    product, scaled.  An odd m leaves the middle row, t - 1, unpaired.
    """
    *lead, m = np.atleast_1d(shape).tolist()
    half = m // 2
    first, partner = np.ones((*lead, m - half)), np.ones((*lead, half))
    for _ in range(k):
        u = rng.random((*lead, m - half))
        first *= 1.0 - u
        partner *= u[..., :half] + 2.0**-53
    return -np.log(np.concatenate([first, partner], axis=-1)) * scale


def _gamma_block(rng: np.random.Generator, hop: FadingParams, shape) -> np.ndarray:
    if float(hop.alpha).is_integer() and 1 <= hop.alpha <= _PAIRED_MAX_SHAPE:
        return erlang_pairs(rng, int(hop.alpha), shape, 1.0 / hop.beta)
    return rng.gamma(hop.alpha, 1.0 / hop.beta, shape)


def simulated_bits(scenario, architecture: str, cfg):
    """Yield the (legitimate, eavesdropper) bits of each sub-chunk, in order.

    The simulator's documented layout, read independently: chunks of
    min(chunk_size, 2^16) rows, split at rows n*s//4 into four sub-chunks;
    sub-chunk s of chunk c draws from its own SFC64 stream seeded by
    (master seed, c, s); a surface draws x, y_L and y_E in blocks of four
    elements, a relay each hop as one element.
    """
    surface = architecture == "irs"
    hops = channels.surface_hops if surface else channels.relay_hops
    first, legit, eve = hops(scenario)
    rows = min(cfg.chunk_size, 2**16)
    for chunk, top in enumerate(range(0, cfg.samples, rows)):
        size = min(rows, cfg.samples - top)
        for sub in range(4):
            m = size * (sub + 1) // 4 - size * sub // 4
            if not m:
                continue
            seed = np.random.SeedSequence(cfg.master_seed, spawn_key=(chunk, sub))
            rng = np.random.Generator(np.random.SFC64(seed))
            if surface:
                snrs = [np.zeros(m), np.zeros(m)]
                for start in range(0, scenario.n_elements, 4):
                    x = _gamma_block(rng, first, (4, m))
                    for receiver, hop in enumerate((legit, eve)):
                        y = _gamma_block(rng, hop, (4, m))
                        for i in range(min(4, scenario.n_elements - start)):
                            snrs[receiver] += x[i] * y[i]
            else:
                g1, g2, g3 = (_gamma_block(rng, p, m) for p in (first, legit, eve))
                if architecture == "df":
                    snrs = [np.minimum(g1, g2), np.minimum(g1, g3)]
                else:
                    l = first.mean + 1.0
                    snrs = [g1 * (g / (g + l)) for g in (g2, g3)]
            yield tuple(np.log1p(snr) / _LN2 for snr in snrs)


def paired_mc_estimates(scenario, architecture: str, cfg) -> list[tuple[float, float]]:
    """(mean, s.e.) of each receiver's bits, with the s.e. over antithetic pairs.

    Row r of a sub-chunk of m rows and row r + m - m // 2 are a pair.  Pairs
    are independent of each other and of the unpaired rows, so the variance
    of the mean is (P var(pair sums) + U var(rows)) / n^2 over P pairs and U
    unpaired rows.
    """
    rows, pairs = ([], []), ([], [])
    for bits in simulated_bits(scenario, architecture, cfg):
        for receiver, b in enumerate(bits):
            half = b.size // 2
            rows[receiver].append(b)
            pairs[receiver].append(b[:half] + b[b.size - half :])
    out = []
    for receiver in range(2):
        b, s = np.concatenate(rows[receiver]), np.concatenate(pairs[receiver])
        n, p = b.size, s.size
        var = (p * s.var(ddof=1) + (n - 2 * p) * b.var(ddof=1)) / n**2
        out.append((float(b.mean()), math.sqrt(var)))
    return out
