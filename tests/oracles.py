"""Reference implementations that the tests compare the library against.

None of these is reached by the CLI or by the capacity and simulator API:
thin validating wrappers over scipy, the two independent evaluation paths
of the decode-and-forward capacity, the Gamma and product-of-Gammas
densities and distribution functions, and the product-of-Gammas sampler
and moments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from linksec.capacity import CapacityEstimate, df_ccdf, df_ergodic_capacity
from linksec.channels import FadingParams, GammaGammaParams, sample_gamma
from linksec.quadrature import integrate_semi_infinite
from linksec.specfun import MellinBarnesEvaluator, _expn_scaled_range, log_gamma

_LN2 = math.log(2.0)


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
            - log_gamma(p.alpha).real
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
    if not p.integer_shape:
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


def gamma_gamma_pdf(g, gg: GammaGammaParams):
    """Density of the product of two independent Gamma gains.

    Its power is the mean of the two shapes and its Bessel order their
    difference.
    """
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any(g_arr <= 0):
        raise ValueError("gamma_gamma_pdf requires g > 0")
    alpha = 0.5 * (gg.shape_first + gg.shape_second)
    order = gg.shape_first - gg.shape_second
    norm = math.exp(log_gamma(gg.shape_first).real + log_gamma(gg.shape_second).real)
    bess = sp.kv(order, 2.0 * np.sqrt(g_arr * gg.beta_gg))
    out = 2.0 * gg.beta_gg ** alpha * g_arr ** (alpha - 1.0) * bess / norm
    return out if np.ndim(g) else float(out[0])


def sample_gamma_gamma(p1: FadingParams, p2: FadingParams, rng: np.random.Generator, size=None):
    """Draws of the product of two independent Gamma gains."""
    return sample_gamma(p1, rng, size) * sample_gamma(p2, rng, size)


def gamma_gamma_moment(gg: GammaGammaParams, k: int) -> float:
    """E[SNR^k] from the product-of-independent-Gammas factorization."""
    num = (
        log_gamma(gg.shape_first + k).real
        - log_gamma(gg.shape_first).real
        + log_gamma(gg.shape_second + k).real
        - log_gamma(gg.shape_second).real
    )
    return math.exp(num - k * math.log(gg.beta_gg))


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


def df_ergodic_capacity_ccdf_quadrature(f1: FadingParams, fb: FadingParams) -> CapacityEstimate:
    """Decode-and-forward capacity by quadrature of the survival function against 1/(1+g)."""
    result = integrate_semi_infinite(lambda g: df_ccdf(g, f1, fb) / (1.0 + g), tol_rel=1e-10)
    return CapacityEstimate(bits_per_sec_hz=result.value / _LN2, method="analytic")


# The closed form and its two independent cross-checks.
DF_PATHS = (
    df_ergodic_capacity,
    df_ergodic_capacity_contour,
    df_ergodic_capacity_ccdf_quadrature,
)
