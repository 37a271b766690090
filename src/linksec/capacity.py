"""Closed-form ergodic and secrecy capacities of the three architectures.

All capacities are in bits/s/Hz.  The surface-assisted link goes through
the moment generating function of the per-element SNR: independence across
elements turns the MGF of the summed SNR into the single-element factor
raised to the N-th power, and the ergodic capacity is a one-dimensional
exponentially damped integral of (1 - MGF^N)/z.  The complement 1 - MGF
comes straight from one Mellin-Barnes contour, placed one pole to the
right of the MGF's own, so it is never formed by subtraction.

Relay capacities integrate the end-to-end survival function against
1/(1+snr).  For decode-and-forward the survival function of the weakest
hop gives a finite double sum whose integral closes in the confluent
U function.  For the fixed-gain relay the survival function carries a
Bessel K factor and the capacity integral is evaluated by quadrature.

Average secrecy is the clamped difference of the two receivers' ergodic
capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import channels, specfun
from .channels import FadingParams, GammaGammaParams, ScenarioIrs, ScenarioRelay
from .quadrature import integrate_semi_infinite
from .specfun import _expn_scaled_range

__all__ = [
    "CapacityEstimate",
    "affg_branches",
    "affg_ccdf",
    "affg_ergodic_capacity",
    "affg_secrecy",
    "affg_snr_constant",
    "df_branches",
    "df_ccdf",
    "df_ergodic_capacity",
    "df_secrecy",
    "ergodic_capacity_irs",
    "irs_branches",
    "irs_secrecy",
    "mgf_irs_element",
    "secrecy_capacity",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity value with its provenance.

    ``std_error`` and ``samples`` are zero for analytic results.
    """

    bits_per_sec_hz: float
    method: str
    std_error: float = 0.0
    samples: int = 0

    def __post_init__(self):
        if self.method not in ("analytic", "monte-carlo"):
            raise ValueError("method must be 'analytic' or 'monte-carlo'")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def secrecy_capacity(cl: CapacityEstimate, ce: CapacityEstimate) -> CapacityEstimate:
    """Clamped difference of the legitimate and eavesdropper capacities."""
    value = max(cl.bits_per_sec_hz - ce.bits_per_sec_hz, 0.0)
    method = "analytic" if cl.method == ce.method == "analytic" else "monte-carlo"
    return CapacityEstimate(
        bits_per_sec_hz=value,
        method=method,
        std_error=math.hypot(cl.std_error, ce.std_error),
        samples=max(cl.samples, ce.samples),
    )


# ---------------------------------------------------------------------------
# Surface-assisted link
# ---------------------------------------------------------------------------

def _mgf_complement(z: np.ndarray, gg: GammaGammaParams) -> np.ndarray:
    """1 - MGF(z) of one element's SNR on an array of positive z.

    With x = beta_gg / z and the hop shapes a, b, the MGF is
    G^{2,1}_{1,2}(x | 1; a, b) / (Gamma(a) Gamma(b)): the line integral of
    Gamma(a+u) Gamma(b+u) Gamma(-u) x^{-u} left of u = 0.  Moving the line
    to Re u = 1/2 drops only the residue at u = 0, which is
    Gamma(a) Gamma(b), the leading 1 of the MGF, so the shifted integral is
    -(1 - MGF) Gamma(a) Gamma(b) with no subtraction.

    The line's terms have size x^{-1/2} while 1 - MGF falls like ab/x, so
    its rounding grows like sqrt(x).  For large x the residues at
    u = 1, 2, ... give 1 - MGF ~ ab/x - a(a+1) b(b+1)/(2x^2) + ...; where
    the second term is below 5e-11 of the first, (a+1)(b+1)/(2x) <= 5e-11,
    ab/x alone is the value.
    """
    a, b = gg.shape_first, gg.shape_second
    x = gg.beta_gg / z
    far = x > 1e10 * (a + 1.0) * (b + 1.0)
    out = a * b / x
    if not far.all():
        # Re u = 1/2 lies between the poles u = 0 and u = 1 of Gamma(-u).
        value, _ = specfun._evaluator((a, b), (1.0,), 0.5).evaluate(x[~far])
        log_norm = specfun.log_gamma(a).real + specfun.log_gamma(b).real
        out[~far] = -value / math.exp(log_norm)
    return out


def mgf_irs_element(z: float | np.ndarray, gg: GammaGammaParams) -> float | np.ndarray:
    """Laplace transform E[exp(-z * SNR)] of one element's SNR.

    ``z`` is a positive scalar or array; the result has its shape, and is a
    float for a scalar.  It is one minus the complement 1 - MGF that the
    capacity integral uses (at most one contour call for all z), clipped
    to [0, 1].
    """
    z_arr = np.asarray(z, dtype=float)
    if not np.all(z_arr > 0):
        raise ValueError("z must be positive")
    out = np.clip(1.0 - _mgf_complement(np.atleast_1d(z_arr), gg), 0.0, 1.0)
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def _one_minus_mgf_pow(z: np.ndarray, gg: GammaGammaParams, n: int) -> np.ndarray:
    """1 - MGF(z)^n on an array of z, without cancellation for MGF close to one."""
    delta = _mgf_complement(z, gg)
    out = np.ones_like(delta)
    below = ~(delta >= 1.0)
    out[below] = -np.expm1(n * np.log1p(-delta[below]))
    return out


# 1 - MGF^n is concave in z and vanishes at 0, so (1 - MGF^n)/z does not
# increase and the integral beyond z = _Z_TAIL is at most
# e^{-_Z_TAIL} / (1 - e^{-_Z_TAIL}) of the whole: below double precision.
# The cut also keeps x = beta_gg/z away from the tiny values at which the
# contour's rounding floor grows like x^{-1/2}.
_Z_TAIL = 40.0


def ergodic_capacity_irs(scenario: ScenarioIrs, receiver: str) -> CapacityEstimate:
    """E[log2(1 + sum of element SNRs)] via the damped MGF integral."""
    gg = channels.irs_element_params(scenario, receiver)
    n = scenario.n_elements

    def integrand(z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(z)
        near = z < _Z_TAIL
        zn = z[near]
        out[near] = _one_minus_mgf_pow(zn, gg, n) * np.exp(-zn) / zn
        return out

    result = integrate_semi_infinite(integrand, tol_rel=1e-9)
    return CapacityEstimate(bits_per_sec_hz=max(result.value, 0.0) / _LN2, method="analytic")


def irs_branches(scenario: ScenarioIrs) -> tuple[CapacityEstimate, CapacityEstimate]:
    """Closed-form (legitimate, eavesdropper) ergodic capacities of the surface link."""
    return (
        ergodic_capacity_irs(scenario, "legit"),
        ergodic_capacity_irs(scenario, "eve"),
    )


def irs_secrecy(scenario: ScenarioIrs) -> CapacityEstimate:
    return secrecy_capacity(*irs_branches(scenario))


# ---------------------------------------------------------------------------
# Decode-and-forward relay
# ---------------------------------------------------------------------------

def _require_integer_shapes(*params: FadingParams) -> tuple[int, ...]:
    shapes = []
    for p in params:
        if not p.integer_shape:
            raise ValueError(
                "relay closed forms require integer fading shapes; "
                f"got alpha = {p.alpha:g}"
            )
        shapes.append(int(p.alpha))
    return tuple(shapes)


def df_ccdf(g: float | np.ndarray, f1: FadingParams, fb: FadingParams) -> float | np.ndarray:
    """Survival function of the weakest-hop SNR min(snr_1, snr_b).

    ``g`` is a nonnegative scalar or array; the result has its shape, and
    is a float for a scalar.
    """
    a1, ab = _require_integer_shapes(f1, fb)
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < 0):
        raise ValueError("g must be nonnegative")
    total = np.zeros_like(g_arr)
    for j in range(a1):
        for p in range(ab):
            total += (
                f1.beta ** j
                * fb.beta ** p
                * g_arr ** (j + p)
                / (math.factorial(j) * math.factorial(p))
            )
    out = total * np.exp(-g_arr * (f1.beta + fb.beta))
    return float(out) if g_arr.ndim == 0 else out


def df_ergodic_capacity(f1: FadingParams, fb: FadingParams) -> CapacityEstimate:
    """Ergodic capacity of the weakest-hop SNR, in closed form.

    The survival function is a finite double sum, and each of its terms
    integrates against 1/(1+g) to a confluent U function, here the scaled
    exponential integral e^s E_{m+1}(s).
    """
    a1, ab = _require_integer_shapes(f1, fb)
    s = f1.beta + fb.beta
    scaled = _expn_scaled_range(a1 + ab - 1, s)
    total = 0.0
    for j in range(a1):
        for p in range(ab):
            m = j + p
            total += (
                math.comb(m, j)
                * (f1.beta / s) ** j
                * (fb.beta / s) ** p
                * scaled[m]
            )
    return CapacityEstimate(bits_per_sec_hz=total / _LN2, method="analytic")


def df_branches(scenario: ScenarioRelay) -> tuple[CapacityEstimate, CapacityEstimate]:
    """(Legitimate, eavesdropper) ergodic capacities of the decode-and-forward link."""
    hops = channels.relay_hop_params(scenario)
    return (
        df_ergodic_capacity(hops["first"], hops["legit"]),
        df_ergodic_capacity(hops["first"], hops["eve"]),
    )


def df_secrecy(scenario: ScenarioRelay) -> CapacityEstimate:
    return secrecy_capacity(*df_branches(scenario))


# ---------------------------------------------------------------------------
# Fixed-gain relay
# ---------------------------------------------------------------------------

def affg_snr_constant(f1: FadingParams) -> float:
    """Gain constant of the fixed-gain relay: mean first-hop SNR plus one."""
    return f1.mean + 1.0


def affg_ccdf(
    g: float | np.ndarray, f1: FadingParams, fb: FadingParams, l: float
) -> float | np.ndarray:
    """Survival function of the fixed-gain end-to-end SNR.

    The end-to-end SNR is snr_1 * snr_b / (snr_b + l).  Requires the
    first-hop shape to be an integer; the receiving-hop shape may be any
    positive real.  ``g`` is a nonnegative scalar or array; the result has
    its shape, and is a float for a scalar.  Terms are assembled in log
    space so the Bessel factor cannot overflow for tiny arguments.
    """
    (a1,) = _require_integer_shapes(f1)
    if l <= 0:
        raise ValueError("gain constant must be positive")
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < 0):
        raise ValueError("g must be nonnegative")
    out = np.ones(g_arr.shape)
    positive = g_arr > 0
    gp = g_arr[positive]
    ab = fb.alpha
    log_const = ab * math.log(fb.beta) - specfun.log_gamma(ab).real + math.log(2.0)
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
    return float(out) if g_arr.ndim == 0 else out


def affg_ergodic_capacity(
    f1: FadingParams, fb: FadingParams, l: float
) -> CapacityEstimate:
    """Ergodic capacity of the fixed-gain link by survival-function quadrature."""
    result = integrate_semi_infinite(
        lambda g: affg_ccdf(g, f1, fb, l) / (1.0 + g), tol_rel=1e-9
    )
    return CapacityEstimate(bits_per_sec_hz=result.value / _LN2, method="analytic")


def affg_branches(scenario: ScenarioRelay) -> tuple[CapacityEstimate, CapacityEstimate]:
    """(Legitimate, eavesdropper) ergodic capacities of the fixed-gain link."""
    hops = channels.relay_hop_params(scenario)
    l = affg_snr_constant(hops["first"])
    return (
        affg_ergodic_capacity(hops["first"], hops["legit"], l),
        affg_ergodic_capacity(hops["first"], hops["eve"], l),
    )


def affg_secrecy(scenario: ScenarioRelay) -> CapacityEstimate:
    return secrecy_capacity(*affg_branches(scenario))
