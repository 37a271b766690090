"""Adaptive numerical integration for the capacity integrals.

One rule lives here: an adaptive Gauss-Kronrod rule (the 21-point Kronrod
extension of the 10-point Gauss rule, QUADPACK QK21) for real integrals
over (0, inf).  It is an open rule: no integrand is ever evaluated at an
interval endpoint, so integrands with a removable endpoint singularity
(the 1/z factor of the capacity integral) need no special casing by the
caller.  The error type shared with the contour engine in ``specfun``
is defined here as well.

Integrands are array-valued: each panel calls ``f`` once with the 1-D
array of its 21 nodes, and ``f`` returns an array of that shape or a
scalar, which is broadcast to the panel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "AccuracyError",
    "QuadratureResult",
    "integrate_semi_infinite",
]


class AccuracyError(ArithmeticError):
    """Raised when a requested tolerance could not be met.

    Carries the best available estimate so callers can decide whether to
    accept it anyway.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be nonnegative")


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


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray | float],
    tol_rel: float = 1e-8,
    budget: int = 200_000,
) -> QuadratureResult:
    """Integrate ``f`` over (0, inf).

    ``f`` receives a 1-D array of nodes and returns an array of the same
    shape, or a scalar.  The interval is mapped onto (0, 1) through
    x = t/(1-t) and then subdivided adaptively; ``evaluations`` counts
    nodes, 21 per panel.  ``f`` may have a removable singularity or a
    finite nonzero limit at 0; it is never called at x = 0.

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
