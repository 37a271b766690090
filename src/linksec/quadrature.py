"""The fixed trapezoid rule for the capacity integrals, and its error type.

``integrate_semi_infinite`` integrates over (0, inf) with a trapezoid rule
in s = log x on fixed nodes, in one pass: the node count follows from the
interval and the step alone.  For integrands analytic in a strip around the
real s axis the rule converges exponentially (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014), and the
difference from the rule on every other node serves as its error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "AccuracyError",
    "QuadratureResult",
    "integrate_semi_infinite",
]


class AccuracyError(ArithmeticError):
    """Raised when an analytic rule misses its stated tolerance.

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


# Step of the rule in log x, and the relative tolerance of its error estimate.
_STEP = 0.2
_TOL_REL = 1e-9


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray | float], s_lo: float, s_hi: float
) -> QuadratureResult:
    """Integrate ``f`` over (0, inf) as a trapezoid rule in s = log x.

    The nodes are s = s_lo + k*0.2 up to s_hi, and the integrand x f(x) is
    taken as negligible outside [s_lo, s_hi].  ``f`` receives the 1-D array
    of nodes x = e^s, in one call, and returns an array of that shape, or a
    scalar.  The error estimate is |T_h - T_2h|, T_2h the rule on every
    other node.

    Raises AccuracyError, carrying the estimate, if the error estimate
    exceeds 1e-9 relative, or if the integrand is not finite.
    """
    if not s_lo < s_hi:
        raise ValueError("s_lo must be below s_hi")
    h = _STEP
    x = np.exp(s_lo + h * np.arange(math.floor((s_hi - s_lo) / h) + 1))
    y = f(x) * x
    value = h * float(y.sum())
    error = abs(value - 2.0 * h * float(y[::2].sum()))
    if not error <= _TOL_REL * abs(value):
        raise AccuracyError(
            f"trapezoid rule in log x at step {h:g} missed relative tolerance "
            f"{_TOL_REL:g}: estimate {value:g}, error estimate {error:g}",
            estimate=value,
            error_estimate=error,
        )
    return QuadratureResult(value=value, abs_error_estimate=error, evaluations=x.size)
