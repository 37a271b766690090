"""Channel model: fading distributions, the scenario, and the link model.

Squared Nakagami-m envelopes are Gamma distributed, so every link gain is a
Gamma variate with a shape ``alpha`` and a rate ``beta``.  The surface path
T -> element -> receiver multiplies two independent gains, giving the
Gamma-Gamma family.  Deterministic scale factors (transmit power, pathloss,
receiver noise) fold into the rate: if X ~ Gamma(alpha, beta) then
c*X ~ Gamma(alpha, beta/c).

A ``Scenario`` is one flat record: each distance, the pathloss exponent,
each hop's fading, the power and each noise power is one field.  The link
model is stated once, here: both receivers hear one source-side hop, so
``surface_hops`` and ``relay_hops`` return the hop triple (first,
second_L, second_E) with those factors folded into the right hop; a hop
whose folded scale, rate or mean leaves the float range raises
``OverflowError`` naming the power (``montecarlo.branches`` does the rest).
The ``montecarlo.ARCHITECTURES`` table reads them for both routes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FadingParams",
    "Scenario",
    "relay_hops",
    "surface_hops",
]


def _positive(value: float) -> bool:
    """True for a finite value above zero; nan and inf are not."""
    return value > 0 and math.isfinite(value)


@dataclass(frozen=True)
class FadingParams:
    """Gamma shape/rate pair of one squared channel gain."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (_positive(self.alpha) and _positive(self.beta)):
            raise ValueError("fading shape and rate must be positive and finite")

    @property
    def mean(self) -> float:
        return self.alpha / self.beta


@dataclass(frozen=True)
class Scenario:
    """One source, one node, a legitimate receiver and an eavesdropper.

    One field per scenario config key.  Distances, in meters, and fading are
    named after the hop they describe; every hop's pathloss is
    d^-``pathloss_exponent``.  The node is a reflecting surface of
    ``n_elements`` identical elements or a relay, which ignores
    ``n_elements``; the relay alone uses ``noise_power_relay``.
    """

    d_source_node: float
    d_node_legit: float
    d_node_eve: float
    pathloss_exponent: float
    fading_source_node: FadingParams
    fading_node_legit: FadingParams
    fading_node_eve: FadingParams
    tx_power_dbm: float
    noise_power_relay: float
    noise_power_legit: float
    noise_power_eve: float
    n_elements: int = 1

    def __post_init__(self):
        for name in ("d_source_node", "d_node_legit", "d_node_eve", "pathloss_exponent"):
            if not _positive(getattr(self, name)):
                raise ValueError(f"{name} must be positive and finite")
        try:
            operator.index(self.n_elements)
        except TypeError:
            raise ValueError(f"n_elements must be an integer, not {self.n_elements!r}") from None
        if not self.n_elements >= 1:
            raise ValueError("n_elements must be at least 1")
        noise = (self.noise_power_relay, self.noise_power_legit, self.noise_power_eve)
        if not all(map(_positive, noise)):
            raise ValueError("noise powers must be positive and finite")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_gamma(p: FadingParams, rng, size=None):
    """A new array of ``size`` exact Gamma(alpha, beta) draws from ``rng``.

    ``rng`` is a numpy ``Generator``, or anything with its ``gamma(shape,
    scale, size)``.  The simulator does not call it: its pool threads
    draw through their own fill, described in ``montecarlo``.  Only the
    tests call it; it is not exported, but ``bench/tracer.py`` wraps it.
    """
    return rng.gamma(shape=p.alpha, scale=1.0 / p.beta, size=size)


# ---------------------------------------------------------------------------
# The link model: power, pathloss and noise folded into each hop
# ---------------------------------------------------------------------------

def _folded(
    fading: FadingParams, scenario: Scenario, noise: float, *distances: float
) -> FadingParams:
    """``fading`` with P * (d^-zeta for each of ``distances``) / ``noise`` in its rate.

    The scale is formed left to right, zeta the scenario's pathloss exponent.
    If a power in it overflows, or the scale, the folded rate or the folded
    mean is not finite and positive, raises OverflowError naming the power.
    """
    message = f"SNR scale leaves the float range at {scenario.tx_power_dbm} dB"
    try:
        scale = 10.0 ** (scenario.tx_power_dbm / 10.0)
        for d in distances:
            scale *= d ** (-scenario.pathloss_exponent)
    except OverflowError:
        raise OverflowError(message) from None
    scale /= noise
    beta = fading.beta / scale if _positive(scale) else 0.0
    if not (_positive(beta) and _positive(fading.alpha / beta)):
        raise OverflowError(message)
    return FadingParams(fading.alpha, beta)


def _second_hops(scenario: Scenario, *first: float) -> tuple[FadingParams, FadingParams]:
    """(legit, eve) hops, hop r with P * (d^-z of each ``first`` distance) * d_r^-z / w_r."""
    s = scenario
    return (
        _folded(s.fading_node_legit, s, s.noise_power_legit, *first, s.d_node_legit),
        _folded(s.fading_node_eve, s, s.noise_power_eve, *first, s.d_node_eve),
    )


def surface_hops(scenario: Scenario) -> tuple[FadingParams, FadingParams, FadingParams]:
    """(X, Y_L, Y_E): one element's gains, whose SNR at receiver r is X * Y_r.

    X is the configured source-element fading.  Y_r, element to receiver r,
    carries P * d_1^-z * d_r^-z / w_r: the power, both pathlosses and the noise.
    """
    return scenario.fading_source_node, *_second_hops(scenario, scenario.d_source_node)


def relay_hops(scenario: Scenario) -> tuple[FadingParams, FadingParams, FadingParams]:
    """(first, second_L, second_E): the SNRs of the relay's hops.

    Both receivers hear the one first hop, scaled by P * d_1^-z / w_relay;
    second_r is scaled by P * d_r^-z / w_r.
    """
    relay = scenario.noise_power_relay
    first = _folded(scenario.fading_source_node, scenario, relay, scenario.d_source_node)
    return first, *_second_hops(scenario)
