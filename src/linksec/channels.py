"""Channel model: fading distributions, pathloss, and the link model.

Squared Nakagami-m envelopes are Gamma distributed, so every link gain is a
Gamma variate with a shape ``alpha`` and a rate ``beta``.  The surface path
T -> element -> receiver multiplies two independent gains, giving the
Gamma-Gamma family.  Deterministic scale factors (transmit power, pathloss,
receiver noise) fold into the rate: if X ~ Gamma(alpha, beta) then
c*X ~ Gamma(alpha, beta/c).

The link model is stated once, here, and both the analytic capacities and
the simulator read it: ``surface_hops`` and ``relay_hops`` return a
receiver's two hops with those factors folded into the right one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FadingParams",
    "Geometry",
    "Scenario",
    "db_to_linear",
    "pathloss",
    "relay_hops",
    "sample_gamma",
    "snr_scaled_params",
    "surface_hops",
]

RECEIVERS = ("legit", "eve")


def _positive(value: float) -> bool:
    """True for a finite value above zero; nan and inf are not."""
    return value > 0 and math.isfinite(value)


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def pathloss(d: float, zeta: float) -> float:
    """Power pathloss d^-zeta for a propagation distance d in meters."""
    if not _positive(d):
        raise ValueError("distance must be positive and finite")
    if not _positive(zeta):
        raise ValueError("pathloss exponent must be positive and finite")
    return d ** (-zeta)


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


def snr_scaled_params(fading: FadingParams, scale: float) -> FadingParams:
    """Fold a deterministic SNR scale factor into the Gamma rate."""
    if not _positive(scale):
        raise ValueError("scale must be positive and finite")
    return FadingParams(alpha=fading.alpha, beta=fading.beta / scale)


@dataclass(frozen=True)
class Geometry:
    """Distances of the two-segment topology plus the pathloss exponent."""

    d_source_node: float
    d_node_legit: float
    d_node_eve: float
    pathloss_exponent: float

    def __post_init__(self):
        for name in ("d_source_node", "d_node_legit", "d_node_eve", "pathloss_exponent"):
            if not _positive(getattr(self, name)):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    """One source, one node, a legitimate receiver and an eavesdropper.

    The node is a reflecting surface of ``n_elements`` identical elements
    or a relay, which ignores ``n_elements``; the relay alone uses
    ``noise_power_relay``.  Fading is named after the hop it describes.
    """

    geometry: Geometry
    fading_source_node: FadingParams
    fading_node_legit: FadingParams
    fading_node_eve: FadingParams
    tx_power_dbm: float
    noise_power_relay: float
    noise_power_legit: float
    noise_power_eve: float
    n_elements: int = 1

    def __post_init__(self):
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
    scale, size)``; how the simulator's streams draw is described in
    ``montecarlo``.  The call returns, with the whole array filled, on the
    thread that made it.
    """
    return rng.gamma(shape=p.alpha, scale=1.0 / p.beta, size=size)


# ---------------------------------------------------------------------------
# The link model: power, pathloss and noise folded into each hop
# ---------------------------------------------------------------------------

def _receiver(scenario: Scenario, receiver: str) -> tuple[FadingParams, float, float]:
    """The receiver's hop fading, its distance from the node and its noise power."""
    geo = scenario.geometry
    if receiver == "legit":
        return scenario.fading_node_legit, geo.d_node_legit, scenario.noise_power_legit
    if receiver == "eve":
        return scenario.fading_node_eve, geo.d_node_eve, scenario.noise_power_eve
    raise ValueError(f"receiver must be one of {RECEIVERS}")


def surface_hops(scenario: Scenario, receiver: str) -> tuple[FadingParams, FadingParams]:
    """(X, Y): one element's gains towards ``receiver``, whose SNR is X * Y.

    X is the configured source-element fading.  Y, element to receiver, carries
    P * d_1^-z * d_r^-z / w_r: the power, both pathlosses and the noise.
    """
    fading, d_hop, noise = _receiver(scenario, receiver)
    geo = scenario.geometry
    z = geo.pathloss_exponent
    power = db_to_linear(scenario.tx_power_dbm)
    scale = power * pathloss(geo.d_source_node, z) * pathloss(d_hop, z) / noise
    return scenario.fading_source_node, snr_scaled_params(fading, scale)


def relay_hops(scenario: Scenario, receiver: str) -> tuple[FadingParams, FadingParams]:
    """(first, second): the SNRs of the relay's two hops towards ``receiver``.

    The first is scaled by P * d_1^-z / w_relay, the second by P * d_r^-z / w_r.
    """
    fading, d_hop, noise = _receiver(scenario, receiver)
    geo = scenario.geometry
    z = geo.pathloss_exponent
    power = db_to_linear(scenario.tx_power_dbm)
    first = power * pathloss(geo.d_source_node, z) / scenario.noise_power_relay
    second = power * pathloss(d_hop, z) / noise
    return snr_scaled_params(scenario.fading_source_node, first), snr_scaled_params(fading, second)
