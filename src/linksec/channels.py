"""Channel model: fading distributions, pathloss, and SNR parameterization.

Squared Nakagami-m envelopes are Gamma distributed, so every link gain is a
Gamma variate with a shape ``alpha`` and a rate ``beta``.  The surface path
T -> element -> receiver multiplies two independent gains, giving the
Gamma-Gamma family.  Deterministic scale factors (transmit power, pathloss,
receiver noise) fold into the rate: if X ~ Gamma(alpha, beta) then
c*X ~ Gamma(alpha, beta/c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FadingParams",
    "GammaGammaParams",
    "Geometry",
    "ScenarioIrs",
    "ScenarioRelay",
    "db_to_linear",
    "irs_element_params",
    "pathloss",
    "relay_hop_params",
    "sample_gamma",
    "snr_scaled_params",
]

RECEIVERS = ("legit", "eve")


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def pathloss(d: float, zeta: float) -> float:
    """Power pathloss d^-zeta for a propagation distance d in meters."""
    if d <= 0:
        raise ValueError("distance must be positive")
    if zeta <= 0:
        raise ValueError("pathloss exponent must be positive")
    return d ** (-zeta)


@dataclass(frozen=True)
class FadingParams:
    """Gamma shape/rate pair of one squared channel gain."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("fading shape and rate must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / self.beta

    @property
    def integer_shape(self) -> bool:
        return float(self.alpha).is_integer()


def snr_scaled_params(fading: FadingParams, scale: float) -> FadingParams:
    """Fold a deterministic SNR scale factor into the Gamma rate."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return FadingParams(alpha=fading.alpha, beta=fading.beta / scale)


@dataclass(frozen=True)
class Geometry:
    """Distances of the two-segment topology plus the pathloss exponent."""

    d_source_node: float
    d_node_legit: float
    d_node_eve: float
    pathloss_exponent: float

    def __post_init__(self):
        for name in ("d_source_node", "d_node_legit", "d_node_eve"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss_exponent must be positive")


@dataclass(frozen=True)
class ScenarioIrs:
    """Source -> reflecting surface -> receiver link with N identical elements."""

    n_elements: int
    geometry: Geometry
    fading_ts: FadingParams
    fading_sl: FadingParams
    fading_se: FadingParams
    tx_power_dbm: float
    noise_power_legit: float
    noise_power_eve: float

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be at least 1")
        if self.noise_power_legit <= 0 or self.noise_power_eve <= 0:
            raise ValueError("noise powers must be positive")


@dataclass(frozen=True)
class ScenarioRelay:
    """Source -> relay -> receiver link; serves both relaying disciplines."""

    geometry: Geometry
    fading_1: FadingParams
    fading_2: FadingParams
    fading_3: FadingParams
    tx_power_dbm: float
    noise_power_relay: float
    noise_power_legit: float
    noise_power_eve: float

    def __post_init__(self):
        if min(self.noise_power_relay, self.noise_power_legit, self.noise_power_eve) <= 0:
            raise ValueError("noise powers must be positive")


@dataclass(frozen=True)
class GammaGammaParams:
    """Product-of-two-Gammas distribution of one element's SNR.

    ``beta_gg`` is the product of the two rates (after any SNR scaling);
    the two hop shapes are kept as they are.
    """

    beta_gg: float
    shape_first: float
    shape_second: float

    @classmethod
    def from_hops(cls, first: FadingParams, second: FadingParams) -> "GammaGammaParams":
        return cls(
            beta_gg=first.beta * second.beta,
            shape_first=first.alpha,
            shape_second=second.alpha,
        )

    @property
    def mean(self) -> float:
        return self.shape_first * self.shape_second / self.beta_gg


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_gamma(p: FadingParams, rng: np.random.Generator, size=None):
    """Exact Gamma draws (shape-aware rejection sampling via numpy)."""
    return rng.gamma(shape=p.alpha, scale=1.0 / p.beta, size=size)


# ---------------------------------------------------------------------------
# SNR parameterization of the two architectures
# ---------------------------------------------------------------------------

def _irs_scale(scenario: ScenarioIrs, receiver: str) -> float:
    """Deterministic per-element SNR factor P * d_ts^-z * d_si^-z / w_i."""
    if receiver not in RECEIVERS:
        raise ValueError(f"receiver must be one of {RECEIVERS}")
    geo = scenario.geometry
    power = db_to_linear(scenario.tx_power_dbm)
    if receiver == "legit":
        d_hop, noise = geo.d_node_legit, scenario.noise_power_legit
    else:
        d_hop, noise = geo.d_node_eve, scenario.noise_power_eve
    return (
        power
        * pathloss(geo.d_source_node, geo.pathloss_exponent)
        * pathloss(d_hop, geo.pathloss_exponent)
        / noise
    )


def irs_element_params(scenario: ScenarioIrs, receiver: str) -> GammaGammaParams:
    """Distribution of one element's received SNR, scaling folded in."""
    hop2 = scenario.fading_sl if receiver == "legit" else scenario.fading_se
    scaled = snr_scaled_params(hop2, _irs_scale(scenario, receiver))
    return GammaGammaParams.from_hops(scenario.fading_ts, scaled)


def relay_hop_params(scenario: ScenarioRelay) -> dict[str, FadingParams]:
    """Per-hop SNR distributions with power/pathloss/noise folded in.

    Keys: "first" (source -> relay), "legit" and "eve" (relay -> receiver).
    """
    geo = scenario.geometry
    power = db_to_linear(scenario.tx_power_dbm)
    z = geo.pathloss_exponent
    c1 = power * pathloss(geo.d_source_node, z) / scenario.noise_power_relay
    c2 = power * pathloss(geo.d_node_legit, z) / scenario.noise_power_legit
    c3 = power * pathloss(geo.d_node_eve, z) / scenario.noise_power_eve
    return {
        "first": snr_scaled_params(scenario.fading_1, c1),
        "legit": snr_scaled_params(scenario.fading_2, c2),
        "eve": snr_scaled_params(scenario.fading_3, c3),
    }
