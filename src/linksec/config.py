"""Flat key-value configuration files describing one physical scenario.

The format is declarative text with dotted section keys, one assignment
per line::

    geometry.d_node_eve = 20.0
    fading.source_node.alpha = 2

A single file describes the geometry, fading, power and noise that all
three architectures share; it parses into one ``Scenario``.
Parsing validates everything and reports the complete list of violations,
not just the first one found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .channels import FadingParams, Geometry, Scenario
from .montecarlo import ARCHITECTURES, McConfig
from .sweep import METHODS, VARIABLES, SweepSpec

__all__ = ["ConfigError", "ParsedConfig", "REFERENCE_CONFIG", "parse_config", "parse_config_text"]


class ConfigError(ValueError):
    """Carries every violation found in a configuration file."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


@dataclass(frozen=True)
class ParsedConfig:
    scenario: Scenario
    sweep: SweepSpec | None
    mc: McConfig


# The documented reference scenario, shipped with the package: distances in
# meters, noise powers in the same normalized units as the transmit power,
# unit-rate fading with shape 2 on every hop.  Calibrated so that the
# qualitative behavior of all three architectures (the surface winning at
# moderate power, the two relaying disciplines trading places as power
# grows) falls inside the default 0-50 dB sweep window.
REFERENCE_CONFIG = (resources.files(__package__) / "reference.cfg").read_text(encoding="utf-8")

_FLOAT_KEYS = {
    "geometry.d_source_node",
    "geometry.d_node_legit",
    "geometry.d_node_eve",
    "geometry.pathloss_exponent",
    "fading.source_node.alpha",
    "fading.source_node.beta",
    "fading.node_legit.alpha",
    "fading.node_legit.beta",
    "fading.node_eve.alpha",
    "fading.node_eve.beta",
    "power.tx_dbm",
    "noise.relay",
    "noise.legit",
    "noise.eve",
    "sweep.from",
    "sweep.to",
    "sweep.step",
}
_INT_KEYS = {"irs.n_elements", "mc.samples", "mc.master_seed", "mc.chunk_size"}
_LIST_KEYS = {"sweep.architectures", "sweep.methods"}
_STR_KEYS = {"sweep.variable"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | _STR_KEYS

_REQUIRED = sorted(
    k
    for k in _ALL_KEYS
    if k.startswith(("geometry.", "fading.", "power.", "noise.", "irs."))
)

_SWEEP_KEYS = ("sweep.variable", "sweep.from", "sweep.to", "sweep.step")

_MC_DEFAULTS = {"mc.samples": 200_000, "mc.master_seed": 20240915, "mc.chunk_size": 65536}

_METHOD_ALIASES = {"mc": "monte-carlo", "montecarlo": "monte-carlo"}


def _parse_lines(text: str, violations: list[str]) -> tuple[dict[str, object], set[str]]:
    """(parsed values, keys present but rejected); each rejection is one violation."""
    values: dict[str, object] = {}
    rejected: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _ALL_KEYS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values or key in rejected:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            if key in _FLOAT_KEYS:
                number = float(rhs)
                if not math.isfinite(number):
                    raise ValueError(rhs)
                values[key] = number
            elif key in _INT_KEYS:
                values[key] = int(rhs)
            elif key in _LIST_KEYS:
                values[key] = tuple(part.strip() for part in rhs.split(",") if part.strip())
            else:
                values[key] = rhs
        except ValueError:
            kind = "a finite number" if key in _FLOAT_KEYS else "an integer"
            violations.append(f"line {lineno}: {key}: expected {kind}, got {rhs!r}")
            rejected.add(key)
    return values, rejected


def parse_config_text(text: str) -> ParsedConfig:
    """Parse and validate configuration text; raises ConfigError with the
    full violation list on any problem."""
    violations: list[str] = []
    values, rejected = _parse_lines(text, violations)
    present = values.keys() | rejected

    for key in _REQUIRED:
        if key not in present and key not in _MC_DEFAULTS:
            violations.append(f"{key}: required key is missing")

    def positive(key: str) -> bool:
        if key in values and not values[key] > 0:
            violations.append(f"{key}: must be positive, got {values[key]!r}")
            return False
        return key in values

    for key in (
        "geometry.d_source_node",
        "geometry.d_node_legit",
        "geometry.d_node_eve",
        "geometry.pathloss_exponent",
        "noise.relay",
        "noise.legit",
        "noise.eve",
        "fading.source_node.alpha",
        "fading.source_node.beta",
        "fading.node_legit.alpha",
        "fading.node_legit.beta",
        "fading.node_eve.alpha",
        "fading.node_eve.beta",
    ):
        positive(key)
    if "irs.n_elements" in values and values["irs.n_elements"] < 1:
        violations.append("irs.n_elements: must be a positive integer")

    architectures = values.get("sweep.architectures", tuple(ARCHITECTURES))
    for arch in architectures:
        if arch not in ARCHITECTURES:
            violations.append(
                f"sweep.architectures: unknown architecture {arch!r}; "
                f"expected a subset of {','.join(ARCHITECTURES)}"
            )
    methods = tuple(_METHOD_ALIASES.get(m, m) for m in values.get("sweep.methods", ("analytic",)))
    for method in methods:
        if method not in METHODS:
            violations.append(
                f"sweep.methods: unknown method {method!r}; "
                f"expected a subset of {','.join(METHODS)}"
            )

    sweep_given = [k for k in _SWEEP_KEYS if k in present]
    sweep = None
    if sweep_given:
        missing = [k for k in _SWEEP_KEYS if k not in present]
        for key in missing:
            violations.append(f"{key}: required for a sweep section")
        if all(k in values for k in _SWEEP_KEYS):
            variable = values["sweep.variable"]
            if variable not in VARIABLES:
                violations.append(
                    f"sweep.variable: unknown variable {variable!r}; "
                    f"expected one of {','.join(VARIABLES)}"
                )
            elif not violations:
                try:
                    sweep = SweepSpec(
                        variable=variable,
                        start=values["sweep.from"],
                        stop=values["sweep.to"],
                        step=values["sweep.step"],
                        architectures=tuple(architectures),
                        methods=methods,
                    )
                except ValueError as exc:
                    violations.append(f"sweep: {exc}")

    try:
        mc = McConfig(
            samples=values.get("mc.samples", _MC_DEFAULTS["mc.samples"]),
            master_seed=values.get("mc.master_seed", _MC_DEFAULTS["mc.master_seed"]),
            chunk_size=values.get("mc.chunk_size", _MC_DEFAULTS["mc.chunk_size"]),
        )
    except ValueError as exc:
        violations.append(f"mc: {exc}")

    if violations:
        raise ConfigError(violations)

    scenario = Scenario(
        geometry=Geometry(
            d_source_node=values["geometry.d_source_node"],
            d_node_legit=values["geometry.d_node_legit"],
            d_node_eve=values["geometry.d_node_eve"],
            pathloss_exponent=values["geometry.pathloss_exponent"],
        ),
        fading_source_node=FadingParams(
            values["fading.source_node.alpha"], values["fading.source_node.beta"]
        ),
        fading_node_legit=FadingParams(
            values["fading.node_legit.alpha"], values["fading.node_legit.beta"]
        ),
        fading_node_eve=FadingParams(
            values["fading.node_eve.alpha"], values["fading.node_eve.beta"]
        ),
        tx_power_dbm=values["power.tx_dbm"],
        noise_power_relay=values["noise.relay"],
        noise_power_legit=values["noise.legit"],
        noise_power_eve=values["noise.eve"],
        n_elements=values["irs.n_elements"],
    )
    return ParsedConfig(scenario=scenario, sweep=sweep, mc=mc)


def parse_config(path: str) -> ParsedConfig:
    """Parse and validate the configuration file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def reference_config() -> ParsedConfig:
    """The built-in reference scenario used by the figure presets."""
    return parse_config_text(REFERENCE_CONFIG)
