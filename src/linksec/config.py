"""Flat key-value configuration files describing one physical scenario.

The format is declarative text with dotted section keys, one assignment
per line; blank lines and lines that start with ``#`` are skipped, but a
``#`` after a value is part of the value::

    geometry.d_node_eve = 20.0
    fading.source_node.alpha = 2

A single file describes the geometry, fading, power and noise that all
three architectures share; it parses into one flat ``Scenario``, in which
each ``geometry.NAME`` key sets the field ``NAME``.
Parsing validates everything and reports the complete list of violations,
not just the first one found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .channels import FadingParams, Scenario
from .montecarlo import McConfig
from .sweep import ARCHITECTURES, METHODS, VARIABLES, SweepSpec

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

# Defaults that are not values: each is the message given when its key is
# absent.  The _SWEEP keys are required once any one of them is given.
_REQUIRED = "required key is missing"
_SWEEP = "required for a sweep section"

_HOPS = ("source_node", "node_legit", "node_eve")
# Each geometry.NAME key sets the Scenario field NAME.
_GEOMETRY = ("d_source_node", "d_node_legit", "d_node_eve", "pathloss_exponent")

# Every key once, as (kind, default); a default that SweepSpec or McConfig
# owns is read from its class.  A positive key is a float that must be
# greater than zero.
_KEYS = {
    **{f"geometry.{name}": ("positive", _REQUIRED) for name in _GEOMETRY},
    **{f"fading.{hop}.{p}": ("positive", _REQUIRED) for hop in _HOPS for p in ("alpha", "beta")},
    "power.tx_dbm": ("float", _REQUIRED),
    "noise.relay": ("positive", _REQUIRED),
    "noise.legit": ("positive", _REQUIRED),
    "noise.eve": ("positive", _REQUIRED),
    "irs.n_elements": ("int", _REQUIRED),
    "sweep.variable": ("str", _SWEEP),
    "sweep.from": ("float", _SWEEP),
    "sweep.to": ("float", _SWEEP),
    "sweep.step": ("float", _SWEEP),
    "sweep.architectures": ("list", SweepSpec.architectures),
    "sweep.methods": ("list", SweepSpec.methods),
    "mc.samples": ("int", 200_000),
    "mc.master_seed": ("int", 20240915),
    "mc.chunk_size": ("int", McConfig.chunk_size),
}

_METHOD_ALIASES = {"mc": "monte-carlo", "montecarlo": "monte-carlo"}


def _finite(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(text)
    return number


_PARSERS = {
    "positive": _finite,
    "float": _finite,
    "int": int,
    "list": lambda text: tuple(part.strip() for part in text.split(",") if part.strip()),
    "str": str,
}


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
        if key not in _KEYS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values or key in rejected:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        kind = _KEYS[key][0]
        try:
            values[key] = _PARSERS[kind](rhs)
        except ValueError:
            expected = "an integer" if kind == "int" else "a finite number"
            violations.append(f"line {lineno}: {key}: expected {expected}, got {rhs!r}")
            rejected.add(key)
    return values, rejected


def _unknown(key: str, noun: str, names, known, expected: str) -> list[str]:
    return [
        f"{key}: unknown {noun} {name!r}; expected {expected} {','.join(known)}"
        for name in names
        if name not in known
    ]


def _fading(values: dict[str, object], hop: str) -> FadingParams:
    return FadingParams(values[f"fading.{hop}.alpha"], values[f"fading.{hop}.beta"])


def parse_config_text(text: str) -> ParsedConfig:
    """Parse and validate configuration text; raises ConfigError with the
    full violation list on any problem."""
    violations: list[str] = []
    values, rejected = _parse_lines(text, violations)
    sweep_keys = [key for key, (_, default) in _KEYS.items() if default == _SWEEP]
    sweep_given = any(key in values or key in rejected for key in sweep_keys)

    for key, (kind, default) in _KEYS.items():
        if key in values:
            if kind == "positive" and not values[key] > 0:
                violations.append(f"{key}: must be positive, got {values[key]!r}")
        elif default in (_REQUIRED, _SWEEP):
            if key not in rejected and (default == _REQUIRED or sweep_given):
                violations.append(f"{key}: {default}")
        else:
            values[key] = default
    if values.get("irs.n_elements", 1) < 1:
        violations.append("irs.n_elements: must be a positive integer")

    architectures = values["sweep.architectures"]
    methods = tuple(_METHOD_ALIASES.get(m, m) for m in values["sweep.methods"])
    unknown_names = _unknown(
        "sweep.architectures", "architecture", architectures, ARCHITECTURES, "a subset of"
    ) + _unknown("sweep.methods", "method", methods, METHODS, "a subset of")
    variable = (values["sweep.variable"],) if "sweep.variable" in values else ()
    unknown_variable = _unknown("sweep.variable", "variable", variable, VARIABLES, "one of")
    violations += unknown_names + unknown_variable

    sweep = None
    if sweep_given and all(key in values for key in sweep_keys) and not unknown_variable:
        # A bad name is reported above; the grid is still checked, under the
        # default names.
        names = {} if unknown_names else {"architectures": architectures, "methods": methods}
        try:
            sweep = SweepSpec(
                variable=values["sweep.variable"],
                start=values["sweep.from"],
                stop=values["sweep.to"],
                step=values["sweep.step"],
                **names,
            )
        except ValueError as exc:
            violations.append(f"sweep: {exc}")

    try:
        mc = McConfig(
            samples=values["mc.samples"],
            master_seed=values["mc.master_seed"],
            chunk_size=values["mc.chunk_size"],
        )
    except ValueError as exc:
        violations.append(f"mc: {exc}")

    if violations:
        raise ConfigError(violations)

    scenario = Scenario(
        **{name: values[f"geometry.{name}"] for name in _GEOMETRY},
        **{f"fading_{hop}": _fading(values, hop) for hop in _HOPS},
        tx_power_dbm=values["power.tx_dbm"],
        noise_power_relay=values["noise.relay"],
        noise_power_legit=values["noise.legit"],
        noise_power_eve=values["noise.eve"],
        n_elements=values["irs.n_elements"],
    )
    return ParsedConfig(scenario=scenario, sweep=sweep, mc=mc)


def parse_config(path: str) -> ParsedConfig:
    """Parse and validate the configuration file at ``path``, UTF-8 with or without a BOM."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config_text(fh.read())


def reference_config() -> ParsedConfig:
    """The built-in reference scenario used by the figure presets."""
    return parse_config_text(REFERENCE_CONFIG)
