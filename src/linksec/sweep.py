"""Parameter sweeps, CSV emission, and analytic-vs-Monte-Carlo validation.

A sweep varies one scenario parameter over a grid and records, for every
(grid value, architecture, method) combination, the secrecy capacity and
the two per-receiver ergodic capacities.  Points are evaluated one after
another and rows are emitted in a deterministic order (sorted by value,
architecture, method), so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import capacity, montecarlo
from .channels import Scenario
from .montecarlo import McConfig
from .quadrature import AccuracyError

__all__ = [
    "ARCHITECTURES",
    "CSV_COLUMNS",
    "FIGURE_IDS",
    "METHODS",
    "VARIABLES",
    "SweepRow",
    "SweepSpec",
    "ValidationReport",
    "figure_preset",
    "rows_to_csv",
    "run_sweep",
    "validate",
]

ARCHITECTURES = tuple(montecarlo.ARCHITECTURES)
METHODS = ("analytic", "monte-carlo")

# Each sweep variable and how it sets a value on a scenario.
_VARIABLES = {
    "tx_power_dbm": lambda scn, v: dataclasses.replace(scn, tx_power_dbm=v),
    "eve_distance_m": lambda scn, v: dataclasses.replace(
        scn, geometry=dataclasses.replace(scn.geometry, d_node_eve=v)
    ),
    "n_elements": lambda scn, v: dataclasses.replace(scn, n_elements=int(v)),
    "source_surface_distance_m": lambda scn, v: dataclasses.replace(
        scn, geometry=dataclasses.replace(scn.geometry, d_source_node=v)
    ),
}
VARIABLES = tuple(_VARIABLES)

# Numerical failures of one point; they fail that point, not the whole run.
_NUMERICAL_ERRORS = (AccuracyError, OverflowError)
# Most points in one sweep grid, checked before the grid is built.
_MAX_GRID_POINTS = 100_000

CSV_COLUMNS = (
    "variable",
    "value",
    "architecture",
    "method",
    "secrecy_bps_hz",
    "ergodic_L",
    "ergodic_E",
    "std_error",
    "status",
)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    step: float
    architectures: tuple[str, ...] = ARCHITECTURES
    methods: tuple[str, ...] = ("analytic",)

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise ValueError(f"variable must be one of {VARIABLES}")
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"sweep {name} must be finite, not {getattr(self, name)!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.start > self.stop:
            raise ValueError("sweep start must not exceed stop")
        if not self._steps() < _MAX_GRID_POINTS:
            raise ValueError(f"sweep grid must have at most {_MAX_GRID_POINTS} points")
        if not self.architectures:
            raise ValueError("at least one architecture is required")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ValueError(f"unknown architecture {arch!r}")
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        for value in self.grid():
            if self.variable == "n_elements" and (value != int(value) or value < 1):
                raise ValueError("n_elements sweeps must visit positive integers")
            elif self.variable != "tx_power_dbm" and value <= 0:
                raise ValueError(f"{self.variable} sweep values must be positive")

    def _steps(self) -> float:
        """(stop - start) / step, plus 1e-9 against rounding; inf if the division overflows."""
        return (self.stop - self.start) / self.step + 1e-9

    def grid(self) -> list[float]:
        count = int(math.floor(self._steps())) + 1
        return [self.start + i * self.step for i in range(count)]


@dataclass(frozen=True)
class SweepRow:
    variable: str
    value: float
    architecture: str
    method: str
    secrecy_bps_hz: float
    ergodic_l: float
    ergodic_e: float
    std_error: float
    status: str = "ok"


def _evaluate(
    scenario: Scenario, architecture: str, method: str, mc_cfg: McConfig
) -> tuple[float, float, float, float, str]:
    """(secrecy, ergodic_l, ergodic_e, std_error, status) of one point."""
    try:
        est_l, est_e = montecarlo.branches(
            scenario, architecture, None if method == "analytic" else mc_cfg
        )
    except _NUMERICAL_ERRORS as exc:
        return math.nan, math.nan, math.nan, math.nan, f"error: {exc}"
    sec = capacity.secrecy_capacity(est_l, est_e)
    return (
        sec.bits_per_sec_hz,
        est_l.bits_per_sec_hz,
        est_e.bits_per_sec_hz,
        sec.std_error,
        "ok",
    )


def run_sweep(spec: SweepSpec, parsed) -> list[SweepRow]:
    """Evaluate every grid point of the sweep; returns deterministic rows.

    Each distinct (scenario, architecture, method) is evaluated once and
    its result written to every grid value that maps to it: a relay reads
    no ``n_elements``, so its scenario is keyed with ``n_elements = 1``.
    A repeated architecture or method gives one row.  Per-point numerical
    failures land in the row's status column instead of aborting the
    sweep.
    """
    results = {}
    rows = []
    for value in spec.grid():
        varied = _VARIABLES[spec.variable](parsed.scenario, value)
        for arch in dict.fromkeys(spec.architectures):
            scenario = varied
            if not montecarlo.ARCHITECTURES[arch].per_element:
                scenario = dataclasses.replace(varied, n_elements=1)
            for method in dict.fromkeys(spec.methods):
                key = (scenario, arch, method)
                if key not in results:
                    results[key] = _evaluate(scenario, arch, method, parsed.mc)
                rows.append(SweepRow(spec.variable, value, arch, method, *results[key]))
    rows.sort(key=lambda r: (r.value, r.architecture, r.method))
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render rows in the fixed column order at full round-trip precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.variable,
                repr(float(r.value)),
                r.architecture,
                r.method,
                repr(float(r.secrecy_bps_hz)),
                repr(float(r.ergodic_l)),
                repr(float(r.ergodic_e)),
                repr(float(r.std_error)),
                r.status,
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

FIGURE_IDS = (3, 4, 5, 6)


def figure_preset(fig_id: int, parsed, methods: tuple[str, ...] = ("analytic",)) -> list[SweepRow]:
    """Qualitative reproductions of the published parameter studies.

    3: secrecy of all three architectures against transmit power;
    4: the two relaying disciplines against power, with their per-receiver
       ergodic capacities (the region-crossing study);
    5: secrecy against the eavesdropper distance at 20 dB;
    6: surface secrecy against the source-surface distance, one series per
       element count (architecture labeled irs-n{N}).
    """
    if fig_id == 3:
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0, ARCHITECTURES, methods)
        return run_sweep(spec, parsed)
    if fig_id == 4:
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0, ("df", "affg"), methods)
        return run_sweep(spec, parsed)
    if fig_id == 5:
        base = dataclasses.replace(
            parsed, scenario=dataclasses.replace(parsed.scenario, tx_power_dbm=20.0)
        )
        spec = SweepSpec("eve_distance_m", 2.0, 40.0, 2.0, ARCHITECTURES, methods)
        return run_sweep(spec, base)
    if fig_id == 6:
        rows: list[SweepRow] = []
        spec = SweepSpec("source_surface_distance_m", 2.0, 30.0, 2.0, ("irs",), methods)
        for n in (2, 8, 32, 64):
            variant = dataclasses.replace(
                parsed,
                scenario=dataclasses.replace(parsed.scenario, n_elements=n, tx_power_dbm=10.0),
            )
            for row in run_sweep(spec, variant):
                rows.append(dataclasses.replace(row, architecture=f"irs-n{n}"))
        rows.sort(key=lambda r: (r.value, r.architecture, r.method))
        return rows
    raise ValueError(f"figure id must be one of {FIGURE_IDS}")


# ---------------------------------------------------------------------------
# Analytic vs Monte Carlo validation
# ---------------------------------------------------------------------------

# Monte Carlo standard errors by which a validated row may miss: a false
# fail about once in 1.7 million rows.
_MAX_Z = 5.0

@dataclass(frozen=True)
class ValidationRow:
    architecture: str
    tx_power_dbm: float
    receiver: str
    analytic: float
    monte_carlo: float
    std_error: float
    z_score: float
    passed: bool
    error: str = ""


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"{'arch':6} {'P(dB)':>6} {'rx':6} {'analytic':>12} {'monte-carlo':>12} "
            f"{'s.e.':>10} {'z':>8}  result"
        ]
        for r in self.rows:
            lines.append(
                f"{r.architecture:6} {r.tx_power_dbm:6.1f} {r.receiver:6} "
                f"{r.analytic:12.6f} {r.monte_carlo:12.6f} {r.std_error:10.2e} "
                f"{r.z_score:8.2f}  {'ok' if r.passed else 'FAIL'}"
                + (f": {r.error}" if r.error else "")
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate(
    parsed,
    powers_dbm: tuple[float, ...],
    mc_cfg: McConfig,
    architectures: tuple[str, ...] = ARCHITECTURES,
) -> ValidationReport:
    """Compare the analytic capacities against the simulator on a power grid.

    A receiver passes when |analytic - MC| <= 5 s.e., or when the gap is
    at most 1e-9 bits, which makes points where both methods are
    numerically zero trivially consistent.  Each (power, architecture)
    point draws from its own master seed, derived from the configured
    seed and the point's index, so the points are independent evidence.
    A point whose analytic value cannot be computed is reported as one
    failing row for both receivers.  Raises ValueError when no point could
    be compared.
    """
    rows: list[ValidationRow] = []
    points = itertools.product(powers_dbm, architectures)
    for index, (power, arch) in enumerate(points):
        scenario = dataclasses.replace(parsed.scenario, tx_power_dbm=power)
        try:
            ana_l, ana_e = montecarlo.branches(scenario, arch)
        except _NUMERICAL_ERRORS as exc:
            rows.append(
                ValidationRow(
                    arch, power, "both",
                    math.nan, math.nan, math.nan, math.nan,
                    passed=False, error=str(exc),
                )
            )
            continue
        seed = np.random.SeedSequence([mc_cfg.master_seed, index]).generate_state(1, np.uint64)
        point_cfg = dataclasses.replace(mc_cfg, master_seed=int(seed[0]))
        mc_l, mc_e = montecarlo.branches(scenario, arch, point_cfg)
        for receiver, ana, mc in (("legit", ana_l, mc_l), ("eve", ana_e, mc_e)):
            a = ana.bits_per_sec_hz
            m = mc.bits_per_sec_hz
            se = mc.std_error
            gap = abs(a - m)
            z = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
            passed = gap <= max(_MAX_Z * se, 1e-9)
            rows.append(
                ValidationRow(arch, power, receiver, a, m, se, z, passed)
            )
    if not rows:
        raise ValueError("validate compared no point: no power or no architecture")
    return ValidationReport(rows=tuple(rows), passed=all(r.passed for r in rows))
