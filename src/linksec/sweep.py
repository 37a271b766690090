"""Parameter sweeps, CSV emission, and analytic-vs-Monte-Carlo validation.

A sweep varies one scenario parameter over a grid and records, for every
(grid value, architecture, method) combination, the secrecy capacity and
the two per-receiver ergodic capacities.  Points are evaluated one after
another, except that the Monte Carlo rows of an element-count sweep come
from one simulator pass per architecture (``montecarlo.mc_element_estimates``):
they are correlated across N, and each still equals its point evaluated
alone.  Rows are emitted in a deterministic order (sorted by value,
architecture, method), so repeated runs produce byte-identical files.
A point that raises an ArithmeticError (an AccuracyError, or an
OverflowError naming the power at the edge of the float range) fails
alone: an ``error:`` status in a sweep, a failing row in ``validate``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .channels import Scenario
from .montecarlo import McConfig

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
    "eve_distance_m": lambda scn, v: dataclasses.replace(scn, d_node_eve=v),
    "n_elements": lambda scn, v: dataclasses.replace(scn, n_elements=int(v)),
    "source_surface_distance_m": lambda scn, v: dataclasses.replace(scn, d_source_node=v),
}
VARIABLES = tuple(_VARIABLES)

# Most points in one sweep grid, checked before the grid is built.
_MAX_GRID_POINTS = 100_000

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
    ergodic_L: float
    ergodic_E: float
    std_error: float
    status: str = "ok"


# The CSV header: SweepRow's fields, in the order rows_to_csv writes them.
CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow))


def _result(legit, eve, difference) -> tuple[float, float, float, float, str]:
    """A row's values from one point's ``branches``: the secrecy is the difference clamped at 0."""
    secrecy = max(difference.bits_per_sec_hz, 0.0)
    return secrecy, legit.bits_per_sec_hz, eve.bits_per_sec_hz, difference.std_error, "ok"


def _evaluate(
    scenario: Scenario, architecture: str, method: str, mc_cfg: McConfig
) -> tuple[float, float, float, float, str]:
    """(secrecy, ergodic_L, ergodic_E, std_error, status) of one point."""
    mc = None if method == "analytic" else mc_cfg
    try:
        estimates = montecarlo.branches(scenario, architecture, mc)
    except ArithmeticError as exc:
        return math.nan, math.nan, math.nan, math.nan, f"error: {exc}"
    return _result(*estimates)


def _evaluate_grid(
    spec: SweepSpec, scenario: Scenario, architecture: str, method: str, mc: McConfig
) -> list[tuple[float, float, float, float, str]]:
    """``_evaluate`` at every grid point of ``spec``, in grid order.

    The Monte Carlo points of an element-count sweep are read off one pass;
    if that pass raises, each point is evaluated alone, so it fails alone.
    """
    points = [_VARIABLES[spec.variable](scenario, value) for value in spec.grid()]
    if method == "monte-carlo" and spec.variable == "n_elements":
        counts = [point.n_elements for point in points]
        try:
            triples = montecarlo.mc_element_estimates(scenario, architecture, mc, counts)
            return [_result(*triple) for triple in triples]
        except ArithmeticError:
            pass
    return [_evaluate(point, architecture, method, mc) for point in points]


def run_sweep(spec: SweepSpec, scenario: Scenario, mc: McConfig) -> list[SweepRow]:
    """Evaluate every grid point of the sweep on ``scenario``; deterministic rows.

    Each (grid value, architecture, method) is evaluated on the varied
    scenario as given; Monte Carlo points draw with ``mc``.  A repeated
    architecture or method gives one row.
    """
    rows = []
    for arch in dict.fromkeys(spec.architectures):
        for method in dict.fromkeys(spec.methods):
            results = _evaluate_grid(spec, scenario, arch, method, mc)
            for value, result in zip(spec.grid(), results):
                rows.append(SweepRow(spec.variable, value, arch, method, *result))
    rows.sort(key=lambda r: (r.value, r.architecture, r.method))
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def rows_to_csv(rows: list[SweepRow]) -> str:
    """A header of ``CSV_COLUMNS``, then each row's fields in that order.

    Strings are written as they are, numbers as ``repr(float(v))``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        values = (getattr(r, name) for name in CSV_COLUMNS)
        writer.writerow(v if isinstance(v, str) else repr(float(v)) for v in values)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

FIGURE_IDS = (3, 4, 5, 6)


def figure_preset(
    fig_id: int, scenario: Scenario, mc: McConfig, methods: tuple[str, ...] = ("analytic",)
) -> list[SweepRow]:
    """Qualitative reproductions of the published parameter studies.

    Each varies ``scenario`` as below; Monte Carlo rows draw with ``mc``.

    3: secrecy of all three architectures against transmit power;
    4: the two relaying disciplines against power, with their per-receiver
       ergodic capacities (the region-crossing study);
    5: secrecy against the eavesdropper distance at 20 dB;
    6: surface secrecy against the source-surface distance at 10 dB, one
       series per element count (architecture labeled irs-n{N}).
    """
    if fig_id == 3:
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0, ARCHITECTURES, methods)
        return run_sweep(spec, scenario, mc)
    if fig_id == 4:
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0, ("df", "affg"), methods)
        return run_sweep(spec, scenario, mc)
    if fig_id == 5:
        spec = SweepSpec("eve_distance_m", 2.0, 40.0, 2.0, ARCHITECTURES, methods)
        return run_sweep(spec, dataclasses.replace(scenario, tx_power_dbm=20.0), mc)
    if fig_id == 6:
        rows: list[SweepRow] = []
        spec = SweepSpec("source_surface_distance_m", 2.0, 30.0, 2.0, ("irs",), methods)
        for n in (2, 8, 32, 64):
            variant = dataclasses.replace(scenario, n_elements=n, tx_power_dbm=10.0)
            for row in run_sweep(spec, variant, mc):
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
            f"{'arch':6} {'P(dB)':>6} {'rx':7} {'analytic':>12} {'monte-carlo':>12} "
            f"{'s.e.':>10} {'z':>8}  result"
        ]
        for r in self.rows:
            lines.append(
                f"{r.architecture:6} {r.tx_power_dbm:6.1f} {r.receiver:7} "
                f"{r.analytic:12.6f} {r.monte_carlo:12.6f} {r.std_error:10.2e} "
                f"{r.z_score:8.2f}  {'ok' if r.passed else 'FAIL'}"
                + (f": {r.error}" if r.error else "")
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate(
    scenario: Scenario,
    powers_dbm: tuple[float, ...],
    mc: McConfig,
    architectures: tuple[str, ...] = ARCHITECTURES,
) -> ValidationReport:
    """Compare the analytic capacities against the simulator on a power grid.

    ``scenario`` is evaluated at each of ``powers_dbm``; the simulator draws
    with ``mc``.  A point has three rows: the two receivers and their
    unclamped difference, ``secrecy``, on its paired s.e.

    A row passes when |analytic - MC| <= 5 s.e., or when the gap is
    at most 1e-9 bits, which makes points where both methods are
    numerically zero trivially consistent.  Each (power, architecture)
    point draws from its own master seed, derived from the configured
    seed and the point's index, so the points are independent evidence.
    A point that fails on either route is one failing row, ``both``.
    Raises ValueError when no point could be compared.
    """
    rows: list[ValidationRow] = []
    points = itertools.product(powers_dbm, architectures)
    for index, (power, arch) in enumerate(points):
        point = dataclasses.replace(scenario, tx_power_dbm=power)
        seed = np.random.SeedSequence([mc.master_seed, index]).generate_state(1, np.uint64)
        point_cfg = dataclasses.replace(mc, master_seed=int(seed[0]))
        try:
            analytic = montecarlo.branches(point, arch)
            simulated = montecarlo.branches(point, arch, point_cfg)
        except ArithmeticError as exc:
            nan = math.nan
            rows.append(ValidationRow(arch, power, "both", nan, nan, nan, nan, False, str(exc)))
            continue
        for receiver, ana, sim in zip(("legit", "eve", "secrecy"), analytic, simulated):
            a = ana.bits_per_sec_hz
            m = sim.bits_per_sec_hz
            se = sim.std_error
            gap = abs(a - m)
            z = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
            passed = gap <= max(_MAX_Z * se, 1e-9)
            rows.append(ValidationRow(arch, power, receiver, a, m, se, z, passed))
    if not rows:
        raise ValueError("validate compared no point: no power or no architecture")
    return ValidationReport(rows=tuple(rows), passed=all(r.passed for r in rows))
