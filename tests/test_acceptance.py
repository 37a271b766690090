"""Acceptance suite: every release criterion with one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Monte Carlo budgets follow the stated criteria (10^6 paired
samples for the agreement checks, 10^7 draws for the distribution test);
the whole module is expected to finish in well under five minutes.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from linksec.capacity import (
    affg_ergodic_capacity,
    df_ergodic_capacity,
    ergodic_capacity_irs,
)
from linksec.channels import FadingParams, Scenario, relay_hops
from linksec.config import reference_config
from linksec.montecarlo import McConfig, branches, mc_branch_estimates
from linksec.specfun import MellinBarnesEvaluator
from linksec.sweep import SweepSpec, figure_preset, rows_to_csv, run_sweep, validate
from oracles import (
    DF_PATHS,
    bessel_k,
    gamma_gamma_pdf,
    sample_gamma_gamma,
    upper_incomplete_gamma,
)


def _report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_analytic_monte_carlo_agreement():
    """Closed forms and the simulator agree at 10^6 samples on the
    reference scenario: |analytic - MC| <= max(3 s.e., 1%) for the surface
    (1 and 4 elements) and both relays at 0, 10, 20 dB."""
    parsed = reference_config()
    cfg = McConfig(samples=1_000_000, master_seed=20240915)
    powers = (0.0, 10.0, 20.0)

    single = dataclasses.replace(parsed.scenario, n_elements=1)
    report_n1 = validate(single, powers, cfg, architectures=("irs",))
    report_rest = validate(parsed.scenario, powers, cfg)

    for report, label in ((report_n1, "irs n=1"), (report_rest, "irs n=4, df, affg")):
        for row in report.rows:
            assert row.passed, (
                f"{label}: {row.architecture} P={row.tx_power_dbm} {row.receiver}: "
                f"analytic={row.analytic:.6f} mc={row.monte_carlo:.6f} z={row.z_score:.2f}"
            )
    n_checks = len(report_n1.rows) + len(report_rest.rows)
    _report(1, f"analytic vs Monte Carlo consistent on {n_checks} branch estimates")


def test_criterion_2_df_three_path_equivalence():
    """The confluent-U closed form, the contour path, and the library's
    Gamma-hop sums agree pairwise within 1e-7 relative."""
    checked = 0
    for a1 in (1, 2, 3):
        for ab in (1, 2, 3):
            for rate in (0.5, 1.0, 5.0):
                f1 = FadingParams(a1, rate)
                fb = FadingParams(ab, rate)
                values = [
                    path(f1, fb).bits_per_sec_hz
                    for path in DF_PATHS
                ]
                scale = max(abs(v) for v in values)
                for i in range(len(values)):
                    for j in range(i + 1, len(values)):
                        assert abs(values[i] - values[j]) <= 1e-7 * scale, (
                            f"paths diverge at shapes ({a1},{ab}), rate {rate}: {values}"
                        )
                checked += 1
    _report(2, f"three evaluation paths agree on {checked} parameter sets")


def test_criterion_3_exponential_hop_closed_form():
    """Unit-shape hops with total rate one reproduce e^s E1(s)/ln 2."""
    analytic = df_ergodic_capacity(FadingParams(1, 0.5), FadingParams(1, 0.5))
    assert analytic.bits_per_sec_hz == pytest.approx(0.86034, abs=1e-4)

    scenario = Scenario(
        d_source_node=1.0, d_node_legit=1.0, d_node_eve=1.0, pathloss_exponent=2.0,
        fading_source_node=FadingParams(1, 0.5),
        fading_node_legit=FadingParams(1, 0.5),
        fading_node_eve=FadingParams(1, 0.5),
        tx_power_dbm=0.0,
        noise_power_relay=1.0,
        noise_power_legit=1.0,
        noise_power_eve=1.0,
    )
    mc = mc_branch_estimates(scenario, "df", McConfig(samples=1_000_000, master_seed=303))[0]
    assert abs(mc.bits_per_sec_hz - analytic.bits_per_sec_hz) <= 3.0 * mc.std_error
    _report(
        3,
        f"exponential-hop capacity {analytic.bits_per_sec_hz:.5f} bits/s/Hz "
        f"(mc z={(mc.bits_per_sec_hz - analytic.bits_per_sec_hz) / mc.std_error:+.2f})",
    )


def test_criterion_4_product_distribution_correctness():
    """The product-gain density normalizes to 1 within 1e-8 and survives a
    chi-square test (p > 0.01) against 10^7 sampled products."""
    param_sets = [
        (FadingParams(2.0, 1.0), FadingParams(2.0, 1.0), 41),
        (FadingParams(3.0, 2.0), FadingParams(2.0, 1.0), 42),
        (FadingParams(2.5, 1.5), FadingParams(1.5, 2.0), 43),
    ]
    n_draws = 10_000_000
    n_bins = 80
    for first, second, seed in param_sets:
        norm, _ = integrate.quad(
            lambda g: gamma_gamma_pdf(g, first, second), 0, np.inf, limit=400
        )
        assert norm == pytest.approx(1.0, abs=1e-8)

        rng = np.random.default_rng(seed)
        draws = sample_gamma_gamma(first, second, rng, n_draws)
        edges = np.quantile(draws, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
        counts, _ = np.histogram(draws, bins=np.concatenate(([0.0], edges, [np.inf])))
        expected = np.empty(n_bins)
        lo = 0.0
        for i, hi in enumerate(np.concatenate((edges, [np.inf]))):
            val, _ = integrate.quad(
                lambda g: gamma_gamma_pdf(g, first, second), lo, hi, limit=400
            )
            expected[i] = val * n_draws
            lo = hi
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p_value = float(stats.chi2.sf(chi2, df=n_bins - 1))
        assert p_value > 0.01, (
            f"chi-square p={p_value:.4f} for shapes "
            f"({first.alpha},{second.alpha}), rates ({first.beta},{second.beta})"
        )
    _report(4, f"density normalization and chi-square pass for {len(param_sets)} parameter sets")


def _reference_power_curves():
    parsed = reference_config()
    powers = [float(p) for p in range(0, 52, 2)]
    curves = {"df": [], "affg": [], "df_sec": [], "affg_sec": []}
    for p in powers:
        scn = dataclasses.replace(parsed.scenario, tx_power_dbm=p)
        first, legit, eve = relay_hops(scn)
        df_l = df_ergodic_capacity(first, legit)
        df_e = df_ergodic_capacity(first, eve)
        af_l = affg_ergodic_capacity(first, legit)
        af_e = affg_ergodic_capacity(first, eve)
        curves["df"].append((df_l.bits_per_sec_hz, df_e.bits_per_sec_hz))
        curves["affg"].append((af_l.bits_per_sec_hz, af_e.bits_per_sec_hz))
        curves["df_sec"].append(max(df_l.bits_per_sec_hz - df_e.bits_per_sec_hz, 0.0))
        curves["affg_sec"].append(max(af_l.bits_per_sec_hz - af_e.bits_per_sec_hz, 0.0))
    return powers, curves


def test_criterion_5_ordinal_claims():
    """At the reference scenario: decode-and-forward dominates the
    fixed-gain relay in ergodic capacity everywhere; their secrecy curves
    cross (two regions); the 4-element surface beats both relays at 20 dB."""
    powers, curves = _reference_power_curves()

    for (df_l, df_e), (af_l, af_e) in zip(curves["df"], curves["affg"]):
        assert df_l > af_l
        assert df_e > af_e

    df_leads = [
        p for p, d, a in zip(powers, curves["df_sec"], curves["affg_sec"]) if d > a
    ]
    affg_leads = [
        p for p, d, a in zip(powers, curves["df_sec"], curves["affg_sec"]) if a > d
    ]
    assert df_leads and affg_leads, "expected both secrecy regions in the sweep window"
    p_low, p_high = max(df_leads), min(affg_leads)
    assert min(df_leads) < min(affg_leads)

    parsed = reference_config()
    scn20 = dataclasses.replace(parsed.scenario, tx_power_dbm=20.0)
    irs20, df20, af20 = (
        max(branches(scn20, name)[2].bits_per_sec_hz, 0.0) for name in ("irs", "df", "affg")
    )
    assert irs20 > df20 and irs20 > af20

    _report(
        5,
        "df>affg ergodic everywhere; secrecy regions cross "
        f"(df leads through {p_low:g} dB, affg from {p_high:g} dB); "
        f"surface {irs20:.2f} > df {df20:.2f}, affg {af20:.2f} bits/s/Hz at 20 dB",
    )


def test_criterion_6_monotonicity_suite():
    """Secrecy is nonnegative everywhere, nondecreasing in eavesdropper
    distance and element count on the preset grids, and exactly zero for
    symmetric receivers."""
    parsed = reference_config()

    rows5 = figure_preset(5, parsed.scenario, parsed.mc)
    for arch in ("irs", "df", "affg"):
        series = [r.secrecy_bps_hz for r in rows5 if r.architecture == arch]
        assert all(v >= 0.0 for v in series)
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    rows6 = figure_preset(6, parsed.scenario, parsed.mc)
    by_distance: dict[float, dict[str, float]] = {}
    for r in rows6:
        assert r.secrecy_bps_hz >= 0.0
        by_distance.setdefault(r.value, {})[r.architecture] = r.secrecy_bps_hz
    for per_n in by_distance.values():
        ordered = [per_n[f"irs-n{n}"] for n in (2, 8, 32, 64)]
        assert all(b >= a - 1e-9 for a, b in zip(ordered, ordered[1:]))

    rows34 = figure_preset(3, parsed.scenario, parsed.mc) + figure_preset(
        4, parsed.scenario, parsed.mc
    )
    assert all(r.secrecy_bps_hz >= 0.0 for r in rows34)

    symmetric = dataclasses.replace(parsed.scenario, d_node_eve=10.0)
    for name in ("irs", "df", "affg"):
        assert branches(symmetric, name)[2].bits_per_sec_hz == 0.0

    _report(6, "nonnegativity, distance/element monotonicity, and symmetric-zero hold")


def test_criterion_7_deterministic_sweeps():
    """Identical configuration and seed give byte-identical CSV output."""
    parsed = reference_config()
    spec = SweepSpec(
        "tx_power_dbm", 0.0, 10.0, 5.0, ("irs", "df", "affg"), ("analytic", "monte-carlo")
    )
    seeded = McConfig(samples=50_000, master_seed=99, chunk_size=8192)
    first = rows_to_csv(run_sweep(spec, parsed.scenario, seeded))
    second = rows_to_csv(run_sweep(spec, parsed.scenario, seeded))
    assert first == second
    _report(7, f"byte-identical CSV across reruns ({len(first)} bytes)")


def test_criterion_8_special_function_spot_suite():
    """Half-order Bessel closed forms to 1e-10, integer-shape incomplete
    gamma closed forms to 1e-12, and the damped-exponential contour
    identity to 1e-8."""
    for x in (0.5, 2.0, 10.0):
        closed = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(closed, rel=1e-10)
        assert bessel_k(-0.5, x) == pytest.approx(closed, rel=1e-10)

    for a in (1, 2, 3, 4):
        for x in (0.0, 0.7, 1.5, 4.0):
            closed = math.exp(-x) * sum(
                math.factorial(a - 1) / math.factorial(k) * x ** k for k in range(a)
            )
            assert upper_incomplete_gamma(a, x) == pytest.approx(closed, rel=1e-12)

    # (1/2 pi i) * integral of Gamma(s) x^-s over a vertical line in
    # 0 < Re(s) recovers e^-x.
    cahen_mellin = MellinBarnesEvaluator((0.0,))
    for x in (0.5, 1.0, 3.0):
        val, _ = cahen_mellin.evaluate(x)
        assert val.real == pytest.approx(math.exp(-x), rel=1e-8)
        assert abs(val.imag) <= 1e-12

    _report(8, "Bessel, incomplete-gamma, and contour spot checks hold")
