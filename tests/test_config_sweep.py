import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from linksec import capacity, montecarlo, sweep
from linksec.cli import main
from linksec.config import (
    REFERENCE_CONFIG,
    ConfigError,
    parse_config_text,
    reference_config,
)
from linksec.montecarlo import McConfig
from linksec.quadrature import AccuracyError
from linksec.sweep import (
    SweepSpec,
    figure_preset,
    read_rows_csv,
    rows_to_csv,
    run_sweep,
    validate,
)


def config_with(**overrides) -> str:
    lines = []
    for raw in REFERENCE_CONFIG.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            lines.append(raw)
            continue
        key = line.split("=")[0].strip()
        if key in overrides:
            value = overrides.pop(key)
            if value is None:
                continue
            lines.append(f"{key} = {value}")
        else:
            lines.append(raw)
    for key, value in overrides.items():
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


class TestParsing:
    def test_reference_roundtrip(self):
        parsed = reference_config()
        assert parsed.scenario_irs.n_elements == 4
        assert parsed.scenario_irs.geometry.pathloss_exponent == 2.0
        assert parsed.scenario_irs.geometry.d_node_eve == 20.0
        assert parsed.scenario_relay is not None
        assert parsed.sweep is not None
        assert parsed.sweep.variable == "tx_power_dbm"
        assert parsed.mc.samples == 200_000

    def test_zero_distance_names_key(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"geometry.d_node_legit": "0.0"}))
        assert "geometry.d_node_legit" in str(exc_info.value)

    def test_non_integer_shape_for_relay_names_key(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"fading.source_node.alpha": "2.5"}))
        message = str(exc_info.value)
        assert "fading.source_node.alpha" in message
        assert "integer" in message

    def test_non_integer_shape_allowed_for_irs_only(self):
        text = config_with(
            **{
                "fading.source_node.alpha": "2.5",
                "sweep.architectures": "irs",
            }
        )
        parsed = parse_config_text(text)
        assert parsed.scenario_relay is None
        assert parsed.scenario_irs.fading_ts.alpha == 2.5

    def test_all_violations_reported(self):
        text = config_with(
            **{
                "geometry.d_node_legit": "0.0",
                "geometry.d_node_eve": "-3.0",
                "noise.relay": "0.0",
                "mc.samples": "10",
            }
        )
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(text)
        violations = exc_info.value.violations
        joined = "\n".join(violations)
        assert "geometry.d_node_legit" in joined
        assert "geometry.d_node_eve" in joined
        assert "noise.relay" in joined
        assert "mc: samples" in joined
        assert len(violations) >= 4

    def test_reference_file_matches_builtin(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
        assert path.read_text(encoding="utf-8") == REFERENCE_CONFIG

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(REFERENCE_CONFIG + "\nbogus.key = 1\n")
        assert "bogus.key" in str(exc_info.value)
        assert "line" in str(exc_info.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"power.tx_dbm": None}))
        assert "power.tx_dbm" in str(exc_info.value)

    def test_bad_number(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"geometry.d_node_eve": "twenty"}))
        assert "geometry.d_node_eve" in str(exc_info.value)


class TestSweepSpec:
    def test_grid_arithmetic(self):
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0)
        assert len(spec.grid()) == 26

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec("tx_power_dbm", 10.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            SweepSpec("tx_power_dbm", 0.0, 10.0, -1.0)

    def test_element_grid_must_be_integer(self):
        with pytest.raises(ValueError):
            SweepSpec("n_elements", 2.0, 8.0, 1.5)
        spec = SweepSpec("n_elements", 2.0, 8.0, 2.0)
        assert spec.grid() == [2.0, 4.0, 6.0, 8.0]


class TestRunSweep:
    def test_power_sweep_row_count(self):
        parsed = reference_config()
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0, ("irs", "df", "affg"), ("analytic",))
        rows = run_sweep(spec, parsed)
        assert len(rows) == 26 * 3
        assert all(r.status == "ok" for r in rows)
        assert all(r.secrecy_bps_hz >= 0.0 for r in rows)

    def test_close_eavesdropper_has_null_secrecy(self):
        parsed = reference_config()
        spec = SweepSpec("eve_distance_m", 2.0, 10.0, 2.0, ("irs", "df", "affg"), ("analytic",))
        rows = run_sweep(spec, parsed)
        assert all(r.secrecy_bps_hz == 0.0 for r in rows)

    def test_element_sweep_monotone(self):
        parsed = reference_config()
        spec = SweepSpec("n_elements", 2.0, 10.0, 2.0, ("irs",), ("analytic",))
        rows = run_sweep(spec, parsed)
        values = [r.secrecy_bps_hz for r in sorted(rows, key=lambda r: r.value)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_each_distinct_point_evaluated_once(self, monkeypatch):
        # A relay scenario does not change with n_elements: two relay
        # points and four surface points, written to twelve rows.
        calls = []
        branch_estimates = sweep._branch_estimates

        def counting(scenario, architecture, method, mc_cfg):
            calls.append(architecture)
            return branch_estimates(scenario, architecture, method, mc_cfg)

        monkeypatch.setattr(sweep, "_branch_estimates", counting)
        spec = SweepSpec("n_elements", 2, 8, 2, ("irs", "df", "affg"))
        rows = run_sweep(spec, reference_config())
        assert sorted(calls) == ["affg", "df"] + ["irs"] * 4
        assert len(rows) == 12
        for arch in ("df", "affg"):
            assert len({r.secrecy_bps_hz for r in rows if r.architecture == arch}) == 1

    def test_deterministic_across_workers(self):
        parsed = reference_config()
        spec = SweepSpec(
            "tx_power_dbm", 0.0, 8.0, 4.0, ("irs", "df", "affg"), ("analytic", "monte-carlo")
        )
        cfg = McConfig(samples=20_000, master_seed=77)
        serial = rows_to_csv(run_sweep(spec, parsed, mc_cfg=cfg, workers=1))
        threaded = rows_to_csv(run_sweep(spec, parsed, mc_cfg=cfg, workers=4))
        assert serial == threaded

    def test_csv_roundtrip_exact(self):
        parsed = reference_config()
        spec = SweepSpec("tx_power_dbm", 0.0, 10.0, 5.0, ("df",), ("analytic",))
        rows = run_sweep(spec, parsed)
        text = rows_to_csv(rows)
        parsed_rows = read_rows_csv(text)
        for a, b in zip(rows, parsed_rows):
            assert a.value == b.value
            assert a.secrecy_bps_hz == b.secrecy_bps_hz
            assert a.ergodic_l == b.ergodic_l
            assert a.ergodic_e == b.ergodic_e
            assert a.std_error == b.std_error


class TestFigurePresets:
    def test_fig3_rows(self):
        rows = figure_preset(3, reference_config())
        assert len(rows) == 26 * 3
        assert {r.architecture for r in rows} == {"irs", "df", "affg"}

    def test_fig5_secrecy_rises_with_distance(self):
        rows = figure_preset(5, reference_config())
        for arch in ("irs", "df", "affg"):
            series = [
                r.secrecy_bps_hz for r in rows if r.architecture == arch
            ]
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
            assert series[0] == 0.0
            assert series[-1] > 0.0

    def test_fig6_monotone_in_elements(self):
        rows = figure_preset(6, reference_config())
        labels = sorted({r.architecture for r in rows})
        assert labels == ["irs-n2", "irs-n32", "irs-n64", "irs-n8"]
        by_value = {}
        for r in rows:
            by_value.setdefault(r.value, {})[r.architecture] = r.secrecy_bps_hz
        for value, per_n in by_value.items():
            ordered = [per_n[f"irs-n{n}"] for n in (2, 8, 32, 64)]
            assert all(b >= a - 1e-9 for a, b in zip(ordered, ordered[1:]))

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_preset(7, reference_config())


class TestValidate:
    def test_reference_consistency_small_budget(self):
        parsed = reference_config()
        cfg = McConfig(samples=50_000, master_seed=2024)
        report = validate(parsed, (0.0, 10.0), cfg)
        assert report.passed
        assert len(report.rows) == 2 * 3 * 2

    def test_corrupted_analytic_flagged(self, monkeypatch):
        parsed = reference_config()
        cfg = McConfig(samples=50_000, master_seed=2024)
        # Shift every analytic value by 0.25 bits.
        for name, arch in list(montecarlo.ARCHITECTURES.items()):
            def shifted(scenario, analytic=arch.analytic):
                return tuple(
                    dataclasses.replace(e, bits_per_sec_hz=e.bits_per_sec_hz + 0.25)
                    for e in analytic(scenario)
                )
            monkeypatch.setitem(
                montecarlo.ARCHITECTURES, name, dataclasses.replace(arch, analytic=shifted)
            )
        report = validate(parsed, (10.0,), cfg)
        assert not report.passed

    def test_small_relative_bias_flagged(self, monkeypatch):
        # A 0.9% bias at 50 dB is tens of standard errors at 10^5 samples,
        # though inside a 1% relative allowance.
        parsed = reference_config()
        cfg = McConfig(samples=100_000, master_seed=2024)
        for name, arch in list(montecarlo.ARCHITECTURES.items()):
            def scaled(scenario, analytic=arch.analytic):
                return tuple(
                    dataclasses.replace(e, bits_per_sec_hz=e.bits_per_sec_hz * 1.009)
                    for e in analytic(scenario)
                )
            monkeypatch.setitem(
                montecarlo.ARCHITECTURES, name, dataclasses.replace(arch, analytic=scaled)
            )
        report = validate(parsed, (50.0,), cfg)
        assert not any(r.passed for r in report.rows)

    def test_points_draw_from_their_own_seeds(self):
        parsed = reference_config()
        cfg = McConfig(samples=10_000, master_seed=7)
        first_l, first_e, second_l, second_e = validate(parsed, (20.0, 20.0), cfg, ("irs",)).rows
        assert first_l.analytic == second_l.analytic
        assert first_l.monte_carlo != second_l.monte_carlo
        assert first_e.monte_carlo != second_e.monte_carlo

    def test_zero_power_trivially_consistent(self):
        parsed = reference_config()
        cfg = McConfig(samples=10_000, master_seed=3)
        report = validate(parsed, (-100.0,), cfg)
        assert report.passed

    def test_no_point_compared_rejected(self):
        with pytest.raises(ValueError):
            validate(reference_config(), (), McConfig(samples=10_000, master_seed=3))


class TestCli:
    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            config_with(
                **{
                    "sweep.to": "10.0",
                    "sweep.step": "5.0",
                    "sweep.architectures": "df,affg",
                }
            )
        )
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        rows = read_rows_csv(out_path.read_text())
        assert len(rows) == 3 * 2

    def test_sweep_rerun_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(
            config_with(
                **{
                    "sweep.to": "4.0",
                    "sweep.step": "2.0",
                    "sweep.methods": "analytic,monte-carlo",
                    "mc.samples": "20000",
                }
            )
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(out2), "--workers", "4"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", "x.csv"]) == 1

    def test_invalid_config_is_input_error(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(config_with(**{"geometry.d_node_legit": "0.0"}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1

    def test_validate_command_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        code = main(
            [
                "validate",
                "--config",
                str(cfg_path),
                "--samples",
                "20000",
                "--seed",
                "11",
                "--powers",
                "0,10",
            ]
        )
        assert code == 0

    def test_validate_numerical_failure_is_fail_row(self, tmp_path, monkeypatch, capsys):
        def broken(scenario, receiver):
            raise AccuracyError("budget exhausted", estimate=0.0, error_estimate=1.0)

        monkeypatch.setattr(capacity, "ergodic_capacity_irs", broken)
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        args = ["validate", "--config", str(cfg_path), "--samples", "20000", "--seed", "11"]
        assert main(args + ["--powers", "10"]) == 2
        out = capsys.readouterr().out
        assert "FAIL: budget exhausted" in out
        assert "overall: FAIL" in out

    def test_validate_without_powers_is_input_error(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        args = ["validate", "--config", str(cfg_path), "--samples", "20000", "--seed", "11"]
        assert main(args + ["--powers", ","]) == 1

    def test_figure_command_monte_carlo_only(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(config_with(**{"mc.samples": "2000"}))
        out_path = tmp_path / "fig4.csv"
        args = ["figure", "--id", "4", "--config", str(cfg_path), "--out", str(out_path)]
        assert main(args + ["--method", "mc"]) == 0
        rows = read_rows_csv(out_path.read_text())
        assert rows
        assert {r.method for r in rows} == {"monte-carlo"}

    def test_figure_command_with_builtin_reference(self, tmp_path):
        out_path = tmp_path / "fig4.csv"
        assert main(["figure", "--id", "4", "--out", str(out_path)]) == 0
        rows = read_rows_csv(out_path.read_text())
        assert {r.architecture for r in rows} == {"df", "affg"}
