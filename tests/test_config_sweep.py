import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from linksec import capacity, montecarlo
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
    CSV_COLUMNS,
    SweepSpec,
    figure_preset,
    rows_to_csv,
    run_sweep,
    validate,
)


def csv_records(text: str) -> list[dict[str, str]]:
    """The data rows of a sweep CSV, keyed by column; checks the header."""
    reader = csv.DictReader(io.StringIO(text))
    records = list(reader)
    assert tuple(reader.fieldnames) == CSV_COLUMNS
    return records


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
        assert parsed.scenario.n_elements == 4
        assert parsed.scenario.geometry.pathloss_exponent == 2.0
        assert parsed.scenario.geometry.d_node_eve == 20.0
        assert parsed.scenario.noise_power_relay == 0.01
        assert parsed.sweep is not None
        assert parsed.sweep.variable == "tx_power_dbm"
        assert parsed.mc.samples == 200_000

    def test_zero_distance_names_key(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"geometry.d_node_legit": "0.0"}))
        assert "geometry.d_node_legit" in str(exc_info.value)

    @pytest.mark.parametrize(
        "key", ["power.tx_dbm", "noise.eve", "fading.node_eve.beta", "sweep.from"]
    )
    def test_non_finite_number_names_key(self, key):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError) as exc_info:
                parse_config_text(config_with(**{key: value}))
            expected = f"{key}: expected a finite number, got {value!r}"
            assert any(v.endswith(expected) for v in exc_info.value.violations)

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

    @pytest.mark.parametrize(
        "key, value", [("power.tx_dbm", "nan"), ("irs.n_elements", "four"), ("sweep.from", "x")]
    )
    def test_rejected_value_is_one_violation(self, key, value):
        # A key that is present but unparsable is not also reported as
        # missing, from the required keys or from the sweep section.
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{key: value}))
        assert len(exc_info.value.violations) == 1
        assert key in exc_info.value.violations[0]


# The line on which ``config_with() + "\nkey = value"`` puts the new line.
_APPENDED_LINE = len(REFERENCE_CONFIG.splitlines()) + 1


def _line_of(key: str) -> int:
    """The line on which the reference config assigns ``key``."""
    lines = REFERENCE_CONFIG.splitlines()
    return next(i for i, raw in enumerate(lines, start=1) if raw.partition("=")[0].strip() == key)


class TestMessages:
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                config_with() + "\njust words",
                f"line {_APPENDED_LINE}: expected 'key = value', got 'just words'",
            ),
            (
                config_with(**{"bogus.key": "1"}),
                f"line {_APPENDED_LINE}: unknown key 'bogus.key'",
            ),
            (
                config_with() + "\npower.tx_dbm = 10.0",
                f"line {_APPENDED_LINE}: duplicate key 'power.tx_dbm'",
            ),
            (
                config_with(**{"geometry.d_node_eve": "twenty"}),
                f"line {_line_of('geometry.d_node_eve')}: geometry.d_node_eve: "
                "expected a finite number, got 'twenty'",
            ),
            (
                config_with(**{"noise.eve": "inf"}),
                f"line {_line_of('noise.eve')}: noise.eve: expected a finite number, got 'inf'",
            ),
            (
                config_with(**{"irs.n_elements": "4.5"}),
                f"line {_line_of('irs.n_elements')}: irs.n_elements: "
                "expected an integer, got '4.5'",
            ),
            (
                config_with(**{"power.tx_dbm": None}),
                "power.tx_dbm: required key is missing",
            ),
            (
                config_with(**{"noise.eve": "-1"}),
                "noise.eve: must be positive, got -1.0",
            ),
            (
                config_with(**{"irs.n_elements": "0"}),
                "irs.n_elements: must be a positive integer",
            ),
            (
                config_with(**{"sweep.architectures": "irs,laser"}),
                "sweep.architectures: unknown architecture 'laser'; "
                "expected a subset of irs,df,affg",
            ),
            (
                config_with(**{"sweep.methods": "mc,montecarlo,monte_carlo"}),
                "sweep.methods: unknown method 'monte_carlo'; "
                "expected a subset of analytic,monte-carlo",
            ),
            (
                config_with(**{"sweep.variable": "bogus"}),
                "sweep.variable: unknown variable 'bogus'; expected one of "
                "tx_power_dbm,eve_distance_m,n_elements,source_surface_distance_m",
            ),
            (
                config_with(**{"sweep.step": None}),
                "sweep.step: required for a sweep section",
            ),
            (
                config_with(**{"sweep.from": "60.0"}),
                "sweep: sweep start must not exceed stop",
            ),
            (
                config_with(**{"mc.samples": "10"}),
                "mc: samples must be at least 1000 for a reported estimate",
            ),
        ],
        ids=[
            "malformed-line",
            "unknown-key",
            "duplicate-key",
            "bad-float",
            "non-finite-float",
            "bad-int",
            "missing-required",
            "non-positive",
            "no-elements",
            "unknown-architecture",
            "unknown-method",
            "unknown-variable",
            "missing-sweep-key",
            "sweep-spec",
            "mc-config",
        ],
    )
    def test_exact_message(self, text, message):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(text)
        assert exc_info.value.violations == [message]

    def test_sweep_violation_reported_beside_other_keys(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"sweep.from": "60.0", "noise.eve": "-1"}))
        assert sorted(exc_info.value.violations) == [
            "noise.eve: must be positive, got -1.0",
            "sweep: sweep start must not exceed stop",
        ]

    def test_sweep_grid_checked_beside_unknown_architecture(self):
        text = config_with(
            **{
                "geometry.d_node_eve": "-3",
                "sweep.architectures": "irs,laser",
                "sweep.from": "60.0",
            }
        )
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(text)
        assert sorted(exc_info.value.violations) == [
            "geometry.d_node_eve: must be positive, got -3.0",
            "sweep.architectures: unknown architecture 'laser'; "
            "expected a subset of irs,df,affg",
            "sweep: sweep start must not exceed stop",
        ]

    def test_unknown_variable_reported_beside_missing_sweep_key(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(config_with(**{"sweep.variable": "bogus", "sweep.step": None}))
        assert sorted(exc_info.value.violations) == [
            "sweep.step: required for a sweep section",
            "sweep.variable: unknown variable 'bogus'; expected one of "
            "tx_power_dbm,eve_distance_m,n_elements,source_surface_distance_m",
        ]


class TestSweepSpec:
    def test_grid_arithmetic(self):
        spec = SweepSpec("tx_power_dbm", 0.0, 50.0, 2.0)
        assert len(spec.grid()) == 26

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec("tx_power_dbm", 10.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            SweepSpec("tx_power_dbm", 0.0, 10.0, -1.0)

    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bounds_rejected(self, field, bad):
        values = {"start": 0.0, "stop": 10.0, "step": 2.0, field: bad}
        with pytest.raises(ValueError, match=field):
            SweepSpec("tx_power_dbm", **values)

    def test_grid_size_capped_before_it_is_built(self):
        assert len(SweepSpec("tx_power_dbm", 0.0, 99_999.0, 1.0).grid()) == 100_000
        with pytest.raises(ValueError, match="100000 points"):
            SweepSpec("tx_power_dbm", 0.0, 100_000.0, 1.0)
        with pytest.raises(ValueError, match="100000 points"):
            SweepSpec("tx_power_dbm", 0.0, 50.0, 1e-12)
        with pytest.raises(ValueError, match="100000 points"):
            SweepSpec("tx_power_dbm", -1e308, 1e308, 1e-300)

    def test_empty_architectures_or_methods_rejected(self):
        with pytest.raises(ValueError, match="at least one architecture is required"):
            SweepSpec("tx_power_dbm", 0.0, 10.0, 2.0, architectures=())
        with pytest.raises(ValueError, match="at least one method is required"):
            SweepSpec("tx_power_dbm", 0.0, 10.0, 2.0, methods=())

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
        branches = montecarlo.branches

        def counting(scenario, architecture, mc=None):
            calls.append(architecture)
            return branches(scenario, architecture, mc)

        monkeypatch.setattr(montecarlo, "branches", counting)
        spec = SweepSpec("n_elements", 2, 8, 2, ("irs", "df", "affg"))
        rows = run_sweep(spec, reference_config())
        assert sorted(calls) == ["affg", "df"] + ["irs"] * 4
        assert len(rows) == 12
        for arch in ("df", "affg"):
            assert len({r.secrecy_bps_hz for r in rows if r.architecture == arch}) == 1

    def test_repeated_architecture_or_method_gives_one_row(self):
        # A config may list a method twice, or under an alias of itself.
        spec = SweepSpec("tx_power_dbm", 0.0, 10.0, 10.0, ("df", "df"), ("analytic", "analytic"))
        rows = run_sweep(spec, reference_config())
        assert [(r.value, r.architecture, r.method) for r in rows] == [
            (0.0, "df", "analytic"),
            (10.0, "df", "analytic"),
        ]

    def test_csv_roundtrip_exact(self):
        parsed = reference_config()
        spec = SweepSpec("tx_power_dbm", 0.0, 10.0, 5.0, ("df",), ("analytic",))
        rows = run_sweep(spec, parsed)
        records = csv_records(rows_to_csv(rows))
        assert len(records) == len(rows)
        for row, rec in zip(rows, records):
            assert float(rec["value"]) == row.value
            assert float(rec["secrecy_bps_hz"]) == row.secrecy_bps_hz
            assert float(rec["ergodic_L"]) == row.ergodic_l
            assert float(rec["ergodic_E"]) == row.ergodic_e
            assert float(rec["std_error"]) == row.std_error


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

    def test_capacity_functions_resolved_at_call_time(self, monkeypatch):
        # A wrapper set on a capacity module attribute, as a profiler does,
        # must see every call: the architecture table may not bind the
        # functions at import.  Figure 3 is 26 powers x 2 receivers each.
        calls = {}
        for attr in ("ergodic_capacity_irs", "df_ergodic_capacity", "affg_ergodic_capacity"):
            def counting(*args, _attr=attr, _fn=getattr(capacity, attr)):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(capacity, attr, counting)
        figure_preset(3, reference_config())
        assert calls == {
            "ergodic_capacity_irs": 52,
            "df_ergodic_capacity": 52,
            "affg_ergodic_capacity": 52,
        }


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
            def shifted(scenario, receiver, analytic=arch.analytic):
                e = analytic(scenario, receiver)
                return dataclasses.replace(e, bits_per_sec_hz=e.bits_per_sec_hz + 0.25)
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
            def scaled(scenario, receiver, analytic=arch.analytic):
                e = analytic(scenario, receiver)
                return dataclasses.replace(e, bits_per_sec_hz=e.bits_per_sec_hz * 1.009)
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

    def test_unknown_architecture_rejected(self):
        cfg = McConfig(samples=10_000, master_seed=3)
        with pytest.raises(ValueError, match="architecture must be one of"):
            validate(reference_config(), (0.0,), cfg, ("laser",))

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
        assert len(csv_records(out_path.read_text())) == 3 * 2

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
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", "x.csv"]) == 1

    def test_invalid_config_is_input_error(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(config_with(**{"geometry.d_node_legit": "0.0"}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1

    def test_empty_method_list_is_input_error(self, tmp_path):
        # An empty list would otherwise write a header-only CSV and exit 0.
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(config_with(**{"sweep.methods": ","}))
        with pytest.raises(ConfigError, match="at least one method is required"):
            parse_config_text(cfg_path.read_text())
        out_path = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 1
        assert not out_path.exists()

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

    def test_validate_power_list_may_start_with_a_minus(self, tmp_path, capsys):
        # "-10,0" after a space is the value of --powers, not an option.
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        args = ["validate", "--config", str(cfg_path), "--samples", "20000", "--seed", "11"]
        assert main(args + ["--powers", "-10,0"]) == 0
        spaced = capsys.readouterr().out
        assert main(args + ["--powers=-10,0"]) == 0
        assert capsys.readouterr().out == spaced
        powers = {line.split()[1] for line in spaced.splitlines()[1:-1]}
        assert powers == {"-10.0", "0.0"}

    def test_validate_keeps_configured_mc_values(self, tmp_path, capsys):
        text = config_with(**{"mc.chunk_size": "8192"})
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(text)
        parsed = parse_config_text(text)
        mc_cfg = dataclasses.replace(parsed.mc, samples=20_000, master_seed=11)
        expected = validate(parsed, (0.0, 10.0), mc_cfg).to_text()
        args = ["validate", "--config", str(cfg_path), "--samples", "20000", "--seed", "11"]
        assert main(args + ["--powers", "0,10"]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_validate_text_format(self, tmp_path, capsys):
        # bench/workloads.py parses this text: each ok row is 8 fields
        # (arch, power, rx, analytic, monte-carlo, s.e., z, result) and the
        # last line is the verdict.  A new column, such as an analytic error
        # bar, needs the benchmark's parser changed first, in a change of
        # its own.
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        args = ["validate", "--config", str(cfg_path), "--samples", "20000", "--seed", "11"]
        assert main(args + ["--powers", "0,10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[1:-1]]
        assert len(rows) == 2 * 3 * 2
        for fields in rows:
            assert len(fields) == 8
            arch, power, rx, *numbers, result = fields
            assert arch in montecarlo.ARCHITECTURES and rx in ("legit", "eve")
            assert result == "ok"
            assert all(math.isfinite(float(v)) for v in (power, *numbers))
        assert lines[-1] == "overall: PASS"

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
        assert out.splitlines()[-1] == "overall: FAIL"

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["figure", "--id", "7", "--out", "x.csv"], "--id"),
            (["figure", "--id", "3", "--out", "x.csv", "--workers", "2"], "--workers"),
            (["sweep", "--config", "c.cfg", "--out", "x.csv", "--workers", "2"], "--workers"),
            (["validate", "--config", "c.cfg", "--samples", "abc", "--seed", "1"], "--samples"),
            (["validate", "--config", "c.cfg", "--samples", "9", "--seed", "1", "--powers", "nan"],
             "--powers"),
            (["validate", "--config", "c.cfg", "--samples", "9", "--seed", "1", "--powers", "0,inf"],
             "--powers"),
            (["figure", "--out", "x.csv"], "--id"),
        ],
    )
    def test_bad_argument_is_input_error(self, args, flag, capsys):
        # Exit 2 is kept for a failed validation; every bad argument is 1,
        # and the message names the flag.
        with pytest.raises(SystemExit) as exc_info:
            main(args)
        assert exc_info.value.code == 1
        assert flag in capsys.readouterr().err

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
        records = csv_records(out_path.read_text())
        assert records
        assert {rec["method"] for rec in records} == {"monte-carlo"}

    def test_non_integer_shapes_on_every_hop(self, tmp_path, capsys):
        shapes = {f"fading.{hop}.alpha": "2.5" for hop in ("source_node", "node_legit", "node_eve")}
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(config_with(**shapes))
        out_path = tmp_path / "fig3.csv"
        assert main(["figure", "--id", "3", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        records = csv_records(out_path.read_text())
        assert len(records) == 78
        assert all(rec["status"] == "ok" for rec in records)
        args = ["validate", "--config", str(cfg_path), "--samples", "100000", "--seed", "11"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"

    def test_figure_command_with_builtin_reference(self, tmp_path):
        out_path = tmp_path / "fig4.csv"
        assert main(["figure", "--id", "4", "--out", str(out_path)]) == 0
        records = csv_records(out_path.read_text())
        assert {rec["architecture"] for rec in records} == {"df", "affg"}
