import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plasmasheet import cli, polder
from plasmasheet.cli import (
    COMMANDS,
    DEFAULT_TOLERANCE,
    RunConfig,
    SweepSpec,
    SweepTable,
    _assemble,
    build_parser,
    load_config,
    main,
    run,
    table_to_csv_text,
    table_to_json_text,
)
from plasmasheet.errors import PathDisagreementError, ToleranceNotMet
from plasmasheet.numerics import MAX_RTOL, MIN_RTOL, QuadratureSpec
from plasmasheet.polder import reduction_functions

README = Path(__file__).resolve().parent.parent / "README.md"


def data_section(csv_text):
    return "".join(line + "\n" for line in csv_text.splitlines()
                   if not line.startswith("#"))


class TestSweepSpec:
    def test_linear_grid(self):
        spec = SweepSpec("x", 0.0, 1.0, count=5)
        assert spec.values() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log_grid(self):
        spec = SweepSpec("x", 0.01, 100.0, count=5, scale="log")
        values = spec.values()
        assert values[0] == pytest.approx(0.01)
        assert values[2] == pytest.approx(1.0)
        assert values[4] == pytest.approx(100.0)

    def test_single_point(self):
        assert SweepSpec("x", 3.0, 3.0, count=1).values() == [3.0]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SweepSpec("x", 0.0, 1.0, count=0)
        with pytest.raises(ValueError):
            SweepSpec("x", 2.0, 1.0, count=3)
        with pytest.raises(ValueError):
            SweepSpec("x", 0.0, 1.0, count=3, scale="log")
        with pytest.raises(ValueError):
            SweepSpec("x", 0.0, 1.0, count=3, scale="cubic")
        with pytest.raises(ValueError, match="count 1"):
            SweepSpec("x", 1.0, 2.0, count=1)


class TestRunConfig:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            RunConfig("warp", SweepSpec("x", 1.0, 1.0))

    def test_rejects_bad_tolerance_and_format(self):
        sweep = SweepSpec("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            RunConfig("functions", sweep, tolerance=0.0)
        with pytest.raises(ValueError):
            RunConfig("functions", sweep, fmt="yaml")

    def test_tolerance_bound_is_the_quadrature_bound(self):
        sweep = SweepSpec("x", 1.0, 1.0)
        assert RunConfig("functions", sweep, tolerance=MAX_RTOL)
        assert QuadratureSpec(rtol=MAX_RTOL)
        for bad in (2.0 * MAX_RTOL, math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                RunConfig("reflection", SweepSpec("k0", 1.0, 1.0),
                          tolerance=bad)
            with pytest.raises(ValueError, match="rtol"):
                QuadratureSpec(rtol=bad)

    def test_tolerance_floor_leaves_inner_rules_room(self):
        sweep = SweepSpec("x", 1.0, 1.0)
        assert RunConfig("functions", sweep, tolerance=MIN_RTOL)
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig("functions", sweep, tolerance=0.5 * MIN_RTOL)
        # nested rules refine their inner integral to a tenth of the run's
        assert QuadratureSpec(rtol=0.1 * MIN_RTOL)

    def test_rejects_wrong_axis_and_unknown_parameter(self):
        with pytest.raises(ValueError):
            RunConfig("functions", SweepSpec("kpar", 1.0, 1.0))
        with pytest.raises(ValueError):
            RunConfig("functions", SweepSpec("x", 1.0, 1.0),
                      fixed={"omega": 1.0})


class TestTolerancePrecedence:
    def test_default_applies(self):
        config = _assemble("functions", {"x": 1.0})
        assert config.tolerance == DEFAULT_TOLERANCE

    def test_config_file_overrides_default(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("tolerance=1e-6\n")
        config = load_config(str(path), command="functions",
                             overrides={"x": 1.0})
        assert config.tolerance == 1e-6

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("tolerance=1e-6\n")
        config = load_config(str(path), command="functions",
                             overrides={"x": 1.0, "tolerance": 1e-3})
        assert config.tolerance == 1e-3

    @pytest.mark.parametrize("env", ["1e-4", "fast"])
    def test_environment_does_not_set_the_tolerance(self, env, monkeypatch,
                                                    capsys):
        # no environment variable is a source of the tolerance
        monkeypatch.setenv("PLASMASHEET_TOLERANCE", env)
        assert main(["casimir", "--omega-a", "1"]) == 0
        assert "# tolerance: 1e-08\r\n" in capsys.readouterr().out

    def test_help_shows_default_and_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["casimir", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "[1e-14, 0.001] (default 1e-08)" in text


class TestLoadConfig:
    def test_file_values_used(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("command=functions\nfamily=f\nx-min=0.5\n"
                        "x-max=2\ncount=3\nscale=log\n")
        config = load_config(str(path))
        assert config.command == "functions"
        assert config.fixed["family"] == "f"
        assert config.sweep.count == 3
        assert config.sweep.scale == "log"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("omega=2\nkpar=1\n")
        config = load_config(str(path), command="dispersion",
                             overrides={"omega": 3.0})
        assert config.fixed["omega"] == 3.0

    def test_empty_file_with_full_overrides(self, tmp_path):
        path = tmp_path / "empty.conf"
        path.write_text("")
        config = load_config(str(path), command="dispersion",
                             overrides={"omega": 2.0, "kpar": 1.0})
        assert config.fixed["omega"] == 2.0
        assert config.sweep.values() == [1.0]

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("x=1\nbogus_key=7\n")
        with pytest.raises(ValueError, match="bogus_key"):
            load_config(str(path), command="functions")

    def test_unparseable_value_names_the_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("x=1\ncount=many\n")
        with pytest.raises(ValueError, match="count"):
            load_config(str(path), command="functions")

    def test_bad_value_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text("omega=1\nk0=nan\n")
        argv = ["reflection", "--kpar", "1", "--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"plasmasheet: {path}:2: config key 'k0': expected a finite "
            "number, got 'nan'\n")

    def test_line_without_equals_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("x=1\njust some words\n")
        with pytest.raises(ValueError, match=":2"):
            load_config(str(path), command="functions")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("# a comment\n\nx=2\n")
        config = load_config(str(path), command="functions")
        assert config.sweep.values() == [2.0]

    def test_file_must_name_command_when_none_given(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("x=1\n")
        with pytest.raises(ValueError, match="command"):
            load_config(str(path))

    def test_file_command_must_agree_with_the_run(self, tmp_path, capsys):
        path = tmp_path / "sweep.conf"
        path.write_text("command=casimir\ntolerance=1e-6\n")
        agreed = load_config(str(path), command="casimir",
                             overrides={"omega_a": 1.0})
        assert agreed.command == "casimir" and agreed.tolerance == 1e-6
        assert load_config(str(path), overrides={"omega_a": 1.0}) == agreed
        path.write_text("command=sphere\ntolerance=1e-6\n")
        with pytest.raises(ValueError,
                           match=r"sweep\.conf:1: .*'sphere'.*'casimir'"):
            load_config(str(path), command="casimir",
                        overrides={"omega_a": 1.0})
        assert main(["casimir", "--omega-a", "1", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'sphere'" in captured.err and "'casimir'" in captured.err

    def test_axis_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            _assemble("functions", {"x": 1.0, "x_min": 0.1, "x_max": 2.0})

    def test_missing_axis_rejected(self):
        with pytest.raises(ValueError, match="--x"):
            _assemble("functions", {})


def _option_sample(option, tmp_path):
    """A value text for the option that differs from its default."""
    parse = option.parse
    if parse is cli._flag:
        return "true"
    if hasattr(parse, "choices"):
        return next(c for c in parse.choices if c != option.default)
    if parse is str:
        return str(tmp_path / "table.csv")
    if option.name == "tolerance":
        return "1e-4"
    return {int: "2" if option.name == "l" else "3",
            cli._finite: "0.25"}[parse]


def _takes_a_float(option):
    try:
        return type(option.parse("0.25")) is float
    except ValueError:
        return False


def _argv(command, values):
    """argv that gives each option name: text pair as a long flag."""
    return [command] + [item for name, text in values.items()
                        for item in ("--" + name.replace("_", "-"), text)]


class TestOptionTable:
    """Each ParamSpec row is one flag and one config key of the same value."""

    @staticmethod
    def _config_of(monkeypatch, argv):
        seen = []

        def record(config):
            seen.append(config)
            return SweepTable(columns=(), kinds=(), rows=(), metadata={}), 0

        monkeypatch.setattr(cli, "run", record)
        assert main(argv) == 0
        return seen[0]

    @pytest.mark.parametrize("key_style", ["underscore", "hyphen"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_and_config_key_give_same_config(self, command, key_style,
                                                  tmp_path, monkeypatch):
        axis = COMMANDS[command].axis
        bounds = {axis + "_min": "0.1", axis + "_max": "2"}
        plain = self._config_of(monkeypatch, _argv(command, bounds))
        for option in cli._options(command):
            text = _option_sample(option, tmp_path)
            base = {} if option.name == axis else dict(bounds)
            base.pop(option.name, None)
            flag = _argv(command, {option.name: text})[1:]
            if option.parse is cli._flag:
                flag = flag[:1]
            key = (option.name if key_style == "underscore"
                   else option.name.replace("_", "-"))
            path = tmp_path / f"{option.name}.conf"
            path.write_text(f"{key}={text}\n")
            by_flag = self._config_of(monkeypatch, _argv(command, base) + flag)
            by_file = self._config_of(monkeypatch, _argv(command, base)
                                      + ["--config", str(path)])
            assert by_flag == by_file != plain, option.name

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_run_config_takes_option_defaults(self, command):
        axis = COMMANDS[command].axis
        direct = run(RunConfig(command, SweepSpec(axis, 1.5, 1.5)))
        assert direct == run(_assemble(command, {axis: 1.5}))


class TestRun:
    def test_functions_row_matches_library(self):
        config = _assemble("functions", {"x": 1.0, "family": "g"})
        table, status = run(config)
        assert status == 0
        assert table.columns == ("x", "gTE", "gTM", "g3", "error")
        bundle = reduction_functions(1.0, rtol=config.tolerance)
        row = table.rows[0]
        assert row[1] == pytest.approx(bundle.gTE, rel=1e-12)
        assert row[2] == pytest.approx(bundle.gTM, rel=1e-12)
        assert row[3] == pytest.approx(bundle.g3, rel=1e-12)
        assert row[4] == ""

    def test_dispersion_residuals_small(self):
        config = _assemble("dispersion", {
            "omega": 1.0, "kpar_min": 1e-3, "kpar_max": 1e3,
            "count": 9, "scale": "log"})
        table, status = run(config)
        assert status == 0
        for row in table.rows:
            assert row[3] <= 1e-10
            # the plasmon always lies below the light cone
            assert row[1] < row[0]

    def test_physics_error_row_flagged(self):
        # omega_a = 0 makes the charge kinetic part diverge; the row stays,
        # blanked, and the run reports partial failure
        config = _assemble("charge", {
            "omega_a_min": 0.0, "omega_a_max": 2.0, "count": 3,
            "p23": 1.0})
        table, status = run(config)
        assert status == 1
        first, rest = table.rows[0], table.rows[1:]
        assert first[1] is None and first[2] is None
        assert "diverges" in first[3]
        for row in rest:
            assert row[3] == ""
            assert row[1] == pytest.approx(-1.0 / (8.0 * math.pi))

    def test_light_cone_row_flagged(self):
        config = _assemble("reflection", {
            "omega": 2.0, "k0": 1.0, "kpar_min": 0.5, "kpar_max": 1.5,
            "count": 3})
        table, status = run(config)
        assert status == 1
        assert "OnLightConeError" in table.rows[1][3]
        assert table.rows[0][3] == table.rows[2][3] == ""

    def test_bad_fixed_parameter_raises_before_rows(self):
        config = _assemble("sphere", {"k0r": 1.0, "l": 0})
        with pytest.raises(ValueError):
            run(config)


class TestCsvOutput:
    def test_header_names_stable(self):
        config = _assemble("reflection", {"kpar": 0.5})
        table, _ = run(config)
        text = table_to_csv_text(table)
        header = data_section(text).splitlines()[0]
        assert header == "kpar,rTE_re,rTE_im,rTM_re,rTM_im,error"

    def test_metadata_preamble_before_data(self):
        config = _assemble("functions", {"x": 1.0})
        table, _ = run(config)
        lines = table_to_csv_text(table).splitlines()
        assert lines[0].startswith("# command: functions")
        assert any(line.startswith("# tolerance:") for line in lines)

    def test_error_row_uses_nan_cells(self):
        config = _assemble("charge", {"omega_a": 0.0, "p23": 1.0})
        table, status = run(config)
        assert status == 1
        data_row = data_section(table_to_csv_text(table)).splitlines()[1]
        cells = data_row.split(",")
        assert cells[1] == "nan" and cells[2] == "nan"
        assert "diverges" in data_row

    def test_identical_config_gives_identical_bytes(self):
        overrides = {"omega_a_min": 0.1, "omega_a_max": 10.0,
                     "count": 3, "scale": "log"}
        first, _ = run(_assemble("casimir", dict(overrides)))
        second, _ = run(_assemble("casimir", dict(overrides)))
        assert table_to_csv_text(first) == table_to_csv_text(second)


class TestJsonOutput:
    def test_round_trip_reproduces_values(self):
        config = _assemble("sphere", {
            "k0r_min": 0.5, "k0r_max": 2.0, "count": 3, "l": 2})
        table, _ = run(config)
        text = table_to_json_text(table)
        parsed = json.loads(text)
        assert parsed["columns"] == ["k0r", "gTE", "gTM", "error"]
        for row, parsed_row in zip(table.rows, parsed["rows"]):
            assert parsed_row[0] == row[0]
            assert parsed_row[1] == [row[1].real, row[1].imag]
            assert parsed_row[2] == [row[2].real, row[2].imag]
            assert parsed_row[3] == ""
        # a second serialize-parse cycle is bit-identical
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" \
            == text

    def test_failed_cells_become_null(self):
        config = _assemble("charge", {"omega_a": 0.0, "p23": 1.0})
        table, _ = run(config)
        parsed = json.loads(table_to_json_text(table))
        assert parsed["rows"][0][1] is None
        assert "diverges" in parsed["rows"][0][3]


class TestMain:
    def test_reflection_rows_whose_squares_overflow(self, capsys):
        # kpar = 1 is on the light cone; kpar^2 overflows at 1e300, and
        # k0^2 at k0 = 1e300
        assert main(["reflection", "--k0", "1", "--kpar-min", "1",
                     "--kpar-max", "1e300", "--count", "3",
                     "--scale", "log"]) == 1
        rows = data_section(capsys.readouterr().out).splitlines()
        assert rows[2:] == ["9.9999999999999998e+149,5e-151,0,1,0,",
                            "1.0000000000000001e+300,5.0000000000000001e-301,"
                            "0,1,0,"]
        assert main(["reflection", "--k0", "1e300", "--kpar", "1"]) == 0
        rows = data_section(capsys.readouterr().out).splitlines()
        assert rows[1] == ("1,0,5.0000000000000001e-301,0,"
                           "5.0000000000000001e-301,")

    def test_writes_csv_to_stdout(self, capsys):
        status = main(["functions", "--family", "g", "--x", "1.0"])
        captured = capsys.readouterr()
        assert status == 0
        assert "x,gTE,gTM,g3,error" in captured.out

    def test_ideal_limit_point_value(self, capsys):
        status = main(["casimir-polder", "--omega-a", "1e6",
                       "--isotropic-alpha", "1", "--a", "1"])
        assert status == 0
        data = data_section(capsys.readouterr().out).splitlines()
        value = float(data[1].split(",")[1])
        assert value == pytest.approx(-13.0 / (160.0 * math.pi**2), rel=1e-3)

    def test_error_rows_exit_one(self, capsys):
        status = main(["charge", "--omega-a-min", "0", "--omega-a-max", "2",
                       "--count", "3", "--p23", "1"])
        assert status == 1
        assert "diverges" in capsys.readouterr().out

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text("bogus_key=1\n")
        status = main(["functions", "--x", "1",
                       "--config", str(path)])
        assert status == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_axis_exits_two(self, capsys):
        status = main(["functions"])
        assert status == 2
        assert "--x" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["functions", "--x", "1", "--family", "f", "--tolerance", "0.01"],
         "tolerance"),
        (["functions", "--x-min", "1", "--x-max", "2", "--count", "1"],
         "count"),
        (["functions", "--x", "1", "--scale", "log"], "scale"),
        (["casimir", "--omega-a", "1", "--tolerance", "1e-15"], "tolerance"),
    ], ids=["tolerance-flag", "count-one-range", "scale-single-value",
            "tolerance-floor-flag"])
    def test_dropped_or_unusable_option_exits_two(self, argv, named,
                                                  monkeypatch, capsys):
        def no_rows(config):
            raise AssertionError("no row may be computed")

        monkeypatch.setattr(cli, "run", no_rows)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_finite_float_option_exits_two(self, command, text, tmp_path,
                                               monkeypatch, capsys):
        def no_rows(config):
            raise AssertionError("no row may be computed")

        monkeypatch.setattr(cli, "run", no_rows)
        axis = COMMANDS[command].axis
        floats = [option for option in cli._options(command)
                  if _takes_a_float(option)]
        assert {axis, "tolerance"} <= {option.name for option in floats}
        for option in floats:
            base = ({} if option.name == axis
                    else {axis + "_min": "0.1", axis + "_max": "2"})
            base.pop(option.name, None)
            flag = "--" + option.name.replace("_", "-")
            # "=" keeps argparse from reading "-inf" as a flag
            with pytest.raises(SystemExit) as info:
                main(_argv(command, base) + [f"{flag}={text}"])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{flag}: expected a finite number" in captured.err
            path = tmp_path / "bad.conf"
            path.write_text(f"{option.name}={text}\n")
            assert main(_argv(command, base) + ["--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"config key {option.name!r}: expected a finite number"
                    in captured.err)

    def test_dispersion_covers_its_stated_domain(self, capsys):
        assert main(["dispersion", "--omega", "1", "--kpar-min", "1e-12",
                     "--kpar-max", "1e8", "--count", "81", "--scale",
                     "log"]) == 0
        rows = data_section(capsys.readouterr().out).splitlines()[1:]
        assert len(rows) == 81
        assert all(row.endswith(",") for row in rows)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["functions", "--x", "1", "--frobnicate"])
        assert info.value.code == 2

    def test_missing_config_file_exits_two(self, capsys):
        status = main(["functions", "--x", "1",
                       "--config", "/no/such/file.conf"])
        assert status == 2

    def test_output_file_runs_are_byte_identical(self, tmp_path):
        args = ["sphere", "--l", "3", "--omega-r", "2",
                "--k0r-min", "0.5", "--k0r-max", "8", "--count", "5",
                "--format", "json"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_family_computes_only_its_own_functions(self, monkeypatch, capsys):
        def broken(x, rtol=1e-8):
            raise PathDisagreementError("g_tm must not run for --family f")

        monkeypatch.setattr(polder, "_g_family", broken)
        assert main(["functions", "--family", "f", "--x", "1"]) == 0
        assert "x,fTE,fTM,error" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, base, failed", [
        (["casimir", "--a", "1e-300", "--raw-units"], 3, True),
        (["charge", "--a", "1e-310", "--p23", "1", "--p2par", "1"], 0, True),
        (["casimir", "--a", "1e120", "--raw-units"], 3, False),
        (["casimir-polder", "--a", "1e100", "--isotropic-alpha", "1"], 1,
         False),
        (["casimir-polder", "--a", "1e100", "--isotropic-alpha", "1",
          "--raw-units"], 1, False),
    ], ids=["casimir-tiny-a", "charge-tiny-a", "casimir-huge-a",
            "polder-huge-a", "polder-huge-a-raw"])
    def test_extreme_distance_gives_a_row(self, argv, base, failed, capsys):
        # the a-independent cells are those of a = 1; a raw-unit cell that
        # underflows is 0, and one that overflows fails its row
        assert main(argv[:1] + ["--omega-a", "1"] + argv[1:]) == int(failed)
        header, row = data_section(capsys.readouterr().out).splitlines()
        cells = row.split(",")
        if failed:
            assert all(cell == "nan" for cell in cells[1:-1])
            assert cells[-1].startswith("ValueError: ")
            assert "beyond the float range" in cells[-1]
            return
        assert cells[-1] == ""
        unit = argv[:2] + ["1"] + [arg for arg in argv[3:]
                                   if arg != "--raw-units"]
        assert main(unit[:1] + ["--omega-a", "1"] + unit[1:]) == 0
        unit_row = data_section(capsys.readouterr().out).splitlines()[1]
        assert cells[:1 + base] == unit_row.split(",")[:1 + base]
        assert all(float(cell) == 0.0 for cell in cells[1 + base:-1])

    def test_charge_at_huge_distance_keeps_subnormal_energies(self, capsys):
        assert main(["charge", "--omega-a", "1", "--a", "1e308", "--p23", "1",
                     "--p2par", "1"]) == 0
        row = data_section(capsys.readouterr().out).splitlines()[1]
        _, electrostatic, kinetic, error = row.split(",")
        assert error == ""
        assert float(electrostatic) == -1.0 / (8.0 * math.pi) / 1e308
        assert float(electrostatic) < 0.0 and float(kinetic) < 0.0

    @pytest.mark.parametrize("command, value, extra", [
        ("casimir", "0", []),
        ("casimir-polder", "-1", ["--isotropic-alpha", "1"]),
        ("charge", "0", []),
    ])
    def test_nonpositive_distance_exits_two(self, command, value, extra,
                                            tmp_path, capsys):
        path = tmp_path / "a.conf"
        path.write_text(f"a={value}\n")
        sweep = [command, "--omega-a-min", "0.5", "--omega-a-max", "2",
                 "--count", "3", *extra]
        for given in ([f"--a={value}"], ["--config", str(path)]):
            assert main(sweep + given) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "a must be positive" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["sphere", "--l", "1", "--k0r", "1", "--omega-r", "1",
          "--radius", "0"], "radius must be positive"),
        (["sphere", "--l", "1", "--k0r", "1", "--omega-r", "-1"],
         "omega_r must be nonnegative"),
        (["sphere", "--l", "1", "--k0r", "1", "--omega-r", "1e300",
          "--radius", "1e-10"],
         "omega_r / radius = 1e+300 / 1e-10 is beyond the float range"),
        (["dispersion", "--omega", "0", "--kpar-min", "0.5",
          "--kpar-max", "2", "--count", "3"], "omega must be positive"),
    ])
    def test_invalid_shell_or_sheet_exits_two(self, argv, message, capsys):
        # refused before any row, naming the option given
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"plasmasheet: {message}\n"

    def test_negative_exponent_form_needs_equals(self, capsys):
        assert main(["charge", "--omega-a", "1", "--p23", "1",
                     "--e=-2e-1"]) == 0
        equals_form = capsys.readouterr().out
        assert main(["charge", "--omega-a", "1", "--p23", "1",
                     "--e", "-0.2"]) == 0
        assert capsys.readouterr().out == equals_form
        assert "# e: -0.20000000000000001" in equals_form

    def test_readme_examples_exit_zero(self, capsys):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        commands = [shlex.split(line)[1:] for block in blocks
                    for line in block.splitlines()
                    if line.startswith("plasmasheet ")]
        assert len(commands) >= 7
        for argv in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0, " ".join(argv)
            capsys.readouterr()

    def test_config_file_flag_precedence(self, tmp_path, capsys):
        path = tmp_path / "sweep.conf"
        path.write_text("omega=2\nkpar=1\n")
        status = main(["dispersion", "--config", str(path), "--omega", "3"])
        assert status == 0
        out = capsys.readouterr().out
        assert "# omega: 3" in out


# Commands at the edges of the float range: argv, exit status, and the
# text that some row must end with (an error cell, or the last cells of a
# row and its empty error cell), or None. Every case
# runs with numpy warnings as errors and must leave stderr empty: a numpy
# warning or a traceback would end the run there.
EXTREME_RUNS = [
    # momenta whose squares leave the float range
    ("reflection --k0 2e-170 --kpar-min 0 --kpar-max 1e-170 --count 3", 0,
     None),
    ("dispersion --omega 1e200 --kpar 1e200", 0, None),
    # the array runners: an x = 0 row, and a sweep over several chunks
    ("casimir-polder --isotropic-alpha 1 --omega-a-min 0 --omega-a-max 1e6 "
     "--count 7", 0, None),
    ("functions --family all --x-min 1e-6 --x-max 1e12 --count 73 "
     "--scale log", 0, None),
    # the f, h and g families and charge over nearly the whole float range
    ("functions --family f --x-min 1e-300 --x-max 1e300 --count 25 "
     "--scale log", 0, None),
    ("functions --family h --x-min 1e-300 --x-max 1e300 --count 25 "
     "--scale log", 0, None),
    ("functions --family g --x-min 1e-300 --x-max 1e300 --count 25 "
     "--scale log", 0, None),
    ("charge --omega-a-min 1e-300 --omega-a-max 1e300 --count 25 --scale log "
     "--p2par 1 --p23 1", 0, None),
    # a kinetic energy near the top of the float range whose sum of
    # momenta alone overflows (the float of its mpmath value), one beyond
    # the float range, a mass whose square underflows, and an uncharged
    # particle whose momenta overflow
    ("charge --omega-a 1e-300 --p2par 1e10", 0,
     "-0.039788735772973836,-9.9471839432434579e+307,"),
    ("charge --omega-a 1e-300 --p2par 1e11", 1,
     "ValueError: -inf / 1**2 is beyond the float range"),
    ("charge --omega-a 1 --p2par 1 --m 1e-200", 1,
     "ValueError: -0.023909574922633511 / 9.9999999999999998e-201**2 is "
     "beyond the float range"),
    ("charge --omega-a 1e-300 --p2par 1e10 --e 0", 0, None),
    # e^2 underflows while the sum of momenta overflows (the kinetic
    # energy is the float of its mpmath value) or while a momentum
    # underflows; e^2 overflows with a zero momentum term
    ("charge --omega-a 1e-300 --e 1e-200 --p2par 1e10", 0,
     "-0,-9.9471839432434572e-93,"),
    ("charge --omega-a 1e-300 --e 1e-150 --p2par 1e-200", 0, None),
    ("charge --omega-a 1e-300 --e 1e200 --p2par 1", 1,
     "ValueError: -inf / 1**2 is beyond the float range"),
    # alpha1 + alpha2 beyond the float range, the energy inside it; the
    # same energy over a^4 beyond it
    ("casimir-polder --omega-a 1 --isotropic-alpha 1e308", 0, None),
    ("casimir-polder --omega-a 1 --isotropic-alpha 1e308 --a 1e-3 "
     "--raw-units", 1,
     "ValueError: -4.68889753137062e+305 / 0.001**4 is beyond the float "
     "range"),
    # the Casimir pass gives a row from 800/DBL_MAX up
    ("casimir --omega-a 1e-14", 0, None),
    ("casimir --omega-a-min 4.5e-306 --omega-a-max 1e-13 --count 25 "
     "--scale log --raw-units", 0, None),
    ("casimir --omega-a 1e-300 --tolerance 1e-14", 0, None),
    # below the lattice, fTM misses 1e-13 and meets 1e-12
    ("functions --family f --x 1e-300 --tolerance 1e-13", 1,
     "ToleranceNotMet: Gauss-Legendre order doubling did not reach rtol "
     "1e-13"),
    ("functions --family f --x 1e-300 --tolerance 1e-12", 0, None),
    # below 800/DBL_MAX, k/x leaves the float range on the log-k nodes
    ("casimir --omega-a 1e-307", 1,
     "ValueError: x = 9.9999999999999991e-308 is below 800/DBL_MAX = "
     "4.5e-306: k/x leaves the float range"),
    ("casimir --omega-a 1e-310", 1,
     "ValueError: x = 9.9999999999999694e-311 is below 800/DBL_MAX = "
     "4.5e-306: k/x leaves the float range"),
    ("casimir --omega-a 5e-324", 1,
     "ValueError: x = 4.9406564584124654e-324 is below 800/DBL_MAX = "
     "4.5e-306: k/x leaves the float range"),
    ("functions --family g --x 1e-307", 1,
     "ValueError: x = 9.9999999999999991e-308 is below 800/DBL_MAX = "
     "4.5e-306: k/x leaves the float range"),
    ("functions --family g --x 1e-310", 1,
     "ValueError: x = 9.9999999999999694e-311 is below 800/DBL_MAX = "
     "4.5e-306: k/x leaves the float range"),
    ("functions --family g --x 5e-324", 1,
     "ValueError: x = 4.9406564584124654e-324 is below 800/DBL_MAX = "
     "4.5e-306: k/x leaves the float range"),
    # 1/x beyond the float range: hPar fails its row
    ("functions --family h --x 5e-324", 1,
     "ValueError: 1 / 4.9406564584124654e-324 is beyond the float range"),
    # a 37-point Casimir sweep, one pass of the 1-d rule
    ("casimir --omega-a-min 1e-3 --omega-a-max 1e6 --count 37 --scale log "
     "--raw-units", 0, None),
    # kpar/Omega beyond the float range, and up to 1e300 inside it
    ("dispersion --omega 1e-200 --kpar-min 1e-200 --kpar-max 1e200 "
     "--count 41 --scale log", 1,
     "ValueError: kpar = 1e+200 and Omega = 1e-200 are too far apart: "
     "their ratio is beyond the float range"),
    ("dispersion --omega 1 --kpar-min 1e80 --kpar-max 1e300 --count 23 "
     "--scale log", 0, None),
]


@pytest.mark.parametrize("command, status, error", EXTREME_RUNS,
                         ids=[run[0] for run in EXTREME_RUNS])
def test_extreme_run_gives_rows_and_an_empty_stderr(command, status, error,
                                                    capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command.split()) == status
    out, err = capsys.readouterr()
    assert err == ""
    rows = data_section(out).splitlines()[1:]
    assert rows
    if error is not None:
        assert any(row.endswith("," + error) for row in rows)

class TestSweepTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            SweepTable(columns=("x", "error"), kinds=("float", "error"),
                       rows=((1.0, 2.0, ""),), metadata={})


# One sweep per command: fixed parameters, then (min, max, count, scale).
SWEEPS = {
    "reflection": ({"omega": 2.0, "k0": 1.0}, (0.1, 3.0, 7, "linear")),
    "dispersion": ({"omega": 1.0}, (1e-2, 1e2, 5, "log")),
    "casimir": ({"raw_units": True}, (0.1, 1e3, 4, "log")),
    "casimir-polder": ({"isotropic_alpha": 1.0}, (0.1, 1e3, 3, "log")),
    "charge": ({"p2par": 0.3, "p23": 0.7}, (0.5, 50.0, 6, "log")),
    "sphere": ({"l": 3, "omega_r": 0.5}, (0.05, 20.0, 9, "log")),
    "functions": ({"family": "all"}, (0.01, 100.0, 3, "log")),
}


def _sweep_config(command, fixed, bounds):
    low, high, count, scale = bounds
    axis = _axis(command)
    return _assemble(command, dict(fixed, **{
        axis + "_min": low, axis + "_max": high, "count": count,
        "scale": scale}))


def _axis(command):
    return COMMANDS[command].axis


class TestArrayRunners:
    @pytest.mark.parametrize("command", sorted(SWEEPS))
    def test_batched_rows_equal_points_run_alone(self, command):
        fixed, bounds = SWEEPS[command]
        batched, status = run(_sweep_config(command, fixed, bounds))
        assert status == 0
        for row in batched.rows:
            alone, status = run(_assemble(
                command, dict(fixed, **{_axis(command): row[0]})))
            assert status == 0
            (single,) = alone.rows
            for name, cell, expected in zip(batched.columns, row, single):
                assert cell == expected, (name, row[0])

    @pytest.mark.parametrize("command, kernel", [
        ("reflection", "reflection_coefficients"),
        ("charge", "charge_sheet_energies"),
        ("sphere", "jost_tm"),
        ("dispersion", "tm_plasmon_root"),
    ])
    def test_array_kernel_runs_once_per_sweep(self, command, kernel,
                                              monkeypatch):
        from plasmasheet import cli

        calls = []
        original = getattr(cli, kernel)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, kernel, counted)
        fixed, bounds = SWEEPS[command]
        table, status = run(_sweep_config(command, fixed, bounds))
        assert status == 0
        assert len(calls) == 1
        assert len(table.rows) == bounds[2]

    @pytest.mark.parametrize("command, fixed, bounds, message", [
        ("charge", {"p23": 1.0}, (0.0, 2.0, 5, "linear"),
         "ValueError: kinetic part diverges for a transparent sheet"),
        ("reflection", {"omega": 2.0, "k0": 1.0}, (0.5, 1.5, 5, "linear"),
         "OnLightConeError: Gamma = 0 at k0 = 1.0"),
        ("dispersion", {"omega": 1.0}, (0.0, 4.0, 5, "linear"),
         "DegenerateMomentumError: plasmon branch needs kpar > 0"),
        ("casimir-polder", {"isotropic_alpha": 1.0, "raw_units": True},
         (-1.0, 3.0, 5, "linear"),
         "ValueError: omega must be finite and nonnegative"),
        ("casimir", {"raw_units": True}, (0.0, 4.0, 5, "linear"),
         "ValueError: x = Omega * a must be positive"),
        ("functions", {"family": "all"}, (0.0, 4.0, 5, "linear"),
         "ValueError: x must be positive and finite"),
    ])
    def test_raising_point_blanks_only_its_row(self, command, fixed, bounds,
                                                message):
        config = _sweep_config(command, fixed, bounds)
        table, status = run(config)
        assert status == 1
        failed = [row for row in table.rows if row[-1]]
        kept = [row for row in table.rows if not row[-1]]
        assert len(failed) == 1 and len(kept) == 4
        assert failed[0][-1] == message
        assert all(cell is None for cell in failed[0][1:-1])
        # the other points as one clean sweep of the same runner
        _, runner = COMMANDS[command].build(config.fixed, config.tolerance)
        clean = zip(*(np.asarray(column).tolist() for column in
                      runner(np.array([row[0] for row in kept]))))
        for row, expected in zip(kept, clean):
            for cell, want in zip(row[1:], expected):
                assert cell == want

    def test_raising_point_is_isolated_by_halving(self, monkeypatch):
        # the README reflection sweep with 40 points hits kpar = k0 = 2
        from plasmasheet import cli

        sizes = []
        original = cli.reflection_coefficients

        def counted(k0, kpar, sheet):
            sizes.append(len(kpar))
            return original(k0, kpar, sheet)

        monkeypatch.setattr(cli, "reflection_coefficients", counted)
        fixed = {"omega": 1.0, "k0": 2.0}
        config = _sweep_config("reflection", fixed, (0.1, 4.0, 40, "linear"))
        table, status = run(config)
        assert status == 1
        failed = [row for row in table.rows if row[-1]]
        assert [row[0] for row in failed] == [2.0]
        assert failed[0][-1] == "OnLightConeError: Gamma = 0 at k0 = 2.0"
        # the whole axis, then two halves per level down to the point
        assert len(sizes) <= 1 + 2 * math.ceil(math.log2(40))
        assert sum(sizes) <= 3 * 40
        for row in table.rows:
            if not row[-1]:
                alone, _ = run(_assemble("reflection",
                                         dict(fixed, kpar=row[0])))
                assert alone.rows[0] == row

    def test_quadrature_runner_is_isolated_by_halving(self, monkeypatch):
        from plasmasheet import polder

        seen = []
        original = polder._g_family

        def counted(x, rtol):
            seen.append(x.tolist())
            if 2.0 in x:
                raise ToleranceNotMet("no convergence at 2")
            return original(x, rtol)

        monkeypatch.setattr(polder, "_g_family", counted)
        config = _sweep_config("casimir-polder", {"isotropic_alpha": 1.0},
                               (0.0, 3.0, 4, "linear"))
        table, status = run(config)
        assert status == 1
        assert [row[-1] for row in table.rows] == [
            "", "", "ToleranceNotMet: no convergence at 2", ""]
        # one g-family pass for the lit points, then two halves per level
        # down to the raising point; the transparent x = 0 needs no pass
        assert seen == [[1.0, 2.0, 3.0], [1.0], [2.0, 3.0], [2.0], [3.0]]

    @pytest.mark.parametrize("raw", [False, True])
    def test_transparent_sheet_row_is_zero(self, raw):
        config = _sweep_config("casimir-polder",
                               {"isotropic_alpha": 1.0, "raw_units": raw},
                               (0.0, 1e6, 7, "linear"))
        table, status = run(config)
        assert status == 0
        assert table.rows[0] == (0.0, 0.0) + (0.0,) * raw + ("",)

    @pytest.mark.parametrize("command, fixed", [
        ("functions", {"family": "all"}),
        ("casimir-polder", {"isotropic_alpha": 1.0, "a": 2.0}),
        ("casimir-polder", {"isotropic_alpha": 1.0, "a": 2.0,
                            "raw_units": True}),
        ("casimir", {"a": 2.0}),
        ("casimir", {"a": 2.0, "raw_units": True}),
    ], ids=["functions", "casimir-polder", "casimir-polder-raw", "casimir",
            "casimir-raw"])
    def test_sweep_cells_equal_single_point_runs(self, command, fixed):
        # each x refines alone inside its chunk of the sweep: every cell has
        # the bits of the run of that x alone, across 18 decades
        sweep, status = run(_sweep_config(command, fixed,
                                          (1e-6, 1e12, 19, "log")))
        assert status == 0
        for row in sweep.rows:
            alone, status = run(_assemble(
                command, dict(fixed, **{_axis(command): row[0]})))
            assert status == 0
            assert alone.rows == (row,), row[0]

    def test_negative_charge_coupling_keeps_sheet_message(self):
        config = _sweep_config("charge", {"p23": 1.0},
                               (-2.0, 2.0, 5, "linear"))
        table, status = run(config)
        assert status == 1
        assert [row[-1] for row in table.rows] == [
            "ValueError: omega must be finite and nonnegative",
            "ValueError: omega must be finite and nonnegative",
            "ValueError: kinetic part diverges for a transparent sheet",
            "", ""]

    def test_non_finite_sphere_rows_are_blanked(self):
        # j_120 underflows while y_120 overflows at small k0 R
        fixed = {"l": 120}
        config = _sweep_config("sphere", fixed, (0.01, 5.0, 50, "linear"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, status = run(config)
            assert status == 1
            failed = [row for row in table.rows if row[-1]]
            assert failed and len(failed) < len(table.rows)
            for row in failed:
                assert row[-1].startswith("SheetModelError: ")
                assert all(cell is None for cell in row[1:-1])
            for row in table.rows:
                if not row[-1]:
                    alone, status = run(_assemble(
                        "sphere", dict(fixed, k0r=row[0])))
                    assert status == 0
                    assert alone.rows[0] == row

    def test_version_is_the_package_version(self):
        import tomllib

        import plasmasheet

        pyproject = README.parent / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            version = tomllib.load(handle)["project"]["version"]
        assert version == plasmasheet.__version__
        table, _ = run(_sweep_config("reflection", *SWEEPS["reflection"]))
        assert table.metadata["version"] == plasmasheet.__version__

    def test_parser_reuse_gives_same_bytes_in_either_order(self, capsys):
        commands = (["reflection", "--omega", "1", "--k0", "2", "--kpar",
                     "0.5"],
                    ["casimir", "--omega-a", "1", "--format", "json"],
                    ["sphere", "--l", "2", "--k0r", "1.5"])
        outputs = []
        for order in (commands, commands[::-1]):
            build_parser.cache_clear()
            seen = {}
            for argv in order:
                assert main(list(argv)) == 0
                seen[argv[0]] = capsys.readouterr().out
            outputs.append(seen)
        assert outputs[0] == outputs[1]
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [
        ["casimir", "--omega-a", "1"],
        ["dispersion", "--kpar-min", "1e-3", "--kpar-max", "1e3",
         "--scale", "log"],
        ["reflection", "--omega", "1", "--k0", "2", "--kpar-min", "0.1",
         "--kpar-max", "4", "--count", "41"],
        ["charge", "--omega-a-min", "0.5", "--omega-a-max", "50",
         "--count", "20", "--p23", "0.2"],
        ["casimir-polder", "--omega-a", "10", "--isotropic-alpha", "1"],
        ["functions", "--family", "all", "--x", "1"],
    ], ids=lambda argv: argv[0])
    def test_run_imports_no_scipy(self, argv):
        code = ("import contextlib, io, sys\n"
                "import plasmasheet, plasmasheet.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    status = plasmasheet.cli.main({argv!r})\n"
                "print(status, sorted(m for m in sys.modules\n"
                "                     if m.split('.')[0] == 'scipy'))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert result.stdout.split("\n")[0] == "0 []"

    def test_no_package_call_imports_scipy_integrate(self):
        # the README lines, the library check routes and a zero scan all run
        # on the package's own rules: none reaches the QUADPACK wrappers
        commands = [shlex.split(line)[1:]
                    for line in README.read_text().splitlines()
                    if line.startswith("plasmasheet ")]
        assert len(commands) >= 7
        code = ("import contextlib, io, sys\n"
                "import plasmasheet, plasmasheet.cli\n"
                "from plasmasheet import (AtomProperties, SheetParameters,\n"
                "                         SphericalShell)\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    for argv in {commands!r}:\n"
                "        assert plasmasheet.cli.main(argv) == 0, argv\n"
                "plasmasheet.delta1_integral_form(1.0, SheetParameters(1.0),\n"
                "                                 AtomProperties())\n"
                "plasmasheet.reduced_energy_and_pressure_nested(1.0)\n"
                "assert plasmasheet.scan_real_zeros(\n"
                "    3, SphericalShell(1.0, 10.0)) == []\n"
                "print('scipy.integrate' in sys.modules)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="error")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert result.stdout == "False\n"
