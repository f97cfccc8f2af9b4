import json
import math
import re
import shlex
from pathlib import Path

import pytest

from plasmasheet import polder
from plasmasheet.cli import (
    DEFAULT_TOLERANCE,
    TOLERANCE_ENV_VAR,
    RunConfig,
    SweepSpec,
    SweepTable,
    _assemble,
    load_config,
    main,
    run,
    table_to_csv_text,
    table_to_json_text,
)
from plasmasheet.errors import PathDisagreementError
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

    def test_rejects_wrong_axis_and_unknown_parameter(self):
        with pytest.raises(ValueError):
            RunConfig("functions", SweepSpec("kpar", 1.0, 1.0))
        with pytest.raises(ValueError):
            RunConfig("functions", SweepSpec("x", 1.0, 1.0),
                      fixed={"omega": 1.0})


class TestTolerancePrecedence:
    def test_default_applies(self, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV_VAR, raising=False)
        config = _assemble("functions", {}, {"x": 1.0})
        assert config.tolerance == DEFAULT_TOLERANCE

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-4")
        config = _assemble("functions", {}, {"x": 1.0})
        assert config.tolerance == 1e-4

    def test_config_file_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-4")
        config = _assemble("functions", {"tolerance": "1e-6"}, {"x": 1.0})
        assert config.tolerance == 1e-6

    def test_flag_overrides_config_file(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-4")
        config = _assemble("functions", {"tolerance": "1e-6"},
                           {"x": 1.0, "tolerance": 1e-3})
        assert config.tolerance == 1e-3

    def test_unparseable_environment_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "fast")
        with pytest.raises(ValueError, match=TOLERANCE_ENV_VAR):
            _assemble("functions", {}, {"x": 1.0})


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

    def test_axis_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            _assemble("functions", {}, {"x": 1.0, "x_min": 0.1, "x_max": 2.0})

    def test_missing_axis_rejected(self):
        with pytest.raises(ValueError, match="--x"):
            _assemble("functions", {}, {})


class TestRun:
    def test_functions_row_matches_library(self):
        config = _assemble("functions", {}, {"x": 1.0, "family": "g"})
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
        config = _assemble("dispersion", {}, {
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
        config = _assemble("charge", {}, {
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
        config = _assemble("reflection", {}, {
            "omega": 2.0, "k0": 1.0, "kpar_min": 0.5, "kpar_max": 1.5,
            "count": 3})
        table, status = run(config)
        assert status == 1
        assert "OnLightConeError" in table.rows[1][3]
        assert table.rows[0][3] == table.rows[2][3] == ""

    def test_bad_fixed_parameter_raises_before_rows(self):
        config = _assemble("sphere", {}, {"k0r": 1.0, "l": 0})
        with pytest.raises(ValueError):
            run(config)


class TestCsvOutput:
    def test_header_names_stable(self):
        config = _assemble("reflection", {}, {"kpar": 0.5})
        table, _ = run(config)
        text = table_to_csv_text(table)
        header = data_section(text).splitlines()[0]
        assert header == "kpar,rTE_re,rTE_im,rTM_re,rTM_im,error"

    def test_metadata_preamble_before_data(self):
        config = _assemble("functions", {}, {"x": 1.0})
        table, _ = run(config)
        lines = table_to_csv_text(table).splitlines()
        assert lines[0].startswith("# command: functions")
        assert any(line.startswith("# tolerance:") for line in lines)

    def test_error_row_uses_nan_cells(self):
        config = _assemble("charge", {}, {"omega_a": 0.0, "p23": 1.0})
        table, status = run(config)
        assert status == 1
        data_row = data_section(table_to_csv_text(table)).splitlines()[1]
        cells = data_row.split(",")
        assert cells[1] == "nan" and cells[2] == "nan"
        assert "diverges" in data_row

    def test_identical_config_gives_identical_bytes(self):
        overrides = {"omega_a_min": 0.1, "omega_a_max": 10.0,
                     "count": 3, "scale": "log"}
        first, _ = run(_assemble("casimir", {}, dict(overrides)))
        second, _ = run(_assemble("casimir", {}, dict(overrides)))
        assert table_to_csv_text(first) == table_to_csv_text(second)


class TestJsonOutput:
    def test_round_trip_reproduces_values(self):
        config = _assemble("sphere", {}, {
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
        config = _assemble("charge", {}, {"omega_a": 0.0, "p23": 1.0})
        table, _ = run(config)
        parsed = json.loads(table_to_json_text(table))
        assert parsed["rows"][0][1] is None
        assert "diverges" in parsed["rows"][0][3]


class TestMain:
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

        monkeypatch.setattr(polder, "g_tm", broken)
        assert main(["functions", "--family", "f", "--x", "1"]) == 0
        assert "x,fTE,fTM,error" in capsys.readouterr().out

    def test_readme_examples_exit_zero(self, monkeypatch, capsys):
        monkeypatch.delenv(TOLERANCE_ENV_VAR, raising=False)
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        commands = [shlex.split(line)[1:] for block in blocks
                    for line in block.splitlines()
                    if line.startswith("plasmasheet ")]
        assert len(commands) >= 7
        for argv in commands:
            assert main(argv) == 0, " ".join(argv)
            capsys.readouterr()

    def test_config_file_flag_precedence(self, tmp_path, capsys):
        path = tmp_path / "sweep.conf"
        path.write_text("omega=2\nkpar=1\n")
        status = main(["dispersion", "--config", str(path), "--omega", "3"])
        assert status == 0
        out = capsys.readouterr().out
        assert "# omega: 3" in out


class TestSweepTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            SweepTable(columns=("x", "error"), kinds=("float", "error"),
                       rows=((1.0, 2.0, ""),), metadata={})
