"""The CSV and JSON writers against the cell-by-cell writers they replaced.

``oracle_csv`` and ``oracle_json`` are the writers as they were before each
row became one ``%`` call of a row template; the output must not change by
a byte.
"""

import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from plasmasheet import cli
from plasmasheet.cli import (
    SweepTable,
    main,
    table_to_csv_text,
    table_to_json_text,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _oracle_float(value):
    return "%.17g" % float(value)


def _oracle_metadata_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _oracle_float(value)
    return str(value)


def oracle_csv(table):
    buffer = io.StringIO()
    for key, value in table.metadata.items():
        buffer.write(f"# {key}: {_oracle_metadata_text(value)}\r\n")
    writer = csv.writer(buffer)
    header = []
    for name, kind in zip(table.columns, table.kinds):
        if kind == "complex":
            header += [name + "_re", name + "_im"]
        else:
            header.append(name)
    writer.writerow(header)
    for row in table.rows:
        cells = []
        for kind, cell in zip(table.kinds, row):
            if kind == "error":
                cells.append(cell)
            elif cell is None:
                cells += ["nan", "nan"] if kind == "complex" else ["nan"]
            elif kind == "complex":
                cells += [_oracle_float(cell.real), _oracle_float(cell.imag)]
            else:
                cells.append(_oracle_float(cell))
        writer.writerow(cells)
    return buffer.getvalue()


def oracle_json(table):
    rows = []
    for row in table.rows:
        cells = []
        for kind, cell in zip(table.kinds, row):
            if kind == "error":
                cells.append(cell)
            elif cell is None:
                cells.append(None)
            elif kind == "complex":
                cells.append([cell.real, cell.imag])
            else:
                cells.append(float(cell))
        rows.append(cells)
    document = {"metadata": table.metadata, "columns": list(table.columns),
                "rows": rows}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def assert_same_bytes(table):
    assert table_to_csv_text(table) == oracle_csv(table)
    assert table_to_json_text(table) == oracle_json(table)


def table_of(argv, monkeypatch):
    """The table main() hands to the writer, and main's exit status."""
    seen = []

    def keep(table):
        seen.append(table)
        return ""

    monkeypatch.setattr(cli, "table_to_csv_text", keep)
    monkeypatch.setattr(cli, "table_to_json_text", keep)
    status = main(argv)
    assert len(seen) == 1
    return seen[0], status


def readme_sweeps():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("plasmasheet ")]


def table(kinds, rows, metadata=None):
    columns = tuple(f"c{i}" for i in range(len(kinds) - 1)) + ("error",)
    return SweepTable(columns=columns, kinds=kinds, rows=tuple(rows),
                      metadata={"command": "test"} if metadata is None
                      else metadata)


FLOAT = ("float", "float", "error")
COMPLEX = ("float", "complex", "float", "error")


class TestSweepsKeepTheirBytes:
    @pytest.mark.parametrize("argv", readme_sweeps(), ids=" ".join)
    def test_readme_sweep(self, argv, monkeypatch):
        sweep, status = table_of(argv, monkeypatch)
        assert status == 0
        assert_same_bytes(sweep)

    @pytest.mark.parametrize("argv", [
        "reflection --omega 1 --k0 1.5 --kpar-min 0.5 --kpar-max 2.5 "
        "--count 9",
        "sphere --l 200 --omega-r 2 --k0r-min 1e-6 --k0r-max 30 --count 50",
    ])
    def test_sweep_with_failed_rows_mid_table(self, argv, monkeypatch):
        sweep, status = table_of(argv.split(), monkeypatch)
        assert status == 1
        failed = [i for i, row in enumerate(sweep.rows) if row[-1]]
        assert failed and failed[-1] < len(sweep.rows) - 1
        assert_same_bytes(sweep)


class TestHandBuiltTables:
    @pytest.mark.parametrize("message", [
        "ValueError: a, b", 'SheetModelError: say "no"',
        "ToleranceNotMet: line one\nline two", "CR\rhere", "plain",
    ])
    def test_failed_row_message_keeps_its_quoting(self, message):
        rows = [(0.5, 1.25, ""), (1.0, None, message), (1.5, 2.0, "")]
        assert_same_bytes(table(FLOAT, rows))
        rows = [(0.5, 1 + 2j, 3.0, ""), (1.0, None, None, message)]
        assert_same_bytes(table(COMPLEX, rows))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cells(self, bad):
        assert_same_bytes(table(FLOAT, [(0.1, 0.2, ""), (bad, 1.0, ""),
                                        (0.3, bad, "")]))
        assert_same_bytes(table(COMPLEX, [
            (0.1, complex(bad, 1.0), 2.0, ""),
            (0.2, complex(1.0, bad), 2.0, ""),
            (0.3, 1j, bad, ""),
            (0.4, 0.5 - 0.25j, 2.0, ""),
        ]))

    def test_numpy_and_int_cells(self):
        assert_same_bytes(table(FLOAT, [
            (np.float64(0.1), 2, ""), (3, np.float64(1e-300), ""),
            (True, np.float32(0.1), ""), (0.1, 0.2, ""), (3, 0.5, ""),
            (0.5, False, ""),
        ]))
        assert_same_bytes(table(COMPLEX, [
            (np.float64(0.1), np.complex128(1 - 2j), 1, ""),
            (1, 2, np.float64(-0.0), ""), (0.5, 1.5, 2.5, ""),
            (0.25, np.float64(3.0), 4.0, ""),
        ]))

    def test_float_edges(self):
        assert_same_bytes(table(COMPLEX, [
            (-0.0, complex(-0.0, 0.0), 5e-324, ""),
            (1e300, complex(1e-300, -1e300), 1 / 3, ""),
            (2.0**53 + 1, complex(0.1, -0.2), 123456789.125, ""),
        ]))

    @pytest.mark.parametrize("value", [True, False, None, "word, with comma",
                                       0.1, 2.5e-17, 3])
    def test_metadata_values(self, value):
        assert_same_bytes(table(FLOAT, [(0.1, 0.2, "")],
                                metadata={"zeta": value, "alpha": 1.0}))

    def test_empty_table(self):
        empty = SweepTable(columns=(), kinds=(), rows=(), metadata={})
        assert_same_bytes(empty)
        assert '"rows": []' in table_to_json_text(empty)

    def test_tables_no_template_fits(self):
        assert_same_bytes(SweepTable(columns=("error",), kinds=("error",),
                                     rows=(("",), ("x",)), metadata={}))
        assert_same_bytes(SweepTable(
            columns=("x", "error", "y"), kinds=("float", "error", "float"),
            rows=((0.1, "", 0.2), (0.3, "a, b", None)), metadata={}))
        assert_same_bytes(SweepTable(
            columns=("x", "note", "error"), kinds=("float", "error", "error"),
            rows=((0.1, "a, b", ""), (0.3, "", "")), metadata={}))
        assert_same_bytes(SweepTable(columns=("x",), kinds=("float",),
                                     rows=((0.1,),), metadata={}))
