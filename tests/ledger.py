"""The value ledger: every cell of the README's plasmasheet command lines,
and the Casimir routes on the x-lattice.

readme_ledger.json, next to this file, holds the columns and rows of the
JSON output of each `plasmasheet ...` line of the README, in README order,
and then, for each Casimir route, (x, te, tm, pressure) at the 73 couplings
x = 10^(k/4), k in [-24, 48], written %.17g. test_ledger.py reruns each
line and route and compares its cells with the ledger.
After a change that moves cells on purpose, rewrite the ledger with

    PYTHONPATH=src python tests/ledger.py

which prints each moved cell as `old -> new`, so the change can name them.
"""

import contextlib
import io
import json
import pathlib
import shlex

import numpy as np

from plasmasheet import casimir
from plasmasheet.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent
LEDGER = HERE / "readme_ledger.json"
README = HERE.parent / "README.md"
PREFIX = "plasmasheet "
LATTICE = np.array([10.0 ** (k / 4) for k in range(-24, 49)])
# ledger name -> route; each returns (te, tm, pressure) arrays for an array x
LATTICE_ROUTES = {
    "casimir lattice: reduced_energy_and_pressure":
        casimir.reduced_energy_and_pressure,
    "casimir lattice: reduced_energy_and_pressure_nested":
        casimir.reduced_energy_and_pressure_nested,
}


def readme_commands():
    """The arguments of each README line that runs plasmasheet."""
    return [line[len(PREFIX):].strip()
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith(PREFIX)]


def run(command):
    """{"columns": [...], "rows": [...]} of one command, run in-process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli_main(shlex.split(command) + ["--format", "json"])
    if status != 0:
        raise RuntimeError(f"plasmasheet {command} exited {status}")
    document = json.loads(buffer.getvalue())
    return {"columns": document["columns"], "rows": document["rows"]}


def names():
    """The ledger's entries, in order: the README lines, then the routes."""
    return readme_commands() + list(LATTICE_ROUTES)


def compute(name):
    """The table of one ledger entry, computed now."""
    route = LATTICE_ROUTES.get(name)
    if route is None:
        return run(name)
    columns = zip(LATTICE, *route(LATTICE))
    return {"columns": ["x", "te", "tm", "pressure"],
            "rows": [[float(cell) for cell in row] for row in columns]}


def _row_text(name, row):
    if name in LATTICE_ROUTES:
        return "[" + ", ".join(f"{cell:.17g}" for cell in row) + "]"
    return json.dumps(row)


def load():
    """The ledger, keyed by command."""
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def dump(ledger):
    """The ledger as JSON text with one row per line; every float reads
    back to the same double: the shortest such text in a README line, %.17g
    on the lattice."""
    blocks = []
    for command, table in ledger.items():
        rows = ",\n".join("   " + _row_text(command, row)
                           for row in table["rows"])
        blocks.append(f" {json.dumps(command)}: {{\n"
                      f"  \"columns\": {json.dumps(table['columns'])},\n"
                      f"  \"rows\": [\n{rows}\n  ]\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def changed_cells(old, new):
    """(row, column, old cell, new cell) of each cell whose value moved."""
    for i, (before, after) in enumerate(zip(old["rows"], new["rows"])):
        for column, x, y in zip(new["columns"], before, after):
            if x != y:
                yield i, column, x, y


def main():
    old = load() if LEDGER.exists() else {}
    new = {name: compute(name) for name in names()}
    for command, table in new.items():
        before = old.get(command)
        if before is None:
            print(f"{command}: new")
        elif (before["columns"] != table["columns"]
              or len(before["rows"]) != len(table["rows"])):
            print(f"{command}: columns or row count changed")
        else:
            for i, column, x, y in changed_cells(before, table):
                print(f"{command}: row {i} {column}: {x} -> {y}")
    for command in old.keys() - new.keys():
        print(f"{command}: dropped")
    LEDGER.write_text(dump(new), encoding="utf-8")


if __name__ == "__main__":
    main()
