"""Command-line front end: parameter sweeps over the sheet-model operations.

Each subcommand sweeps one axis and writes a machine-readable table (CSV
with a '#'-comment metadata preamble, or JSON with a metadata object).
Each runner takes the whole axis as an array and returns one array per
output column. The quadrature runners (casimir, casimir-polder and
functions) pass a fixed chunk of points at a time, and refine each point
alone inside it; charge is in closed form and takes the whole axis. So no
cell depends on the other points. Output is fully deterministic: identical
configuration produces identical bytes, so no wall-clock timestamps are
recorded. When a runner call raises a physics
error, the array is split in halves until the point that raises stands
alone. Rows that raise stay in the table with blank output cells and the
message in the final 'error' column, and any such row turns the exit status
to 1. Invalid configuration exits with status 2 before any row is computed.
Each writer builds one %-format row template per table from its column
kinds and writes every successful row with a single % call; failed rows, and
JSON rows the template cannot render exactly, are written cell by cell.

Every option of a command is one ParamSpec row of its option table
(`_options`): the row adds the long flag to the parser, names the config-file
key (hyphens or underscores), parses the file value, and gives the default.
A RunConfig built without the CLI takes the same defaults for the fixed
parameters it leaves out.

Lengths are in user-chosen base units (the model is scale covariant);
default output columns are dimensionless combinations where one exists, and
--raw-units adds the dimensionful values where they differ.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .casimir import reduced_energy_and_pressure
from .errors import SheetModelError
from .numerics import MAX_RTOL, MIN_RTOL, divide_by_power
from .polder import (
    AtomProperties,
    casimir_polder_energies,
    charge_sheet_energies,
    reduction_function_columns,
)
from .sheet import (
    SheetParameters,
    reflection_coefficients,
    tm_plasmon_closed,
    tm_plasmon_root,
)
from .sphere import SphericalShell, jost_te, jost_tm

# Unused here but stay bound: perfbench/tracing.py wraps them by name.
from .casimir import lifshitz_pressure, reduced_energy_parts  # noqa: F401
from .polder import (  # noqa: F401
    casimir_polder_energy,
    charge_sheet_energy,
    reduction_functions,
)
from .sheet import reflection_te, reflection_tm  # noqa: F401

__all__ = [
    "DEFAULT_TOLERANCE",
    "RunConfig",
    "SweepSpec",
    "SweepTable",
    "load_config",
    "run",
    "main",
    "table_to_csv_text",
    "table_to_json_text",
]

DEFAULT_TOLERANCE = 1e-8
DEFAULT_COUNT = 50


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis: closed range, point count, and grid spacing."""

    axis: str
    minimum: float
    maximum: float
    count: int = 1
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sweep count must be >= 1")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError("sweep bounds must be finite")
        if self.count > 1 and not self.minimum < self.maximum:
            raise ValueError("sweep needs minimum < maximum for count > 1")
        if self.count == 1 and self.minimum != self.maximum:
            raise ValueError("sweep count 1 needs minimum == maximum")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be 'linear' or 'log'")
        if self.scale == "log" and self.minimum <= 0.0:
            raise ValueError("log scale needs a positive minimum")

    def values(self):
        if self.count == 1:
            return [float(self.minimum)]
        if self.scale == "log":
            grid = np.geomspace(self.minimum, self.maximum, self.count)
        else:
            grid = np.linspace(self.minimum, self.maximum, self.count)
        return [float(v) for v in grid]


@dataclass(frozen=True)
class SweepTable:
    """Rectangular sweep output: logical columns, rows, and a config echo.

    Cells are floats, complex values, or None for the blanked outputs of a
    failed row; the last column is the error message (empty on success).
    """

    columns: tuple
    kinds: tuple
    rows: tuple
    metadata: dict

    def __post_init__(self):
        if len(self.columns) != len(self.kinds):
            raise ValueError("columns and kinds must align")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must be rectangular")


@dataclass(frozen=True)
class ParamSpec:
    """One option of a command: a long flag and a config-file key.

    ``parse`` turns the option's text into its value: ``_finite``, ``int``,
    ``str``, ``_flag`` or ``_choice(...)``. ``default`` is the value when the
    option is not given; None leaves it unset.
    """

    name: str
    parse: object
    default: object
    help: str
    metavar: str = None


def _finite(text):
    """Float of an option's text; nan and the infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        # argparse prints this message after the flag's name
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _flag(text):
    """Boolean of a config-file value; on the command line a bare switch."""
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _choice(*choices):
    """Parser that accepts only the given strings."""
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text

    parse.choices = choices
    return parse


def _build_reflection(fixed, tolerance):
    sheet = SheetParameters(omega=fixed["omega"])
    k0 = fixed["k0"]

    def runner(kpar):
        return reflection_coefficients(k0, kpar, sheet)

    return [("rTE", "complex"), ("rTM", "complex")], runner


def _build_dispersion(fixed, tolerance):
    if not fixed["omega"] > 0.0:
        # every row would fail: the plasmon branch needs omega > 0
        raise ValueError("omega must be positive")
    sheet = SheetParameters(omega=fixed["omega"])

    def runner(kpar):
        closed = tm_plasmon_closed(kpar, sheet)
        root = tm_plasmon_root(kpar, sheet)
        return closed, root, np.abs(closed - root) / closed

    return ([("k0_closed", "float"), ("k0_root", "float"),
             ("residual", "float")], runner)


def _build_casimir(fixed, tolerance):
    a = fixed["a"]
    if not a > 0.0:
        raise ValueError("a must be positive")
    raw = fixed["raw_units"]

    def runner(x):
        # energy, shares and pressure from one quadrature pass per chunk
        te, tm, pressure = reduced_energy_and_pressure(x, rtol=tolerance)
        total = te + tm
        lit = total != 0.0
        cells = (total, np.divide(te, total, out=np.zeros_like(te), where=lit),
                 np.divide(tm, total, out=np.ones_like(tm), where=lit))
        if raw:
            cells += (divide_by_power(total, a, 3),
                      divide_by_power(pressure, a, 4))
        return cells

    columns = [("a3_energy", "float"), ("te_share", "float"),
               ("tm_share", "float")]
    if raw:
        columns += [("energy_per_area", "float"), ("pressure", "float")]
    return columns, runner


def _atom_from(fixed):
    if fixed["isotropic_alpha"] is not None:
        return AtomProperties.isotropic(fixed["isotropic_alpha"],
                                        e=fixed["e"], m=fixed["m"])
    return AtomProperties(e=fixed["e"], m=fixed["m"], alpha1=fixed["alpha1"],
                          alpha2=fixed["alpha2"], alpha3=fixed["alpha3"])


def _build_casimir_polder(fixed, tolerance):
    a = fixed["a"]
    if not a > 0.0:
        raise ValueError("a must be positive")
    atom = _atom_from(fixed)
    raw = fixed["raw_units"]

    def runner(x):
        # a^4 E depends on x alone: the energy at unit distance
        reduced = casimir_polder_energies(1.0, x, atom, rtol=tolerance)
        return (reduced, divide_by_power(reduced, a, 4)) if raw else (reduced,)

    columns = [("a4_energy", "float")]
    if raw:
        columns.append(("energy", "float"))
    return columns, runner


def _build_charge(fixed, tolerance):
    a = fixed["a"]
    if not a > 0.0:
        raise ValueError("a must be positive")
    atom = AtomProperties(e=fixed["e"], m=fixed["m"], p2par=fixed["p2par"],
                          p23=fixed["p23"])

    def runner(x):
        return charge_sheet_energies(a, x, atom)

    return [("electrostatic", "float"), ("kinetic", "float")], runner


def _build_sphere(fixed, tolerance):
    l = fixed["l"]
    if l < 1:
        raise ValueError("l must be >= 1")
    radius, omega_r = fixed["radius"], fixed["omega_r"]
    # checked here, not by SphericalShell, to name the options given
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if not omega_r >= 0.0:
        raise ValueError("omega_r must be nonnegative")
    omega = omega_r / radius
    if omega == math.inf:
        raise ValueError(f"omega_r / radius = {omega_r!r} / {radius!r} "
                         "is beyond the float range")
    shell = SphericalShell(radius=radius, omega=omega)

    def runner(k0r):
        k0 = k0r / radius
        return (jost_te(l, k0, shell), jost_tm(l, k0, shell))

    return [("gTE", "complex"), ("gTM", "complex")], runner


_FAMILY_COLUMNS = {
    "f": ("fTE", "fTM"),
    "h": ("hPar", "h3"),
    "g": ("gTE", "gTM", "g3"),
}


def _build_functions(fixed, tolerance):
    family = fixed["family"]
    if family == "all":
        names = (_FAMILY_COLUMNS["f"] + _FAMILY_COLUMNS["h"]
                 + _FAMILY_COLUMNS["g"])
    else:
        names = _FAMILY_COLUMNS[family]

    def runner(x):
        return reduction_function_columns(x, rtol=tolerance, names=names)

    return [(name, "float") for name in names], runner


@dataclass(frozen=True)
class CommandSpec:
    axis: str
    help: str
    fixed: tuple
    build: object


COMMANDS = {
    "reflection": CommandSpec(
        axis="kpar",
        help="reflection coefficients rTE, rTM against parallel momentum",
        fixed=(
            ParamSpec("omega", _finite, 1.0, "sheet coupling Omega"),
            ParamSpec("k0", _finite, 1.0, "frequency held fixed in the sweep"),
        ),
        build=_build_reflection,
    ),
    "dispersion": CommandSpec(
        axis="kpar",
        help="TM surface-plasmon frequency, closed form vs root finder",
        fixed=(
            ParamSpec("omega", _finite, 1.0, "sheet coupling Omega"),
        ),
        build=_build_dispersion,
    ),
    "casimir": CommandSpec(
        axis="omega_a",
        help="two-sheet energy a^3 E per area against the coupling Omega a",
        fixed=(
            ParamSpec("a", _finite, 1.0, "sheet separation"),
            ParamSpec("raw_units", _flag, False,
                      "add energy-per-area and pressure columns at this a"),
        ),
        build=_build_casimir,
    ),
    "casimir-polder": CommandSpec(
        axis="omega_a",
        help="atom-sheet energy shift a^4 E against the coupling Omega a",
        fixed=(
            ParamSpec("a", _finite, 1.0, "atom-sheet distance"),
            ParamSpec("isotropic_alpha", _finite, None,
                      "isotropic polarizability (overrides alpha1..alpha3)"),
            ParamSpec("alpha1", _finite, 0.0, "in-plane polarizability"),
            ParamSpec("alpha2", _finite, 0.0, "in-plane polarizability"),
            ParamSpec("alpha3", _finite, 0.0, "normal polarizability"),
            ParamSpec("e", _finite, 1.0, "charge"),
            ParamSpec("m", _finite, 1.0, "mass"),
            ParamSpec("raw_units", _flag, False,
                      "add the dimensionful energy column at this a"),
        ),
        build=_build_casimir_polder,
    ),
    "charge": CommandSpec(
        axis="omega_a",
        help="charge-sheet energy, electrostatic and kinetic parts",
        fixed=(
            ParamSpec("a", _finite, 1.0, "charge-sheet distance"),
            ParamSpec("e", _finite, 1.0, "charge"),
            ParamSpec("m", _finite, 1.0, "mass"),
            ParamSpec("p2par", _finite, 0.0, "in-plane momentum expectation"),
            ParamSpec("p23", _finite, 0.0, "normal momentum expectation"),
        ),
        build=_build_charge,
    ),
    "sphere": CommandSpec(
        axis="k0r",
        help="spherical-shell Jost functions gTE, gTM against k0 R",
        fixed=(
            ParamSpec("l", int, 1, "partial-wave order (>= 1)"),
            ParamSpec("omega_r", _finite, 1.0, "shell coupling Omega R"),
            ParamSpec("radius", _finite, 1.0, "shell radius"),
        ),
        build=_build_sphere,
    ),
    "functions": CommandSpec(
        axis="x",
        help="reduction functions of the coupling x = Omega a",
        fixed=(
            ParamSpec("family", _choice("f", "h", "g", "all"), "all",
                      "which family to tabulate"),
        ),
        build=_build_functions,
    ),
}


@functools.cache
def _options(command):
    """Every option of a command, in --help order."""
    spec = COMMANDS[command]
    axis = spec.axis
    return (
        ParamSpec(axis, _finite, None, f"evaluate at a single {axis} value",
                  "VALUE"),
        ParamSpec(axis + "_min", _finite, None, "sweep range lower end",
                  "MIN"),
        ParamSpec(axis + "_max", _finite, None, "sweep range upper end",
                  "MAX"),
        ParamSpec("count", int, None,
                  f"number of sweep points (default {DEFAULT_COUNT})"),
        ParamSpec("scale", _choice("linear", "log"), "linear", "grid spacing"),
        *spec.fixed,
        ParamSpec("tolerance", _finite, DEFAULT_TOLERANCE,
                  f"relative tolerance for quadratures, in "
                  f"[{MIN_RTOL:g}, {MAX_RTOL:g}]"),
        ParamSpec("format", _choice("csv", "json"), "csv", "output format"),
        ParamSpec("output", str, "-", "output path, or - for stdout", "PATH"),
    )


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run: command, sweep, fixed parameters, output options.

    Fixed parameters left out of ``fixed`` take their ParamSpec defaults.
    """

    command: str
    sweep: SweepSpec
    fixed: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_TOLERANCE
    fmt: str = "csv"
    output: str = "-"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not MIN_RTOL <= self.tolerance <= MAX_RTOL:
            raise ValueError(f"tolerance must be in [{MIN_RTOL:g}, "
                             f"{MAX_RTOL:g}], got {self.tolerance:g}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        spec = COMMANDS[self.command]
        if self.sweep.axis != spec.axis:
            raise ValueError(f"{self.command} sweeps {spec.axis!r}, "
                             f"not {self.sweep.axis!r}")
        defaults = {p.name: p.default for p in spec.fixed}
        for name in self.fixed:
            if name not in defaults:
                raise ValueError(f"unknown parameter {name!r} "
                                 f"for {self.command}")
        object.__setattr__(self, "fixed", {**defaults, **self.fixed})


def _read_key_values(path):
    entries = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            entries.append((lineno, key.strip().replace("-", "_"),
                            value.strip()))
    return entries


def _assemble(command, given):
    """RunConfig from parsed option values; options not given take defaults."""
    spec = COMMANDS[command]
    options = {option.name: option for option in _options(command)}

    def setting(name):
        return given.get(name, options[name].default)

    axis_flag = "--" + spec.axis.replace("_", "-")
    single = setting(spec.axis)
    low = setting(spec.axis + "_min")
    high = setting(spec.axis + "_max")
    count = setting("count")
    if single is not None:
        if low is not None or high is not None:
            raise ValueError(f"give either {axis_flag} or {axis_flag}-min/"
                             f"{axis_flag}-max, not both")
        if count is not None and count != 1:
            raise ValueError(f"count must be 1 when {axis_flag} fixes "
                             "a single value")
        if setting("scale") != "linear":
            raise ValueError(f"scale must be linear when {axis_flag} fixes "
                             "a single value")
        sweep = SweepSpec(spec.axis, single, single, 1, "linear")
    else:
        if low is None or high is None:
            raise ValueError(f"missing sweep axis: give {axis_flag}, or both "
                             f"{axis_flag}-min and {axis_flag}-max")
        sweep = SweepSpec(spec.axis, low, high,
                          DEFAULT_COUNT if count is None else count,
                          setting("scale"))

    fixed = {p.name: given[p.name] for p in spec.fixed if p.name in given}
    return RunConfig(command=command, sweep=sweep, fixed=fixed,
                     tolerance=setting("tolerance"), fmt=setting("format"),
                     output=setting("output"))


def load_config(path, command=None, overrides=None):
    """RunConfig from a key=value file; override values win over the file.

    The file may set any long option of the command (hyphens or underscores)
    plus 'command' itself, which must agree with ``command`` when both are
    given; unknown keys, unparseable values and a disagreeing command are
    reported with the file name, line, and key. A key given twice takes its
    last line. ``overrides`` maps option names to parsed values.
    """
    entries = _read_key_values(path)
    file_command = None
    data = {}
    for lineno, key, value in entries:
        if key == "command":
            file_command = (lineno, value)
        else:
            data[key] = (lineno, value)

    lineno = 0
    if file_command is not None:
        lineno, named = file_command
        if command is None:
            command = named
        elif named != command:
            raise ValueError(f"{path}:{lineno}: config file sets command "
                             f"{named!r}, but the run is {command!r}")
    if command is None:
        raise ValueError(f"{path}: config file does not set 'command'")
    if command not in COMMANDS:
        raise ValueError(f"{path}:{lineno}: unknown command {command!r}")

    options = {option.name: option for option in _options(command)}
    given = {}
    for key, (lineno, text) in sorted(data.items(), key=lambda kv: kv[1][0]):
        if key not in options:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            given[key] = options[key].parse(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(
                f"{path}:{lineno}: config key {key!r}: {exc}") from None
    given.update(overrides or {})
    return _assemble(command, given)


def _describe(exc):
    message = str(exc)
    name = type(exc).__name__
    return f"{name}: {message}" if message else name


def _metadata(config):
    meta = {
        "command": config.command,
        "axis": config.sweep.axis,
        "axis_min": config.sweep.minimum,
        "axis_max": config.sweep.maximum,
        "count": config.sweep.count,
        "scale": config.sweep.scale,
    }
    for name in sorted(config.fixed):
        meta[name] = config.fixed[name]
    meta["tolerance"] = config.tolerance
    meta["format"] = config.fmt
    meta["version"] = __version__
    return meta


def _array_rows(runner, values, width):
    """Table rows of an array runner on an axis array.

    A call that raises a physics error is split into halves, down to single
    points: the clean parts stay array calls, and only a point that raises
    on its own gets blank outputs and the message in its 'error' cell,
    which is never empty (_describe).
    """
    try:
        columns = [np.asarray(column).tolist() for column in runner(values)]
    except (SheetModelError, ValueError) as exc:
        if len(values) == 1:
            return [(float(values[0]),) + (None,) * width
                    + (_describe(exc),)]
        middle = len(values) // 2
        return (_array_rows(runner, values[:middle], width)
                + _array_rows(runner, values[middle:], width))
    return [cells + ("",) for cells in zip(values.tolist(), *columns)]


def run(config):
    """Evaluate the sweep; returns (SweepTable, exit status).

    Bad fixed parameters raise ValueError before any row is computed. The
    runner gets the whole axis at once. A physics error blanks only the
    outputs of the point that raises, records the message, and sets the
    exit status to 1 without stopping the sweep.
    """
    spec = COMMANDS[config.command]
    columns, runner = spec.build(config.fixed, config.tolerance)
    names = (config.sweep.axis,) + tuple(n for n, _ in columns) + ("error",)
    kinds = ("float",) + tuple(k for _, k in columns) + ("error",)

    values = np.array(config.sweep.values())
    rows = _array_rows(runner, values, len(columns))
    table = SweepTable(columns=names, kinds=kinds, rows=tuple(rows),
                       metadata=_metadata(config))
    return table, int(any(row[-1] for row in rows))


def _format_float(value):
    return "%.17g" % float(value)


def _metadata_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _templated(kinds):
    """Whether row templates fit a table of these kinds.

    They need one error column, the last, after at least one output column
    (csv quotes a row that is one empty field).
    """
    return len(kinds) > 1 and kinds[-1] == "error" and "error" not in kinds[:-1]


def _row_template(kinds, cell, pair, separator):
    """One conversion per output cell: ``pair`` for complex, ``cell`` else."""
    return separator.join(pair if kind == "complex" else cell
                          for kind in kinds[:-1])


def _template_args(kinds, rows):
    """Row-template arguments of the rows, built a column at a time.

    They are a row's output cells, with each complex cell split into its
    real and imaginary parts.
    """
    columns = list(zip(*rows))[:-1]
    for i in reversed(range(len(columns))):
        if kinds[i] == "complex":
            cells = columns[i]
            columns[i:i + 1] = [z.real for z in cells], [z.imag for z in cells]
    return zip(*columns)


def _csv_line(cells):
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()


def _csv_cells(kinds, row):
    cells = []
    for kind, cell in zip(kinds, row):
        if kind == "error":
            cells.append(cell)
        elif cell is None:
            cells += ["nan", "nan"] if kind == "complex" else ["nan"]
        elif kind == "complex":
            cells += [_format_float(cell.real), _format_float(cell.imag)]
        else:
            cells.append(_format_float(cell))
    return cells


def table_to_csv_text(table):
    """RFC-4180 CSV with '#'-comment metadata lines above the data section.

    A row with an empty error cell is one ``%`` call of the table's row
    template; a failed row goes through csv.writer, which quotes its message.
    """
    kinds = table.kinds
    lines = [f"# {key}: {_metadata_text(value)}\r\n"
             for key, value in table.metadata.items()]
    header = []
    for name, kind in zip(table.columns, kinds):
        header += [name + "_re", name + "_im"] if kind == "complex" else [name]
    lines.append(_csv_line(header))
    templated = _templated(kinds)
    fits = [templated and row[-1] == "" for row in table.rows]
    args = _template_args(kinds, itertools.compress(table.rows, fits))
    template = _row_template(kinds, "%.17g", "%.17g,%.17g", ",") + ",\r\n"
    for row, fit in zip(table.rows, fits):
        lines.append(template % next(args) if fit
                     else _csv_line(_csv_cells(kinds, row)))
    return "".join(lines)


def _json_cells(kinds, row):
    cells = []
    for kind, cell in zip(kinds, row):
        if kind == "error":
            cells.append(cell)
        elif cell is None:
            cells.append(None)
        elif kind == "complex":
            cells.append([cell.real, cell.imag])
        else:
            cells.append(float(cell))
    return cells


def table_to_json_text(table):
    """JSON document {metadata, columns, rows}; complex cells as [re, im].

    The layout is that of ``json.dumps(..., indent=2, sort_keys=True)``. A
    row template reproduces it for a row with an empty error cell whose
    other cells are finite Python floats and complex numbers, for which
    ``%r`` is json's float text; any other row goes through json.dumps.
    """
    kinds = table.kinds
    head = json.dumps({"columns": list(table.columns),
                       "metadata": table.metadata, "rows": []},
                      indent=2, sort_keys=True)
    if not table.rows:
        return head + "\n"
    templated = _templated(kinds)
    types = tuple(complex if kind == "complex" else float
                  for kind in kinds[:-1]) + (str,)
    fits = [templated and row[-1] == "" and tuple(map(type, row)) == types
            for row in table.rows]
    args = _template_args(kinds, itertools.compress(table.rows, fits))
    template = ("    [\n"
                + _row_template(kinds, "      %r",
                                "      [\n        %r,\n        %r\n      ]",
                                ",\n")
                + ',\n      ""\n    ]')
    lines = []
    for row, fit in zip(table.rows, fits):
        text = template % next(args) if fit else None
        # a finite float's repr holds no "n"; "nan" and "inf" both do
        if text is None or "n" in text:
            cells = json.dumps(_json_cells(kinds, row), indent=2)
            text = "    " + cells.replace("\n", "\n    ")
        lines.append(text)
    # "rows" sorts last, so the document ends in its empty list
    return head[:-len("[]\n}")] + "[\n" + ",\n".join(lines) + "\n  ]\n}\n"


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="plasmasheet",
        description="Parameter sweeps over the plasma-sheet model: "
                    "reflection, plasmon dispersion, Casimir and "
                    "Casimir-Polder energies, charge-sheet energy, "
                    "spherical-shell Jost functions.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    for name, spec in COMMANDS.items():
        sub = subparsers.add_parser(name, help=spec.help,
                                    description=spec.help)
        for option in _options(name):
            flag = "--" + option.name.replace("_", "-")
            if option.parse is _flag:
                sub.add_argument(flag, action="store_true", default=None,
                                 help=option.help)
                continue
            choices = getattr(option.parse, "choices", None)
            sub.add_argument(
                flag, type=None if choices else option.parse, choices=choices,
                metavar=option.metavar,
                help=option.help if option.default is None
                else f"{option.help} (default {option.default})")
        sub.add_argument("--config", metavar="PATH",
                         help="key=value file; explicit flags override it")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = vars(args)
    given = {option.name: flags[option.name]
             for option in _options(args.command)
             if flags[option.name] is not None}

    try:
        if args.config is not None:
            config = load_config(args.config, command=args.command,
                                 overrides=given)
        else:
            config = _assemble(args.command, given)
        table, status = run(config)
        text = (table_to_csv_text(table) if config.fmt == "csv"
                else table_to_json_text(table))
        if config.output == "-":
            sys.stdout.write(text)
        else:
            with open(config.output, "w", encoding="utf-8",
                      newline="") as handle:
                handle.write(text)
    except (ValueError, OSError) as exc:
        print(f"plasmasheet: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
