"""Execute one benchmark operation and check every row it produced.

Rows are checked against the committed mpmath references (shape functions,
Casimir energy parts and pressure, on the lattice of workloads.py) or against
identities the results must satisfy: the two plasmon routes agree, the two
Jost routes agree to the library's path bound, TE and TM shares sum to one,
the reflection coefficients satisfy
(1 - rTE)(1 - rTM) = -(4 k0^2/Omega^2) rTE rTM, and the charge-sheet energy
matches its closed form in h_par(x) = 2 + 1/x - x e^x E1(x).

Import this module only after the program's source directory is on sys.path.
"""

import contextlib
import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import mpmath

from plasmasheet import cli, sphere
from plasmasheet.polder import PATH_AGREEMENT_TOL
from plasmasheet.sphere import SphericalShell, jost_te_riccati, jost_tm_decomposed

from workloads import lattice_index

# A value checked against a reference may be off by this many times the
# relative tolerance its row asked for.
TOLERANCE_FACTOR = 10.0
# Closed-form parts and identities that involve no quadrature.
EXACT_RTOL = 1e-12
PLASMON_ROUTE_RTOL = 1e-10

# The known defects of the Jost functions on the imaginary axis k0 = i kappa
# (shell radius 1, Omega R = 1, l in [1, 10]). Both routes raise
# OverflowError from about kappa R = 710, and the two TM routes disagree by
# more than the path bound from about kappa R = 11: by up to 0.156 in narrow
# peaks near kappa R = 19-22, by less than 0.01 above kappa R = 60. Only
# these failures, recorded by kind, leave an operation correct; the two TE
# routes must agree at every kappa.
KNOWN_OVERFLOW_KAPPA_R = 700.0
KNOWN_TM_GAP_KAPPA_R = 10.0
KNOWN_TM_GAP_CEILING = 0.2

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def load_refs():
    with open(REFS_PATH, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {part: {int(k): v for k, v in raw[part].items()}
            for part in ("shape", "casimir")}


@dataclass
class OpResult:
    """Outcome of one operation: a failure kind per bad row."""

    rows: int
    failures: Counter = field(default_factory=Counter)
    unexpected: bool = False

    @property
    def rows_failed(self):
        return sum(self.failures.values())


def _rel(value, reference):
    scale = max(abs(value), abs(reference))
    return 0.0 if scale == 0.0 else abs(value - reference) / scale


def parse_table(text, fmt):
    """Rows of a CLI table as dicts; complex cells become complex numbers."""
    if fmt == "json":
        doc = json.loads(text)
        return [{name: (complex(*cell) if isinstance(cell, list) else cell)
                 for name, cell in zip(doc["columns"], row)}
                for row in doc["rows"]]
    reader = csv.reader(line for line in text.splitlines()
                        if not line.startswith("#"))
    header = next(reader)
    rows = []
    for cells in reader:
        row = {}
        for name, cell in zip(header, cells):
            if name == "error":
                row[name] = cell
            elif name.endswith("_im"):
                row[name[:-3]] = complex(row.pop(name[:-3] + "_re"), float(cell))
            else:
                row[name] = float(cell)
        rows.append(row)
    return rows


_FAMILIES = {"f": ("fTE", "fTM"), "h": ("hPar", "h3"),
             "g": ("gTE", "gTM", "g3")}
_FAMILIES["all"] = _FAMILIES["f"] + _FAMILIES["h"] + _FAMILIES["g"]


def _shape_ref(refs, k, name):
    if name == "h3":
        return 1.0 + 1.0 / 10.0 ** (k / 4)
    return refs["shape"][k][name]


def _check_lattice_row(row, k_expected, params, refs):
    """Failure kind of one shape-functions or casimir row, or None."""
    x = row["x"] if params["command"] == "functions" else row["omega_a"]
    if lattice_index(x) != k_expected:
        return "reference_miss"
    tol = TOLERANCE_FACTOR * params["rtol"]
    command = params["command"]
    if command == "functions":
        ok = all(_rel(row[name], _shape_ref(refs, k_expected, name)) <= tol
                 for name in _FAMILIES[params["family"]])
    elif command == "casimir-polder":
        ref = refs["shape"][k_expected]
        braces = (ref["gTE"] + 2.2 * ref["gTM"]) * 2.0 / 4.0 + ref["g3"]
        ok = _rel(row["a4_energy"], -braces / (32.0 * math.pi**2)) <= tol
    else:
        ref = refs["casimir"][k_expected]
        a = params["a"]
        ok = (_rel(row["a3_energy"], ref["energy"]) <= tol
              and _rel(row["te_share"], ref["te"] / ref["energy"]) <= tol
              and _rel(row["tm_share"], ref["tm"] / ref["energy"]) <= tol
              and abs(row["te_share"] + row["tm_share"] - 1.0) <= EXACT_RTOL)
        if ok and params["raw_units"]:
            ok = (_rel(row["energy_per_area"] * a**3, ref["energy"]) <= tol
                  and _rel(row["pressure"] * a**4, ref["pressure"]) <= tol)
    return None if ok else "reference_miss"


def _h_parallel(x):
    with mpmath.workdps(30):
        mx = mpmath.mpf(x)
        return float(2 + 1 / mx - mx * mpmath.exp(mx) * mpmath.e1(mx))


def _check_row(row, index, params, refs):
    """Failure kind of one CLI row, or None when the row is correct."""
    if row.get("error"):
        return "cli:" + row["error"].split(":")[0]
    command = params["command"]
    if command in ("functions", "casimir-polder", "casimir"):
        return _check_lattice_row(row, params["ks"][index], params, refs)
    if command == "reflection":
        k0, omega = params["k0"], params["omega"]
        rte, rtm = row["rTE"], row["rTM"]
        lhs = (1.0 - rte) * (1.0 - rtm)
        rhs = -(4.0 * k0 * k0 / (omega * omega)) * rte * rtm
        return None if _rel(lhs, rhs) <= PATH_AGREEMENT_TOL else "identity_miss"
    if command == "dispersion":
        gap = _rel(row["k0_root"], row["k0_closed"])
        return None if gap <= PLASMON_ROUTE_RTOL else "route_gap"
    if command == "charge":
        x, a, e, m = row["omega_a"], params["a"], params["e"], params["m"]
        electrostatic = -e * e / (8.0 * math.pi * a)
        kinetic = (e * e / (16.0 * math.pi * m * m * a)) * (
            -0.5 * params["p2par"] * _h_parallel(x)
            - params["p23"] * (1.0 + 0.5 / x))
        ok = (_rel(row["electrostatic"], electrostatic) <= EXACT_RTOL
              and _rel(row["kinetic"], kinetic) <= TOLERANCE_FACTOR * 1e-8)
        return None if ok else "reference_miss"
    # sphere: the CLI evaluates jost_te/jost_tm; compare with the other routes
    shell = SphericalShell(radius=params["radius"], omega=params["omega"])
    k0 = row["k0r"] / params["radius"]
    l = params["l"]
    return _route_gap(row["gTE"], jost_te_riccati(l, k0, shell),
                      row["gTM"], jost_tm_decomposed(l, k0, shell))


def _route_gap(te, te_other, tm, tm_other):
    """Failure kind of a TE/TM Jost pair evaluated by two routes, or None."""
    if _rel(te, te_other) > PATH_AGREEMENT_TOL:
        return "te_route_gap"
    if _rel(tm, tm_other) > PATH_AGREEMENT_TOL:
        return "tm_route_gap"
    return None


def _call_cli(op):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(list(op.argv))
    return status, buffer.getvalue()


def _call_jost(op):
    """TE and TM Jost functions at k0 = i kappa, each by both routes."""
    l, k0 = op.params["l"], 1j * op.params["kappa_r"]
    shell = SphericalShell(radius=1.0, omega=1.0)
    return (sphere.jost_te(l, k0, shell), sphere.jost_te_riccati(l, k0, shell),
            sphere.jost_tm(l, k0, shell), sphere.jost_tm_decomposed(l, k0, shell))


def _call_scan(op):
    shell = SphericalShell(radius=1.0, omega=op.params["omega_r"])
    return sphere.scan_real_zeros(op.params["l"], shell)


_CALLS = {"cli": _call_cli, "jost": _call_jost, "scan": _call_scan}


def run(op, scope=None):
    """Execute one operation; returns its output or the exception it raised.

    ``scope`` is a context manager entered around the call only, so a tracer
    records the program and not the checks.
    """
    try:
        with scope or contextlib.nullcontext():
            return _CALLS[op.kind](op)
    except Exception as exc:  # every failure is counted, not only SheetModelError
        return exc


def _check_cli(op, output, refs, failures):
    status, text = output
    if status not in (0, 1):
        failures["cli:exit_" + str(status)] = op.rows
        return
    rows = parse_table(text, op.params["fmt"])
    if len(rows) != op.rows:
        failures["missing_row"] += abs(op.rows - len(rows))
    for index, row in enumerate(rows[:op.rows]):
        kind = _check_row(row, index, op.params, refs)
        if kind is not None:
            failures[kind] += 1


def _known_jost_defect(op, output):
    """True when a failed Jost pair failed only by a known defect."""
    kappa_r = op.params["kappa_r"]
    if isinstance(output, OverflowError):
        return kappa_r >= KNOWN_OVERFLOW_KAPPA_R
    if isinstance(output, Exception):
        return False
    te, te_riccati, tm, tm_decomposed = output
    return (kappa_r >= KNOWN_TM_GAP_KAPPA_R
            and _rel(te, te_riccati) <= PATH_AGREEMENT_TOL
            and _rel(tm, tm_decomposed) <= KNOWN_TM_GAP_CEILING)


def check(op, output, refs):
    """OpResult of one operation: a failure kind for every row that failed."""
    result = OpResult(op.rows)
    failures = result.failures
    if isinstance(output, Exception):
        failures[type(output).__name__] = op.rows
    elif op.kind == "cli":
        _check_cli(op, output, refs, failures)
    elif op.kind == "jost":
        kind = _route_gap(*output)
        if kind is not None:
            failures[kind] = 1
    elif output != []:
        failures["scan_candidate"] = 1
    # the known Jost defects are recorded by kind, but the operation does
    # not count as failed
    known = op.kind == "jost" and _known_jost_defect(op, output)
    result.unexpected = bool(failures) and not known
    return result


def warm_up(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(list(argv))
    if status != 0:
        raise RuntimeError(f"warm-up operation {' '.join(argv)} exited {status}")
