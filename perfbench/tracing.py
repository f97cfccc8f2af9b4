"""Spans and integrand counters recorded from outside the program.

The tracer replaces public functions of the plasmasheet modules by wrappers
in the namespaces that call them (``plasmasheet.polder.integrate_adaptive``,
``plasmasheet.cli.reflection_te``, ...), so the package source stays as it
is. Each wrapper records a span (name, start, end, parent, operation id)
while an operation is active, and the numerics wrappers also wrap the
callable they receive in a counter, so integrand evaluations are counted
exactly. Spans stay in memory and are written out when the run ends.
"""

import contextlib
import gzip
import time
from collections import Counter

from plasmasheet import casimir, cli, numerics, polder, sheet, sphere

# (module, attribute, span name, count the callable's evaluations)
# An integrand evaluation is counted once, by the integrator the physics code
# handed it to; the Gauss-Laguerre fallback re-uses the counted callable.
WRAPPED = (
    (polder, "integrate_exponential_weight", "numerics.exp_weight", True),
    (polder, "integrate_adaptive", "numerics.adaptive", True),
    (polder, "integrate_semi_infinite", "numerics.semi_infinite", True),
    (casimir, "integrate_adaptive", "numerics.adaptive", True),
    (casimir, "integrate_semi_infinite", "numerics.semi_infinite", True),
    (numerics, "integrate_semi_infinite", "numerics.semi_infinite.fallback", False),
    (sheet, "find_root_bracketed", "numerics.root", True),
    (sphere, "spherical_bessel_j", "numerics.bessel", False),
    (sphere, "spherical_hankel1", "numerics.bessel", False),
    (sphere, "riccati_bessel", "numerics.bessel", False),
    (cli, "reduction_functions", "polder.shape", False),
    (polder, "f_te", "polder.shape", False),
    (polder, "f_tm", "polder.shape", False),
    (polder, "h_parallel", "polder.shape", False),
    (polder, "h_3", "polder.shape", False),
    (polder, "g_te", "polder.shape", False),
    (polder, "g_tm", "polder.g_dual", False),
    (polder, "g_3", "polder.g_dual", False),
    (cli, "casimir_polder_energy", "polder.energy", False),
    (cli, "charge_sheet_energy", "polder.energy", False),
    (cli, "reduced_energy_parts", "casimir.energy_parts", False),
    (casimir, "reduced_energy_parts", "casimir.energy_parts", False),
    (cli, "lifshitz_pressure", "casimir.pressure", False),
    (cli, "jost_te", "sphere.jost", False),
    (cli, "jost_tm", "sphere.jost", False),
    (sphere, "jost_te", "sphere.jost", False),
    (sphere, "jost_te_riccati", "sphere.jost", False),
    (sphere, "jost_tm", "sphere.jost", False),
    (sphere, "jost_tm_decomposed", "sphere.jost", False),
    (sphere, "scan_real_zeros", "sphere.scan", False),
    (cli, "reflection_te", "sheet.reflection", False),
    (cli, "reflection_tm", "sheet.reflection", False),
    (cli, "tm_plasmon_root", "sheet.plasmon_root", False),
    (cli, "main", "cli.main", False),
    (cli, "run", "cli.run", False),
    (cli, "table_to_csv_text", "cli.format", False),
    (cli, "table_to_json_text", "cli.format", False),
)


class Tracer:
    """In-memory span recorder; spans are kept only while an op is active."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.evals = Counter()
        self.op_id = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Record spans, tagged with op_id, while the block runs."""
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None

    def _wrap(self, original, name, count):
        tracer = self
        evals = self.evals

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return original(*args, **kwargs)
            if count:
                inner = args[0]

                def counted(*inner_args):
                    evals[name] += 1
                    return inner(*inner_args)

                args = (counted,) + args[1:]
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self):
        for module, attr, name, count in WRAPPED:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            origin = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                out.write(f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                          f"{self.starts[i] - origin:.9f}\t"
                          f"{self.ends[i] - origin:.9f}\n")


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, kids in enumerate(children):
        lo, hi = starts[index], ends[index]
        covered = 0.0
        reach = lo
        for kid in sorted(kids, key=starts.__getitem__):
            begin, end = max(starts[kid], reach), min(ends[kid], hi)
            if end > begin:
                covered += end - begin
                reach = end
        result.append(hi - lo - covered)
    return result


# per-layer metric groups: group name -> span names it aggregates
GROUPS = {
    "numerics.exp_weight": ("numerics.exp_weight",),
    "numerics.adaptive": ("numerics.adaptive",),
    "numerics.semi_infinite": ("numerics.semi_infinite",
                               "numerics.semi_infinite.fallback"),
    "numerics.root": ("numerics.root",),
    "numerics.bessel": ("numerics.bessel",),
    "polder.shape": ("polder.shape", "polder.g_dual"),
    "polder.g_dual": ("polder.g_dual",),
    "polder.energy": ("polder.energy",),
    "casimir.energy_parts": ("casimir.energy_parts",),
    "casimir.pressure": ("casimir.pressure",),
    "sphere.jost": ("sphere.jost",),
    "sphere.scan": ("sphere.scan",),
    "sheet.reflection": ("sheet.reflection",),
    "sheet.plasmon_root": ("sheet.plasmon_root",),
    "cli.main": ("cli.main",),
    "cli.run": ("cli.run",),
    "cli.format": ("cli.format",),
}

COUNTED = ("numerics.exp_weight", "numerics.adaptive", "numerics.semi_infinite",
           "numerics.root")


def span_totals(names, starts, ends, parents):
    """Per group: calls, summed self time, and inclusive time of outermost spans."""
    selfs = self_times(starts, ends, parents)
    group_of = {}
    for group, members in GROUPS.items():
        for member in members:
            group_of.setdefault(member, []).append(group)
    totals = {group: {"calls": 0, "self_s": 0.0, "s": 0.0} for group in GROUPS}
    for index, name in enumerate(names):
        for group in group_of.get(name, ()):
            entry = totals[group]
            entry["calls"] += 1
            entry["self_s"] += selfs[index]
            members = GROUPS[group]
            parent = parents[index]
            while parent >= 0 and names[parent] not in members:
                parent = parents[parent]
            if parent < 0:
                entry["s"] += ends[index] - starts[index]
    return totals


def check_route_share(names, starts, ends, parents):
    """Share of g_tm/g_3 time spent in exponential-weight integrals that
    contain an adaptive integral, i.e. in the nested check route."""
    nested = [False] * len(names)
    for index in range(len(names) - 1, -1, -1):
        parent = parents[index]
        if parent >= 0 and (nested[index] or names[index] == "numerics.adaptive"):
            nested[parent] = True
    dual = check = 0.0
    for index, name in enumerate(names):
        if name == "polder.g_dual":
            dual += ends[index] - starts[index]
        elif (name == "numerics.exp_weight" and nested[index]
              and parents[index] >= 0 and names[parents[index]] == "polder.g_dual"):
            check += ends[index] - starts[index]
    return check / dual if dual else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, rows, cli_rows, cli_rows_failed, failures,
                  rows_failed, overhead_frac):
    """The per-layer metrics of a traced pass, as {name: value}."""
    spans = (tracer.names, tracer.starts, tracer.ends, tracer.parents)
    totals = span_totals(*spans)
    evals = tracer.evals
    fallbacks = tracer.names.count("numerics.semi_infinite.fallback")
    exp_calls = totals["numerics.exp_weight"]["calls"]
    out = {}
    for group in ("numerics.exp_weight", "numerics.adaptive",
                  "numerics.semi_infinite", "numerics.root"):
        out[group + ".calls"] = totals[group]["calls"]
        out[group + ".evals"] = evals[group]
        out[group + ".self_s"] = totals[group]["self_s"]
    out["numerics.exp_weight.fallbacks"] = fallbacks
    out["numerics.exp_weight.gl_converged_ratio"] = _ratio(exp_calls - fallbacks,
                                                           exp_calls)
    out["numerics.bessel.calls"] = totals["numerics.bessel"]["calls"]
    out["numerics.bessel.self_s"] = totals["numerics.bessel"]["self_s"]
    out["numerics.evals_per_row"] = _ratio(sum(evals[g] for g in COUNTED), rows)
    out["polder.shape.self_s"] = totals["polder.shape"]["self_s"]
    out["polder.g_dual.s"] = totals["polder.g_dual"]["s"]
    out["polder.g_dual.check_route_share"] = check_route_share(*spans)
    out["polder.energy.s"] = totals["polder.energy"]["s"]
    for group in ("casimir.energy_parts", "casimir.pressure"):
        out[group + ".calls"] = totals[group]["calls"]
        out[group + ".s"] = totals[group]["s"]
    out["casimir.energy_parts_per_row"] = _ratio(
        totals["casimir.energy_parts"]["calls"], rows)
    out["sphere.jost.calls"] = totals["sphere.jost"]["calls"]
    out["sphere.jost.self_s"] = totals["sphere.jost"]["self_s"]
    out["sphere.scan.calls"] = totals["sphere.scan"]["calls"]
    out["sphere.scan.s"] = totals["sphere.scan"]["s"]
    out["sphere.route_gap_failures"] = sum(
        failures[f"{label}:{route}_route_gap"]
        for label in ("jost", "sphere") for route in ("te", "tm"))
    out["sphere.overflow_errors"] = failures["jost:OverflowError"]
    out["sheet.reflection.calls"] = totals["sheet.reflection"]["calls"]
    out["sheet.reflection.self_s"] = totals["sheet.reflection"]["self_s"]
    out["sheet.plasmon_root.calls"] = totals["sheet.plasmon_root"]["calls"]
    out["sheet.plasmon_root.s"] = totals["sheet.plasmon_root"]["s"]
    out["cli.parse.s"] = totals["cli.main"]["self_s"]
    out["cli.run.self_s"] = totals["cli.run"]["self_s"]
    out["cli.format.s"] = totals["cli.format"]["s"]
    out["cli.rows"] = cli_rows
    out["cli.rows_failed"] = cli_rows_failed
    out["failed_frac"] = _ratio(rows_failed, rows)
    out["trace.overhead_frac"] = overhead_frac
    return out
