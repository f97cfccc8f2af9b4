"""Fast tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys
from collections import Counter
from itertools import islice

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("PLASMASHEET_TOLERANCE", None)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _ops(workload, seed, count=3):
    return [op for block in islice(workloads.blocks(workload, seed), count)
            for op in block]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_composition_does_not_depend_on_seed(workload):
    def shape(op):
        return (op.kind, op.rows, op.argv[:1],
                op.params.get("raw_units"), op.params.get("family"))

    first = Counter(shape(op) for op in _ops(workload, 1, 1))
    assert all(Counter(shape(op) for op in _ops(workload, seed, 1)) == first
               for seed in range(2, 6))


def test_lattice_sweeps_stay_on_referenced_points():
    refs = checks.load_refs()
    for workload, part in (("shape-functions", "shape"), ("casimir", "casimir")):
        for op in _ops(workload, 3, 4):
            assert all(k in refs[part] for k in op.params["ks"])


def test_correct_rows_pass_and_perturbed_reference_fails():
    refs = checks.load_refs()
    op = next(op for op in _ops("casimir", 5)
              if op.params["raw_units"] and op.params["fmt"] == "csv")
    output = checks.run(op)
    result = checks.check(op, output, refs)
    assert not result.failures and not result.unexpected

    k = op.params["ks"][0]
    perturbed = {part: dict(table) for part, table in refs.items()}
    perturbed["casimir"][k] = dict(refs["casimir"][k])
    perturbed["casimir"][k]["pressure"] *= 1.0 + 1e-5
    result = checks.check(op, output, perturbed)
    assert result.failures == Counter({"reference_miss": 1})
    assert result.unexpected


def test_known_jost_defects_are_recorded_but_not_unexpected():
    high = workloads.Op("jost", params={"l": 1, "kappa_r": 800.0})
    gap = workloads.Op("jost", params={"l": 3, "kappa_r": 200.0})
    low = workloads.Op("jost", params={"l": 3, "kappa_r": 2.0})
    results = [checks.check(op, checks.run(op), None) for op in (high, gap, low)]
    assert [r.failures for r in results] == [
        Counter({"OverflowError": 1}), Counter({"tm_route_gap": 1}), Counter()]
    assert not any(r.unexpected for r in results)


@pytest.mark.parametrize("kappa_r, output, kind", [
    (200.0, (1.0, 1.0 + 1e-6, 1.0, 1.0), "te_route_gap"),
    (200.0, (1.0, 1.0, 1.0, 1.5), "tm_route_gap"),
    (5.0, (1.0, 1.0, 1.0, 1.0 + 1e-6), "tm_route_gap"),
    (200.0, ValueError("bad"), "ValueError"),
    (50.0, OverflowError("big"), "OverflowError"),
])
def test_other_jost_failures_are_unexpected(kappa_r, output, kind):
    op = workloads.Op("jost", params={"l": 3, "kappa_r": kappa_r})
    result = checks.check(op, output, None)
    assert result.failures == Counter({kind: 1})
    assert result.unexpected


def test_traced_counts_repeat_and_functions_are_restored():
    op = _ops("casimir", 5)[0]
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.WRAPPED]
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            checks.run(op, tracer.operation(0))
        finally:
            tracer.uninstall()
        seen.append((dict(tracer.evals), Counter(tracer.names)))
    assert seen[0] == seen[1]
    assert seen[0][0]["numerics.adaptive"] > 0
    assert [getattr(module, attr)
            for module, attr, _, _ in tracing.WRAPPED] == originals


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 9]; the first child has a grandchild [2, 3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 9.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == pytest.approx(
        [10.0 - 6.0, 3.0 - 1.0, 3.0, 1.0, 1.0])


def test_group_totals_and_check_route_share():
    names = ["polder.g_dual", "numerics.exp_weight", "numerics.exp_weight",
             "numerics.adaptive", "numerics.adaptive"]
    starts = [0.0, 0.0, 2.0, 2.5, 3.5]
    ends = [10.0, 2.0, 10.0, 3.0, 4.0]
    parents = [-1, 0, 0, 2, 2]
    totals = tracing.span_totals(names, starts, ends, parents)
    assert totals["polder.g_dual"]["s"] == 10.0
    assert totals["polder.g_dual"]["self_s"] == 0.0
    assert totals["numerics.exp_weight"]["calls"] == 2
    assert totals["numerics.exp_weight"]["self_s"] == pytest.approx(2.0 + 7.0)
    assert totals["numerics.adaptive"]["self_s"] == pytest.approx(1.0)
    # the closed route [0, 2] has no adaptive child, the check route [2, 10] has
    assert tracing.check_route_share(names, starts, ends, parents) == 0.8
