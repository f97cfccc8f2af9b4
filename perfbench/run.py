"""plasmasheet benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload casimir --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. With ``--trace 0`` it measures the end-to-end metrics over
``--seconds`` seconds of whole operation blocks; with ``--trace 1`` it runs a
fixed number of blocks twice, untraced and then traced, and reports the
per-layer metrics. Single process, single thread, closed loop: one client,
and each operation starts when the previous one returns. The last line of
standard output is one JSON object; the line before it summarises the run.
"""

import argparse
import cmath
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice

# BLAS and OpenMP pools would compete with the measured thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI takes its default tolerance from this variable; the checks assume
# the documented default of rows that pass no --tolerance.
os.environ.pop("PLASMASHEET_TOLERANCE", None)

import workloads  # noqa: E402  (after the thread pins: it imports numpy)
from scipy import integrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 9
# Blocks in a traced run: fixed, so counts repeat exactly for a seed.
TRACE_BLOCKS = {"shape-functions": 6, "casimir": 12, "light-rows": 12}

# A fresh interpreter imports the package and the CLI and runs one operation.
SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import plasmasheet, plasmasheet.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = plasmasheet.cli.main(json.loads(sys.argv[2]))
sys.exit(status)
"""


# On shared VMs the speed a process gets drifts by tens of percent within a
# minute. Every timing is therefore scaled by a fixed calibration kernel, run
# just before and just after the timed call: reported seconds are seconds on
# a machine where the kernel takes CALIBRATION_S. The kernel does what the
# program does (QUADPACK with Python integrands, nested too, float and
# complex Python arithmetic, number formatting) and uses none of its code.
CALIBRATION_S = 5.0e-3


def _inner(x):
    return integrate.quad(
        lambda y: math.log1p(-math.exp(-x) / (1.0 + x * y * y) ** 2),
        0.0, 1.0, epsrel=1e-9)[0]


def _kernel():
    integrate.quad(lambda x: math.exp(-x) * math.sin(3.0 * x) / (1.0 + x * x),
                   0.0, 50.0, epsrel=1e-12, limit=200)
    integrate.quad(lambda x: x * x * _inner(x), 0.0, 10.0, epsrel=1e-9)
    total = 0.0
    for i in range(1, 4000):
        total += math.sqrt(i) / (1.0 + 0.5 * i)
    z, current, previous = 0.3 + 0.7j, 1e-30 + 0j, 0j
    for n in range(3000, 0, -1):
        previous, current = current, (2 * n + 1) / z * current - previous
        if abs(current) > 1e200:
            previous, current = previous * 1e-200, current * 1e-200
    "".join("%.17g," % (0.1 * i) for i in range(600))
    return total + cmath.phase(current)


def calibration():
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def calibrated(call):
    """(raw seconds, scaled seconds, result) of call(), timed in-process."""
    before = calibration()
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    scale = 2.0 * CALIBRATION_S / (before + calibration())
    return seconds, seconds * scale, result


def measure_setup(argv):
    """Median scaled wall time of SETUP_RUNS fresh-interpreter set-ups."""
    command = [sys.executable, "-c", SETUP_CODE, SRC, json.dumps(argv)]
    times = []
    for _ in range(SETUP_RUNS):
        _, scaled, _ = calibrated(lambda: subprocess.run(
            command, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
            timeout=120))
        times.append(scaled)
    return statistics.median(times)


class Tally:
    """What a sequence of operations did, summed."""

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.rows = 0
        self.rows_failed = 0
        self.unexpected_ops = 0
        self.failures = Counter()
        self.cli_rows = 0
        self.cli_rows_failed = 0

    def add(self, op, result, raw_seconds, seconds):
        self.latencies.append(seconds)
        self.raw_latencies.append(raw_seconds)
        self.rows += result.rows
        self.rows_failed += result.rows_failed
        self.unexpected_ops += result.unexpected
        label = op.params["command"] if op.kind == "cli" else op.kind
        for kind, count in result.failures.items():
            self.failures[f"{label}:{kind}"] += count
        if op.kind == "cli":
            self.cli_rows += result.rows
            # rows the CLI reported as errors or never produced; rows that
            # missed a check are not CLI failures
            self.cli_rows_failed += sum(
                count for kind, count in result.failures.items()
                if not kind.endswith(("_miss", "_gap")))

    @property
    def busy_s(self):
        return sum(self.latencies)

    def summary(self, workload, seed, extra=""):
        return (f"# {workload} seed={seed} ops={len(self.latencies)} "
                f"rows={self.rows} rows_failed={self.rows_failed} "
                f"unexpected_ops={self.unexpected_ops} {extra}"
                f"failures={json.dumps(dict(sorted(self.failures.items())))}")


def run_ops(ops, refs, tally, scope=lambda index: None):
    for index, op in enumerate(ops):
        raw, scaled, output = calibrated(lambda: checks.run(op, scope(index)))
        tally.add(op, checks.check(op, output, refs), raw, scaled)


def timed_run(workload, seed, seconds, refs):
    """Whole blocks until `seconds` have passed; then the end-to-end metrics."""
    setup_s = measure_setup(list(workloads.WARMUP_ARGV[workload]))
    checks.warm_up(workloads.WARMUP_ARGV[workload])
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for block in workloads.blocks(workload, seed):
        run_ops(block, refs, tally)
        if time.perf_counter() >= deadline:
            break
    ms = sorted(1000.0 * s for s in tally.latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    beyond = sum(1 for value in ms if value > p90)
    if beyond < 10:
        print(f"run.py: only {beyond} samples beyond op_ms.p90", file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": p90,
        "rows_per_s": (tally.rows - tally.rows_failed) / tally.busy_s,
        "ok_frac": 1.0 - tally.rows_failed / tally.rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_p50 = 1000.0 * statistics.median(tally.raw_latencies)
    print(tally.summary(workload, seed,
                        f"op_ms_samples={len(ms)} beyond_p90={beyond} "
                        f"unscaled_op_ms.p50={raw_p50:.3f} "))
    return tally, metrics


def traced_run(workload, seed, refs):
    """Fixed blocks, run untraced, traced, untraced: the per-layer metrics."""
    ops = [op for block in islice(workloads.blocks(workload, seed),
                                  TRACE_BLOCKS[workload]) for op in block]
    checks.warm_up(workloads.WARMUP_ARGV[workload])
    untraced = [Tally(), Tally()]
    run_ops(ops, refs, untraced[0])
    tracer = tracing.Tracer()
    tracer.install()
    traced = Tally()
    try:
        run_ops(ops, refs, traced, tracer.operation)
    finally:
        tracer.uninstall()
    # untraced passes before and after the traced one; the faster is the base
    run_ops(ops, refs, untraced[1])
    base_s = min(tally.busy_s for tally in untraced)
    metrics = tracing.layer_metrics(
        tracer, rows=traced.rows, cli_rows=traced.cli_rows,
        cli_rows_failed=traced.cli_rows_failed, failures=traced.failures,
        rows_failed=traced.rows_failed,
        overhead_frac=traced.busy_s / base_s - 1.0)
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
    tracer.write(path)
    print(traced.summary(workload, seed, f"spans={len(tracer.names)} "
                                         f"spans_file={os.path.relpath(path, ROOT)} "))
    return traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    refs = checks.load_refs()
    if args.trace:
        tally, values = traced_run(args.workload, args.seed, refs)
    else:
        tally, values = timed_run(args.workload, args.seed, args.seconds, refs)
    print(json.dumps({
        "correct": tally.unexpected_ops == 0,
        "attempted": len(tally.latencies),
        "failed": tally.unexpected_ops,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "plasmasheet", "__init__.py")):
        print(f"run.py: no plasmasheet package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import checks
    import tracing
    sys.exit(main())
