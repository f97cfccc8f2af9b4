"""Seeded operation generators for the three benchmark workloads.

An operation is one CLI invocation (``kind == "cli"``, the program sees only
``argv``) or one library call (``kind`` ``"jost"`` or ``"scan"``). Operations
come in blocks of fixed composition: the seed draws every value and the order
inside a block, never the mix of commands, counts or flags. Values that set
an operation's cost are dealt from decks (the lattice offset of a sweep, the
partial-wave order l) or stratified across the block (kappa R of a Jost
pair), so over a run every value is used about equally often whatever the
seed, and quantiles of operation latency move with the program, not with
the draw.

The shape-functions and casimir workloads sweep x = Omega a over the lattice
x_k = 10**(k/4) on which refs.json holds mpmath references.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("shape-functions", "casimir", "light-rows")

# Lattice index ranges: x in [1e-6, 1e12] for the shape functions,
# [1e-3, 1e6] for the Casimir energy.
SHAPE_K = (-24, 48)
CASIMIR_K = (-12, 24)

def lattice(k):
    return 10.0 ** (k / 4)


def lattice_index(x):
    """Lattice index k of a sweep point, or None when x is not on the lattice."""
    k = round(4.0 * math.log10(x))
    return k if abs(x / lattice(k) - 1.0) < 1e-12 else None


@dataclass(frozen=True)
class Op:
    """One operation: what the program receives, and what its check needs."""

    kind: str
    argv: tuple = ()
    rows: int = 1
    params: dict = field(default_factory=dict)


def _fmt(value):
    return repr(float(value))


class _Deck:
    """Deals values without replacement and reshuffles when all are dealt."""

    def __init__(self, rng, values):
        self._rng = rng
        self._values = list(values)
        self._pile = []

    def draw(self):
        if not self._pile:
            self._pile = list(self._values)
            self._rng.shuffle(self._pile)
        return self._pile.pop()


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _lattice_sweep(command, k0, step, count, extra, rtol, fmt):
    ks = [k0 + i * step for i in range(count)]
    argv = [command, "--omega-a-min" if command != "functions" else "--x-min",
            _fmt(lattice(ks[0])),
            "--omega-a-max" if command != "functions" else "--x-max",
            _fmt(lattice(ks[-1])), "--count", str(count), "--scale", "log"]
    argv += extra
    if rtol is not None:
        argv += ["--tolerance", _fmt(rtol)]
    argv += ["--format", fmt]
    params = {"command": command, "ks": ks, "rtol": rtol or 1e-8, "fmt": fmt}
    return argv, params


def shape_functions_block(rng, decks):
    """functions --family {f,h,g,all} and casimir-polder, 4 rows each.

    A sweep starts at one of the 25 lowest lattice points and takes every
    12th to 16th point (3 to 4 decades apart), so it holds one or two x
    below 1, where Gauss-Laguerre stalls and the g check route is costly.
    Offsets and steps come from decks. Two of the eight operations ask for
    --tolerance 1e-6 and two write JSON.
    """
    kinds = ["f", "h", "g", "all", "cp", "cp", "cp", "cp"]
    sweeps = [(decks["offset"].draw(), decks["step"].draw()) for _ in kinds]
    loose = set(rng.sample(range(len(kinds)), 2))
    as_json = set(rng.sample(range(len(kinds)), 2))
    ops = []
    for i, kind in enumerate(kinds):
        rtol = 1e-6 if i in loose else None
        fmt = "json" if i in as_json else "csv"
        if kind == "cp":
            a = rng.choice((0.5, 1.0, 2.0))
            argv, params = _lattice_sweep(
                "casimir-polder", *sweeps[i], 4,
                ["--isotropic-alpha", "1", "--a", _fmt(a)], rtol, fmt)
        else:
            argv, params = _lattice_sweep(
                "functions", *sweeps[i], 4, ["--family", kind], rtol, fmt)
            params["family"] = kind
        ops.append(Op("cli", tuple(argv), 4, params))
    rng.shuffle(ops)
    return ops


def casimir_block(rng, decks):
    """casimir sweeps, half of them with --raw-units.

    Plain sweeps take 6 points 1.5 decades apart, --raw-units sweeps 2 points
    4.5 decades apart, so the two kinds cost about the same per operation
    although --raw-units costs about 5 energies per row.
    """
    ops = []
    plain = [decks["plain"].draw() for _ in range(4)]
    raw = [decks["raw"].draw() for _ in range(4)]
    as_json = set(rng.sample(range(8), 2))
    for i in range(8):
        is_raw = i >= 4
        a = rng.choice((0.5, 1.0, 2.0))
        extra = ["--a", _fmt(a)] + (["--raw-units"] if is_raw else [])
        if is_raw:
            argv, params = _lattice_sweep("casimir", raw[i - 4], 18, 2, extra,
                                          None, "json" if i in as_json else "csv")
        else:
            argv, params = _lattice_sweep("casimir", plain[i], 6, 6, extra,
                                          None, "json" if i in as_json else "csv")
        params.update(a=a, raw_units=is_raw)
        ops.append(Op("cli", tuple(argv), len(params["ks"]), params))
    rng.shuffle(ops)
    return ops


def _reflection(rng, count, fmt):
    omega = _log_uniform(rng, 0.1, 10.0)
    while True:
        k0 = omega * _log_uniform(rng, 0.1, 10.0)
        lo = k0 * rng.uniform(0.01, 0.5)
        hi = k0 * rng.uniform(1.5, 4.0)
        # a grid point exactly on the light cone kpar = k0 is a documented
        # OnLightConeError row, not a defect; redraw instead
        if k0 not in np.linspace(lo, hi, count):
            break
    argv = ["reflection", "--omega", _fmt(omega), "--k0", _fmt(k0),
            "--kpar-min", _fmt(lo), "--kpar-max", _fmt(hi),
            "--count", str(count), "--format", fmt]
    return Op("cli", tuple(argv), count,
              {"command": "reflection", "omega": omega, "k0": k0, "fmt": fmt})


def _dispersion(rng, count, fmt):
    omega = _log_uniform(rng, 0.1, 10.0)
    lo = omega * _log_uniform(rng, 1e-3, 1e-2)
    hi = omega * _log_uniform(rng, 1e2, 1e3)
    argv = ["dispersion", "--omega", _fmt(omega), "--kpar-min", _fmt(lo),
            "--kpar-max", _fmt(hi), "--count", str(count), "--scale", "log",
            "--format", fmt]
    return Op("cli", tuple(argv), count, {"command": "dispersion", "fmt": fmt})


def _charge(rng, count, fmt):
    params = {"command": "charge", "fmt": fmt,
              "a": _log_uniform(rng, 0.1, 10.0), "e": rng.uniform(0.5, 2.0),
              "m": rng.uniform(0.5, 2.0), "p2par": rng.uniform(0.0, 1.0),
              "p23": rng.uniform(0.0, 1.0)}
    lo = 0.5 * _log_uniform(rng, 1.0, 3.0)
    hi = 1e3 / _log_uniform(rng, 1.0, 3.0)
    argv = ["charge", "--omega-a-min", _fmt(lo), "--omega-a-max", _fmt(hi),
            "--count", str(count), "--scale", "log"]
    for name in ("a", "e", "m", "p2par", "p23"):
        argv += ["--" + name, _fmt(params[name])]
    argv += ["--format", fmt]
    return Op("cli", tuple(argv), count, params)


def _sphere(rng, l, count, fmt):
    omega_r = _log_uniform(rng, 1e-2, 1e2)
    radius = rng.choice((0.5, 1.0, 2.0))
    lo = _log_uniform(rng, 1e-2, 1e-1)
    hi = _log_uniform(rng, 10.0, 50.0)
    argv = ["sphere", "--l", str(l), "--omega-r", _fmt(omega_r),
            "--radius", _fmt(radius), "--k0r-min", _fmt(lo), "--k0r-max",
            _fmt(hi), "--count", str(count), "--format", fmt]
    return Op("cli", tuple(argv), count,
              {"command": "sphere", "l": l, "omega": omega_r / radius,
               "radius": radius, "fmt": fmt})


def light_rows_block(rng, decks):
    """Cheap CLI sweeps of 200-2000 rows plus sphere library calls.

    Eight sweeps (reflection, dispersion, charge, sphere, each in CSV and in
    JSON), two scan_real_zeros calls (l in [1, 10], Omega R in [2, 100]) and
    four imaginary-axis Jost pairs, one per decade of kappa R in [0.1, 1e3].
    """
    ops = [_reflection(rng, 2000, "csv"), _reflection(rng, 1000, "json"),
           _dispersion(rng, 1000, "csv"), _dispersion(rng, 500, "json"),
           _charge(rng, 200, "csv"), _charge(rng, 200, "json"),
           _sphere(rng, decks["sphere_l"].draw(), 500, "csv"),
           _sphere(rng, decks["sphere_l"].draw(), 300, "json")]
    for l in (decks["scan_l"].draw(), decks["scan_l"].draw()):
        ops.append(Op("scan", rows=1,
                      params={"l": l, "omega_r": _log_uniform(rng, 2.0, 100.0)}))
    for decade in range(4):
        kappa_r = 10.0 ** (decade - 1 + rng.random())
        ops.append(Op("jost", rows=1,
                      params={"l": rng.randint(1, 10), "kappa_r": kappa_r}))
    rng.shuffle(ops)
    return ops


# workload -> (block maker, decks it deals from)
_BLOCKS = {
    "shape-functions": (shape_functions_block, {
        "offset": range(SHAPE_K[0], SHAPE_K[0] + 25), "step": range(12, 17)}),
    "casimir": (casimir_block, {
        "plain": range(CASIMIR_K[0], CASIMIR_K[0] + 7),
        "raw": range(CASIMIR_K[0], CASIMIR_K[0] + 19)}),
    "light-rows": (light_rows_block, {
        "sphere_l": range(1, 51), "scan_l": range(1, 11)}),
}

# Operation used to warm the program up, in the set-up probe and before the
# timed phase; fixed per workload so set-up time does not depend on the seed.
WARMUP_ARGV = {
    "shape-functions": ("functions", "--family", "all", "--x", "1"),
    "casimir": ("casimir", "--omega-a", "1", "--raw-units"),
    "light-rows": ("reflection", "--omega", "1", "--k0", "1.5",
                   "--kpar-min", "0.1", "--kpar-max", "4", "--count", "200"),
}


def blocks(workload, seed):
    """Endless iterator over the seeded blocks of one workload."""
    make, deck_values = _BLOCKS[workload]
    rng = random.Random(f"{workload}/{seed}")
    decks = {name: _Deck(rng, values) for name, values in deck_values.items()}
    while True:
        yield make(rng, decks)
