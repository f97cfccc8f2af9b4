"""Every CLI command at both ends of the domain the README states for it.

Each cell of the row must match an independent reference to within 10 times
the run tolerance, as the benchmark checks its rows: mpmath for the shape
functions, the reflection coefficients and the closed plasmon frequency,
the closed limits of the Casimir energy, the closed
h_par(x) = 2 + 1/x - x e^x E1(x) for the charge energy, and mpmath
spherical Bessel functions for the Jost functions.
"""

import contextlib
import functools
import io
import json

import mpmath
import pytest

from plasmasheet.cli import DEFAULT_TOLERANCE, main

TOLERANCE = 10.0 * DEFAULT_TOLERANCE
PI = mpmath.pi
# C of the weak-coupling limit a^3 E_TM/A -> -C sqrt(x); _casimir sums it
WEAK_C = 0.00354375523383440856


def _weighted(f, x):
    """Int_0^inf e^-k f(k) dk, split where the integrand changes scale."""
    points = [0] + sorted(p for p in {x, 1, 10, 40} if p < 60) + [mpmath.inf]
    return mpmath.quad(lambda k: mpmath.exp(-k) * f(k), points)


def _atan_ratio(b):
    rb = mpmath.sqrt(b)
    return mpmath.atan(rb) / rb


@functools.cache
def _shape_functions(x):
    """The seven shape functions, in the column order of `functions`."""
    x = mpmath.mpf(x)
    return [
        _weighted(lambda k: k / (1 + k / x), x),
        3 * x * _weighted(lambda k: 1 - _atan_ratio(k / x), x),
        2 + 1 / x - x * mpmath.exp(x) * mpmath.e1(x),
        1 + 1 / x,
        _weighted(lambda k: k**3 / (1 + k / x), x) / 6,
        mpmath.mpf(5) / 22 * _weighted(
            lambda k: k**3 * (2 / (3 * (k / x)) - 2 * (1 + k / x) / (k / x)**2
                              + ((k / x)**2 + 2 * (k / x) + 2) / (k / x)**2
                              * _atan_ratio(k / x)), x),
        _weighted(lambda k: k**3 * (-1 / (k / x) + (1 + k / x) / (k / x)
                                    * _atan_ratio(k / x)), x) / 4,
    ]


def _casimir_polder(x):
    """a^4 E of an isotropic atom with alpha = 1, from the g family."""
    g_te, g_tm, g_3 = _shape_functions(x)[4:]
    return [-((g_te + mpmath.mpf("2.2") * g_tm) * 2 / 4 + g_3)
            / (32 * PI**2)]


def _casimir(x):
    """a^3 E and the TE and TM shares.

    The TE part is an mpmath integral; the total is the closed limit of
    TestAsymptotes: -C sqrt(x) at x = 1e-6 (next term 3e-10 relative) and
    -pi^2/720 + pi^2/(180 x) at x = 1e12 and 1e300.
    """
    x = mpmath.mpf(x)
    points = sorted([0, x / 2, x, mpmath.mpf("0.5"), 2, 8, 30]) + [mpmath.inf]
    te = mpmath.quad(lambda g: g * g * mpmath.log(
        1 - mpmath.exp(-2 * g) / (1 + 2 * g / x) ** 2), points) / (4 * PI**2)
    if x < 1:
        c = mpmath.gamma(2.5) * mpmath.sqrt(PI) / (64 * PI**2) * mpmath.nsum(
            lambda n: n ** mpmath.mpf(-3.5) * mpmath.gamma(2 * n - 0.5)
            / mpmath.gamma(2 * n), [1, mpmath.inf])
        total = te - c * mpmath.sqrt(x)
    else:
        total = -PI**2 / 720 + PI**2 / (180 * x)
    return [total, te / total, (total - te) / total]


def _charge(x):
    """Electrostatic and kinetic parts at a = e = m = 1, p2par = p23 = 1."""
    x = mpmath.mpf(x)
    h_par = 2 + 1 / x - x * mpmath.exp(x) * mpmath.e1(x)
    return [-1 / (8 * PI), (-h_par / 2 - (1 + 1 / (2 * x))) / (16 * PI)]


def _reflection(k0, kpar):
    """r_TE and r_TM at Omega = 1."""
    k0, kpar = mpmath.mpf(k0), mpmath.mpf(kpar)
    gamma = mpmath.sqrt(k0**2 - kpar**2)
    if gamma.imag < 0:
        gamma = -gamma
    return [1 / (1 - 2j * gamma), 1 / (1 - 2j * k0**2 / gamma)]


def _dispersion(kpar):
    """Closed plasmon frequency at Omega = kpar: both columns, residual 0."""
    kpar = mpmath.mpf(kpar)
    k0 = mpmath.sqrt(2 * kpar**3 / (mpmath.sqrt(17) * kpar + kpar))
    return [k0, k0, 0]


def _plasmon(omega, kpar):
    """Closed plasmon frequency at any Omega: both columns, residual 0."""
    omega, kpar = mpmath.mpf(omega), mpmath.mpf(kpar)
    k0 = mpmath.sqrt(2 * omega * kpar**2
                     / (mpmath.sqrt(omega**2 + 16 * kpar**2) + omega))
    return [k0, k0, 0]


def _jost(l, z):
    """g_TE and g_TM at R = 1, Omega R = 1 from mpmath spherical Bessels."""
    z = mpmath.mpf(z)

    def f(n):
        front = mpmath.sqrt(PI / (2 * z))
        j = front * mpmath.besselj(n + 0.5, z)
        return j, j + 1j * front * mpmath.bessely(n + 0.5, z)

    (j, h), (jm, hm) = f(l), f(l - 1)
    rjp, rhp = z * jm - l * j, z * hm - l * h
    return [1 + 1j * z * j * h, 1 + 1j / z * rjp * rhp]


CASES = [
    (["functions", "--x", "1e-6"], lambda: _shape_functions(1e-6)),
    (["functions", "--x", "1e12"], lambda: _shape_functions(1e12)),
    (["casimir-polder", "--isotropic-alpha", "1", "--omega-a", "1e-6"],
     lambda: _casimir_polder(1e-6)),
    (["casimir-polder", "--isotropic-alpha", "1", "--omega-a", "1e12"],
     lambda: _casimir_polder(1e12)),
    (["casimir", "--omega-a", "1e-6"], lambda: _casimir(1e-6)),
    (["casimir", "--omega-a", "1e12"], lambda: _casimir(1e12)),
    (["casimir", "--omega-a", "1e300"], lambda: _casimir(1e300)),
    (["charge", "--p2par", "1", "--p23", "1", "--omega-a", "1e-6"],
     lambda: _charge(1e-6)),
    (["charge", "--p2par", "1", "--p23", "1", "--omega-a", "1e12"],
     lambda: _charge(1e12)),
    (["reflection", "--k0", "1", "--kpar", "0"], lambda: _reflection(1, 0)),
    (["reflection", "--k0", "1", "--kpar", "1e160"],
     lambda: _reflection(1, 1e160)),
    (["reflection", "--k0", "1", "--kpar", "1e300"],
     lambda: _reflection(1, 1e300)),
    (["reflection", "--k0", "1e300", "--kpar", "1"],
     lambda: _reflection(1e300, 1)),
    (["reflection", "--k0", "1e200", "--kpar", "5e199"],
     lambda: _reflection(1e200, 5e199)),
    (["reflection", "--k0", "2e-170", "--kpar", "1e-170"],
     lambda: _reflection(2e-170, 1e-170)),
    (["reflection", "--k0", "1e-200", "--kpar", "0"],
     lambda: _reflection(1e-200, 0)),
    (["reflection", "--k0", "1e-300", "--kpar", "5e-301"],
     lambda: _reflection(1e-300, 5e-301)),
    (["dispersion", "--omega", "1e200", "--kpar", "1e200"],
     lambda: _dispersion(1e200)),
    (["dispersion", "--omega", "1e-200", "--kpar", "1e-200"],
     lambda: _dispersion(1e-200)),
    # kpar/Omega = 2^-1021 and 2^1021, the ends of the ratios whose smaller
    # member stays a normal float once the larger is scaled into [1/2, 1)
    (["dispersion", "--omega", "1", "--kpar", "4.450147717014403e-308"],
     lambda: _plasmon(1, 4.450147717014403e-308)),
    (["dispersion", "--omega", "1", "--kpar", "2.247116418577895e+307"],
     lambda: _plasmon(1, 2.247116418577895e+307)),
    (["sphere", "--l", "1", "--k0r", "1e-6"], lambda: _jost(1, 1e-6)),
    (["sphere", "--l", "40", "--k0r", "1e-6"], lambda: _jost(40, 1e-6)),
    (["sphere", "--l", "1", "--k0r", "1e6"], lambda: _jost(1, 1e6)),
]


@pytest.mark.parametrize("argv, reference", CASES,
                         ids=[" ".join(argv) for argv, _ in CASES])
def test_command_at_an_end_of_its_domain(argv, reference):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv + ["--format", "json"])
    assert status == 0
    (row,) = json.loads(buffer.getvalue())["rows"]
    assert row[-1] == ""
    cells = [complex(*cell) if isinstance(cell, list) else cell
             for cell in row[1:-1]]
    with mpmath.workdps(60):
        want = [complex(value) for value in reference()]
    assert len(cells) == len(want)
    for got, ref in zip(cells, want):
        # a reference of 0 is a relative residual column, bounded as one
        assert abs(got - ref) <= TOLERANCE * (abs(ref) or 1.0), (got, ref)


@pytest.mark.parametrize("x", ["4.5e-306", "1e-300", "1e-200", "1e-160",
                               "1e-154", "1e-100", "1e-50", "1e-13"])
def test_casimir_below_the_lattice_is_its_weak_coupling_limit(x):
    # from 800/DBL_MAX to 1e-13: TM = -C sqrt(x) up to a relative x^(3/2),
    # and a^4 P = 3F - x F' = 5/2 F, since x TM' = (TM - TE)/2 and TE is
    # about x^(3/2) of F. Below about 2.6e-153 TE is subnormal, and below
    # about 2.8e-161 it is 0, and so is te_share.
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(["casimir", "--omega-a", x, "--raw-units",
                       "--format", "json"])
    assert status == 0
    (row,) = json.loads(buffer.getvalue())["rows"]
    _, energy, te_share, tm_share, _, pressure, error = row
    assert error == ""
    x = float(x)
    assert abs(tm_share * energy / (-WEAK_C * x**0.5) - 1.0) <= 1e-11
    assert abs(pressure / energy - 2.5) <= 1e-14
    assert 0.0 <= te_share <= x**1.5


def test_reflection_sweep_whose_squares_underflow():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(["reflection", "--k0", "2e-170", "--kpar-min", "0",
                       "--kpar-max", "1e-170", "--count", "3",
                       "--format", "json"])
    assert status == 0
    rows = json.loads(buffer.getvalue())["rows"]
    assert len(rows) == 3
    for row in rows:
        assert row[-1] == ""
        with mpmath.workdps(60):
            want = [complex(value) for value in _reflection(2e-170, row[0])]
        for got, ref in zip(row[1:-1], want):
            assert abs(complex(*got) - ref) <= TOLERANCE * abs(ref)
