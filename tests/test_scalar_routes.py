"""Scalar calls keep the bits of the array forms.

A real scalar reaches the spherical Bessel functions and the Jost
functions on Python floats, without building numpy arrays; bisection and
the plasmon routes run a scalar as a 0-d array through their array path.
Each test here holds the scalar result against the same value computed
on arrays: a one-element array where the public function takes one, and
otherwise ``numerics._sph_jh``'s own array route, called on a 0-d array.
Values are compared by ``repr`` of Python floats and complex numbers, so
every bit counts, signed zeros and infinities included.
"""

import functools
import math

import numpy as np
import pytest
from scipy import special
from scipy.special import cython_special

from plasmasheet import numerics, sheet, sphere
from plasmasheet.errors import BracketError, IterationLimitError, SheetModelError
from plasmasheet.sphere import (
    SphericalShell,
    jost_te,
    jost_te_riccati,
    jost_tm,
    jost_tm_decomposed,
    scan_real_zeros,
)

ORDERS = range(0, 61)
ARGUMENTS = np.geomspace(1e-6, 1e3, 37).tolist()
# where a Bessel value is 0, inf or NaN
EDGE_ARGUMENTS = [math.inf, math.nan, 5e-324, 1e-310, 2.2250738585072014e-308]
# from 2^52 up, where every float is an integer, to the top of the float range
LARGE_ARGUMENTS = [2.0**52, 1e17, 1e30, 1e100, 1e300, 8.9e307, 1.7e308]


def _sph_jh_on_arrays(orders, z, _sph_jh=numerics._sph_jh):
    """_sph_jh of a real scalar z on its array route, as a 0-d array; other
    z go to _sph_jh itself."""
    if isinstance(z, (np.ndarray, complex)):
        return _sph_jh(orders, z)
    return _sph_jh(orders, np.array(float(z)))


def _bits(value):
    """repr of a value as Python numbers, through tuples and arrays."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, complex):
        return repr(complex(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _outcome(f, *args):
    """The bits of f(*args), or the type and message of what it raised."""
    try:
        return _bits(f(*args))
    except (ArithmeticError, ValueError, SheetModelError) as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def on_arrays(monkeypatch):
    """Runs a call with _sph_jh on arrays of orders, so that the arithmetic
    after it runs on numpy scalars."""

    def run(f, *args):
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_sph_jh", _sph_jh_on_arrays)
            patch.setattr(sphere, "_sph_jh", _sph_jh_on_arrays)
            with np.errstate(all="ignore"):
                return _outcome(f, *args)

    return run


class TestSphericalBessel:
    def test_sph_jh_matches_the_array_of_orders(self):
        for l in ORDERS:
            orders = (l - 1, l)
            for x in ARGUMENTS + EDGE_ARGUMENTS + LARGE_ARGUMENTS:
                for z in (x, -x):
                    got = numerics._sph_jh(orders, z)
                    assert isinstance(got[0][0], float)
                    with np.errstate(all="ignore"):
                        want = _sph_jh_on_arrays(orders, z)
                    assert _bits(got) == _bits(want), (l, z)

    def test_infinite_scalar_matches_a_one_element_array(self):
        # spherical_jn/yn give signed zeros at +-inf
        for l in range(0, 11):
            for z in (math.inf, -math.inf):
                for f in (numerics.spherical_bessel_j, numerics.spherical_hankel1):
                    assert _bits(f(l, z)) == _bits(f(l, np.array([z]))[0]), (f, l, z)
                # z j_l has no limit there
                with pytest.raises(ValueError, match="leave the float range"):
                    numerics.riccati_bessel(l, z)
                with np.errstate(invalid="ignore"):
                    pair = numerics.riccati_bessel(l, np.array([z]))
                assert all(np.isnan(part).all() for part in pair)
        assert repr(numerics.spherical_bessel_j(1, -math.inf)) == "-0.0"

    def test_large_scalar_is_the_asymptote(self):
        # h_n(x) = (-i)^(n+1) e^(ix) / x to O(n^2/x), with sin x and cos x
        # reduced exactly by libm
        for x in LARGE_ARGUMENTS:
            s, c = math.sin(x), math.cos(x)
            for n, (j, y) in enumerate(((s, -c), (-c, -s), (-s, c), (c, s))):
                h = numerics.spherical_hankel1(n, x)
                assert abs(h - complex(j / x, y / x)) <= 1e-14 / x, (n, x)
                assert numerics.spherical_bessel_j(n, x) == h.real

    def test_numpy_float_takes_the_float_route(self):
        for z, x in ((np.float64(1.7), 1.7), (2, 2.0), (np.int64(-2), -2.0)):
            got = numerics._sph_jh((2, 3), z)
            assert [type(v) for v in got[0] + got[1]] == [float] * 2 + [complex] * 2
            assert _bits(got) == _bits(numerics._sph_jh((2, 3), x))

    @pytest.mark.parametrize("name", ["spherical_bessel_j", "spherical_hankel1",
                                      "riccati_bessel"])
    def test_public_functions_match_the_array_of_orders(self, name, on_arrays):
        f = getattr(numerics, name)
        for l in range(0, 61, 4):
            for x in ARGUMENTS[::3]:
                for z in (x, -x):
                    assert _outcome(f, l, z) == on_arrays(f, l, z), (l, z)

    def test_riccati_nan_raises_for_a_scalar(self):
        # y_42(1e-6) is beyond the float range, and 1e-6 * h_42 would have
        # a NaN real part
        for z in (1e-6, -1e-6):
            with pytest.raises(ValueError, match="l = 42, z = -?1e-06"):
                numerics.riccati_bessel(42, z)
        assert numerics.spherical_hankel1(42, 1e-6) == complex(0.0, -math.inf)
        assert numerics.spherical_bessel_j(42, 1e-6) == 0.0

    def test_one_spherical_jn_and_yn_call_per_order(self, monkeypatch):
        # a real scalar calls cython_special, a real array the ufuncs
        calls = {}

        def counted(module, name):
            original = getattr(module, name)
            key = f"{module.__name__.rpartition('.')[2]}.{name}"

            @functools.wraps(original)
            def wrapper(*args):
                calls[key] = calls.get(key, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module in (cython_special, special):
            for name in ("spherical_jn", "spherical_yn"):
                counted(module, name)
        for z in (1.7, -1.7, np.float64(1.7)):
            for orders in ((3,), (2, 3), (-1, 0)):
                calls.clear()
                numerics._sph_jh(orders, z)
                assert calls == {"cython_special.spherical_jn": len(orders),
                                 "cython_special.spherical_yn": len(orders)}
        calls.clear()
        numerics._sph_jh((2, 3), np.array([1.7, 2.0]))
        assert calls == {"special.spherical_jn": 1, "special.spherical_yn": 1}


class TestJostRoutes:
    ROUTES = (jost_te, jost_te_riccati, jost_tm, jost_tm_decomposed)

    @pytest.mark.parametrize("omega, radius", [(0.01, 1.0), (1.0, 0.5),
                                               (30.0, 2.0)])
    def test_routes_match_the_array_of_orders(self, omega, radius, on_arrays):
        shell = SphericalShell(radius=radius, omega=omega)
        for l in (1, 2, 3, 7, 15, 27, 45):
            for k0r in np.geomspace(1e-3, 200.0, 25).tolist():
                k0 = k0r / radius
                for route in self.ROUTES:
                    want = on_arrays(route, l, k0, shell)
                    assert _outcome(route, l, k0, shell) == want, (route, l, k0)
                    assert _outcome(route, l, np.float64(k0), shell) == want

    def test_a_real_scalar_gives_a_python_complex(self):
        shell = SphericalShell(radius=1.0, omega=1.0)
        for route in self.ROUTES:
            assert type(route(3, np.float64(1.7), shell)) is complex

    def test_scan_matches_the_array_of_orders(self, on_arrays):
        # the grid of acceptance criterion 09; an infinite threshold keeps
        # every local minimum, so each bounded minimization is compared
        def minima(l, shell):
            return repr([(c.l, c.polarization, c.k0r_interval,
                          c.k0r_location, c.min_abs_g_squared,
                          float(c.imag_part_floor))
                         for c in scan_real_zeros(l, shell,
                                                  threshold=math.inf,
                                                  certify_nonzero=False)])

        for l in range(1, 6):
            for omega_r in (0.1, 1.0, 10.0):
                shell = SphericalShell(radius=1.0, omega=omega_r)
                got = minima(l, shell)
                assert got != "[]"
                assert got == on_arrays(minima, l, shell), (l, omega_r)
                assert scan_real_zeros(l, shell) == []


def test_scan_beyond_the_float_range_of_g_squared():
    # |g| ~ Omega R passes 1e154, where a float square overflows; such a
    # minimum is infinite, not a zero
    shell = SphericalShell(radius=1.0, omega=1e160)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert scan_real_zeros(1, shell) == []


def _elementwise(g):
    """g on a float, or on each element of an array."""
    return lambda x: (np.vectorize(g, otypes=[float])(x)
                      if isinstance(x, np.ndarray) else g(x))


class TestBisection:
    CASES = {
        "sqrt3": (lambda x: x * x - 3.0, 0.0, 2.0),
        "root at lo": (lambda x: x, 0.0, 1.0),
        "root at hi": (lambda x: x - 1.0, 0.0, 1.0),
        "roots at both ends": (lambda x: x * (x - 1.0), 0.0, 1.0),
        "nan midpoint": (lambda x: math.nan if x == 0.5 else x - 0.7,
                         0.0, 1.0),
        "residual": (lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0),
        "no sign change": (lambda x: x * x + 1.0, -1.0, 1.0),
        "nan end": (lambda x: math.nan if x == 1.0 else x, -1.0, 1.0),
        "invalid bracket": (lambda x: x, 1.0, -1.0),
        "nan bracket": (lambda x: x, math.nan, 1.0),
        "subnormal root": (lambda x: x - 1e-310, 0.0, 1.0),
    }

    @staticmethod
    def _run(f, lo, hi):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        try:
            result = _bits(np.ravel(numerics.find_root_bracketed(
                counted, lo, hi)))
        except (BracketError, IterationLimitError, ValueError) as exc:
            result = type(exc).__name__, str(exc)
        return result, calls

    @pytest.mark.parametrize("case", CASES)
    def test_float_bracket_takes_the_array_steps(self, case):
        g, lo, hi = self.CASES[case]
        f = _elementwise(g)
        scalar = self._run(f, lo, hi)
        array = self._run(f, np.array([lo]), np.array([hi]))
        assert scalar == array

    def test_float_bracket_returns_a_float(self):
        root = numerics.find_root_bracketed(lambda x: x * x - 3.0, 0.0, 2.0)
        assert type(root) is float

    def test_float_bracket_calls_f_with_floats(self):
        seen = set()

        def f(x):
            seen.add(type(x))
            return x - 0.25

        numerics.find_root_bracketed(f, 0, np.float64(1.0))
        assert seen == {float}


class TestPlasmonRoutes:
    OMEGAS = np.geomspace(1e-200, 1e200, 21).tolist()
    RATIOS = np.geomspace(1e-12, 1e8, 11).tolist()

    @pytest.mark.parametrize("route", [sheet.tm_plasmon_root,
                                       sheet.tm_plasmon_closed])
    def test_float_matches_a_one_element_array(self, route):
        for omega in self.OMEGAS:
            sp = sheet.SheetParameters(omega)
            for ratio in self.RATIOS:
                kpar = ratio * omega
                got = route(kpar, sp)
                assert type(got) is float
                assert _bits(got) == _bits(route(np.array([kpar]), sp)[0]), (
                    omega, kpar)

    def test_float_plasmon_errors_match_the_array(self):
        sp = sheet.SheetParameters(1.0)
        for kpar in (0.0, -1.0, math.inf, math.nan):
            for route in (sheet.tm_plasmon_root, sheet.tm_plasmon_closed):
                assert _outcome(route, kpar, sp)[0] == _outcome(
                    route, np.array([kpar]), sp)[0]
