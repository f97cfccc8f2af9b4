"""numerics.minimize_bounded against scipy's bounded minimizer.

``minimize_bounded`` is scipy's fminbound on Python floats. scipy stays the
oracle here, and only here: the x, the f(x) and the number of calls must
match it bit for bit. scipy's arithmetic runs on numpy scalars, which warn
where an infinite f makes inf - inf, so the oracle runs with numpy's
warnings off.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from plasmasheet import numerics
from plasmasheet.sphere import SphericalShell, jost_te, jost_tm


def _counted(f):
    """f with a count of its calls in .calls."""

    def wrapper(x):
        wrapper.calls += 1
        return f(x)

    wrapper.calls = 0
    return wrapper


def _ours(f, lo, hi, xatol):
    counted = _counted(f)
    x, fun = numerics.minimize_bounded(counted, lo, hi, xatol)
    return repr(x), repr(fun), counted.calls


def _scipy(f, lo, hi, xatol):
    with np.errstate(all="ignore"):
        result = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                 options={"xatol": xatol})
    return repr(float(result.x)), repr(float(result.fun)), result.nfev


CASES = {
    "parabola": (lambda x: (x - 0.3) ** 2, 0.0, 1.0),
    "parabola at the edge": (lambda x: (x - 1.0) ** 2, 0.0, 1.0),
    "parabola beyond the edge": (lambda x: (x + 0.5) ** 2, 0.0, 1.0),
    "shifted quartic": (lambda x: (x - 2.7) ** 4 + 1.0, -3.0, 7.0),
    "flat": (lambda x: 1.0, 0.0, 2.0),
    "inf on the right": (lambda x: math.inf if x > 0.6 else (x - 0.5) ** 2,
                         0.0, 1.0),
    "inf on the left": (lambda x: math.inf if x < 0.45 else (x - 0.5) ** 2,
                        0.0, 1.0),
    "inf but near the minimum": (
        lambda x: (x - 0.5) ** 2 if abs(x - 0.5) < 1e-3 else math.inf,
        0.0, 1.0),
    "cosine": (math.cos, 2.0, 4.5),
    # plateaus: a new point ties with the second best
    "staircase": (lambda x: round(16.0 * abs(x - 0.57)) / 16.0, 0.0, 1.0),
    "one point": (lambda x: x * x, 0.25, 0.25),
}


@pytest.mark.parametrize("xatol", [1e-5, 1e-12])
@pytest.mark.parametrize("case", CASES)
def test_matches_scipy(case, xatol):
    f, lo, hi = CASES[case]
    assert _ours(f, lo, hi, xatol) == _scipy(f, lo, hi, xatol)


def test_stops_after_500_calls():
    # |x| defeats the parabola and xatol asks for a width below any float
    # step near 0, so golden sections run until the call limit
    got = _ours(abs, -1.0, 1.0, 1e-300)
    assert got[2] == 500
    assert got == _scipy(abs, -1.0, 1.0, 1e-300)


@pytest.mark.parametrize("jost", [jost_te, jost_tm])
@pytest.mark.parametrize("l, omega_r", [(1, 1.0), (3, 0.1), (5, 0.1),
                                        (7, 30.0), (20, 2.0)])
def test_abs_g_squared_on_grid_brackets(jost, l, omega_r):
    # the brackets scan_real_zeros refines: neighbours of each grid minimum
    shell = SphericalShell(radius=1.0, omega=omega_r)
    grid = np.linspace(math.pi / 20, 30.0, 191).tolist()

    def abs_g_squared(z):
        return abs(jost(l, float(z), shell)) ** 2

    values = [abs_g_squared(z) for z in grid]
    minima = [i for i in range(1, len(grid) - 1)
              if values[i] <= values[i - 1] and values[i] <= values[i + 1]]
    assert minima
    for i in minima:
        lo, hi = grid[i - 1], grid[i + 1]
        assert (_ours(abs_g_squared, lo, hi, 1e-12)
                == _scipy(abs_g_squared, lo, hi, 1e-12)), (lo, hi)


def test_returns_floats():
    x, fun = numerics.minimize_bounded(lambda x: (x - 0.3) ** 2, 0.0, 1.0,
                                       1e-12)
    assert type(x) is float and type(fun) is float
    assert abs(x - 0.3) < 1e-8


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, math.inf),
                                    (-math.inf, 0.0), (math.nan, 1.0)])
def test_rejects_unusable_bounds(lo, hi):
    with pytest.raises(ValueError, match="invalid bounds"):
        numerics.minimize_bounded(lambda x: x, lo, hi, 1e-12)


def test_scan_imports_no_scipy_optimize():
    code = ("import sys\n"
            "import plasmasheet\n"
            "assert plasmasheet.scan_real_zeros(\n"
            "    3, plasmasheet.SphericalShell(1.0, 10.0)) == []\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=120)
    assert result.stdout == "False\n"
