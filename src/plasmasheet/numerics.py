"""Quadrature, root finding and spherical Bessel machinery.

Plain numerics, no sheet physics. Two fixed rules that take array-valued
integrands (a trapezoidal rule in ln k for e^-k weighted integrals, and
Gauss-Legendre), QUADPACK and Brent sit behind small contracts that fail
loudly instead of returning silently inaccurate numbers. The spherical
Bessel family is computed by hand-written complex recurrences.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, optimize

from .errors import BracketError, IterationLimitError, ToleranceNotMet

__all__ = [
    "QuadratureSpec",
    "integrate_exponential_weight",
    "integrate_legendre",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "find_root_bracketed",
    "spherical_bessel_j",
    "spherical_hankel1",
    "riccati_bessel",
    "LMAX_DEFAULT",
]

# Upward/downward recurrences are exercised well inside their stability range
# up to this order; callers needing more must raise the limit explicitly.
LMAX_DEFAULT = 50

_QUAD_KINDS = ("exponential-weight", "gauss-legendre", "adaptive-finite",
               "semi-infinite-transformed")


@dataclass(frozen=True)
class QuadratureSpec:
    """Method selector and tolerance budget for the integration helpers.

    Parameters
    ----------
    kind : str
        One of ``exponential-weight``, ``gauss-legendre``,
        ``adaptive-finite``, ``semi-infinite-transformed``.
    order : int
        Starting step count of the log-k trapezoid rule (exponential-weight),
        starting Gauss-Legendre order (gauss-legendre), or subdivision budget
        scale of the QUADPACK routines. At least 2.
    rtol : float
        Relative tolerance, in (0, 1e-3]. Defaults to 1e-8.
    abs_floor : float
        Absolute tolerance floor protecting near-zero results.
    """

    kind: str = "adaptive-finite"
    order: int = 32
    rtol: float = 1e-8
    abs_floor: float = 1e-300

    def __post_init__(self):
        if self.kind not in _QUAD_KINDS:
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.order < 2:
            raise ValueError("order must be at least 2")
        if not 0.0 < self.rtol <= 1e-3:
            raise ValueError("rtol must be in (0, 1e-3]")
        if self.abs_floor < 0.0:
            raise ValueError("abs_floor must be nonnegative")


# The exponential-weight rule works in u = ln k on a fixed range: the part
# of the integral below _K_MIN is at most 1e-20 times sup |f| there, and
# above _K_MAX the weight e^-k underflows to zero.
_K_MIN = 1e-20
_K_MAX = 800.0
# Refinement stops after this many halvings of the starting step.
_MAX_HALVINGS = 10
# leggauss builds a rule by an eigenvalue solve that grows as order^3.
_LEGENDRE_MAX_ORDER = 512


def _frozen(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _log_k_level(panels, level):
    """Nodes k and weights h e^-k k of one level of the log-k trapezoid rule.

    Level 0 is the whole rule with `panels` steps; level n > 0 holds only
    the midpoints that the n-th halving of the step adds.
    """
    lo, hi = math.log(_K_MIN), math.log(_K_MAX)
    if level == 0:
        u = np.linspace(lo, hi, panels + 1)
        h = (hi - lo) / panels
        ends = np.ones_like(u)
        ends[[0, -1]] = 0.5
    else:
        count = panels * 2 ** (level - 1)
        h = (hi - lo) / (2 * count)
        u = lo + h * (2 * np.arange(count) + 1)
        ends = 1.0
    k = np.exp(u)
    return _frozen(k, h * ends * np.exp(u - k))


@functools.lru_cache(maxsize=None)
def _legendre_rule(order):
    """Gauss-Legendre nodes mapped to [0, 1] and their weights."""
    nodes, weights = leggauss(order)
    return _frozen(0.5 * (nodes + 1.0), 0.5 * weights)


def _refine(estimates, spec, what):
    """First estimate that agrees with its predecessor to spec.rtol.

    Estimates may be arrays; then every element must agree.
    """
    prev, gap = next(estimates), math.inf
    for cur in estimates:
        diff = np.abs(cur - prev)
        if np.all(diff <= spec.rtol * np.abs(cur) + spec.abs_floor):
            return cur
        prev, gap = cur, float(np.max(diff))
    raise ToleranceNotMet(f"{what} did not reach rtol {spec.rtol:g}",
                          estimate=prev, error_bound=gap)


def integrate_exponential_weight(f, spec=None):
    """Integral of e^(-k) f(k) over k in [0, inf).

    Trapezoidal rule in u = ln k over k in [1e-20, 800], starting with
    ``spec.order`` steps. Each refinement halves the step and evaluates f only
    at the new midpoints, in one call on an array of nodes; it stops when two
    successive levels agree to ``spec.rtol``. The rule converges
    geometrically for integrands e^-k k^n R(k/x) with R analytic off
    (-inf, -1], whatever the scale x: in u they are analytic in a strip of
    width pi about the real axis.

    Parameters
    ----------
    f : callable
        Factor multiplying the e^(-k) weight. Takes an array of k and returns
        an array of the same shape.
    spec : QuadratureSpec, optional
        Tolerances and starting step count.

    Returns
    -------
    float

    Raises
    ------
    ToleranceNotMet
        When the levels still disagree after the last halving.
    """
    if spec is None:
        spec = QuadratureSpec(kind="exponential-weight")

    def levels():
        total = 0.0
        for level in range(_MAX_HALVINGS + 1):
            k, w = _log_k_level(spec.order, level)
            total = 0.5 * total + float(np.sum(w * f(k)))
            yield total

    return _refine(levels(), spec, "log-k trapezoid refinement")


def integrate_legendre(f, hi, spec=None):
    """Integrals of f(t) over t in [0, hi] for an array of upper limits hi.

    Gauss-Legendre rules starting at ``spec.order`` nodes, doubling the
    order until two successive orders agree to ``spec.rtol`` for every
    element. f receives the nodes as an array of shape hi.shape + (order,)
    and returns values of the same shape.

    Raises
    ------
    ToleranceNotMet
        When two orders up to 512 never agree.
    """
    if spec is None:
        spec = QuadratureSpec(kind="gauss-legendre")
    hi = np.asarray(hi, dtype=float)[..., None]

    def orders():
        order = spec.order
        while order <= _LEGENDRE_MAX_ORDER:
            nodes, weights = _legendre_rule(order)
            yield np.sum(weights * f(hi * nodes), axis=-1) * hi[..., 0]
            order *= 2

    return _refine(orders(), spec, "Gauss-Legendre order doubling")


def integrate_adaptive(f, lo, hi, spec=None, full_result=False):
    """Adaptive integral of f over the finite interval [lo, hi].

    Parameters
    ----------
    f : callable
    lo, hi : float
        Finite bounds with lo < hi.
    spec : QuadratureSpec, optional
    full_result : bool
        When true, return (value, error_bound, subdivisions) instead of the
        bare value.

    Returns
    -------
    float, or (float, float, int)
    """
    if spec is None:
        spec = QuadratureSpec(kind="adaptive-finite")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    limit = max(50, 4 * spec.order)
    out = integrate.quad(f, lo, hi, epsabs=spec.abs_floor, epsrel=spec.rtol,
                         limit=limit, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3:
        raise ToleranceNotMet(
            f"adaptive quadrature failed on [{lo}, {hi}]: {out[3]}",
            estimate=value, error_bound=abserr)
    if full_result:
        return value, abserr, info["last"]
    return value


def integrate_semi_infinite(f, spec=None, scale=1.0):
    """Adaptive integral of f over [0, inf) via the map k = scale t/(1-t).

    The integrand must decay fast enough that f(k)/(1-t)^2 stays bounded;
    exponential tails qualify. ``scale`` should match the decay length so the
    transformed integrand is well resolved.
    """
    if spec is None:
        spec = QuadratureSpec(kind="semi-infinite-transformed")
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def transformed(t):
        if t >= 1.0:
            return 0.0
        u = 1.0 - t
        fk = f(scale * t / u)
        if fk == 0.0:
            return 0.0
        return fk * scale / (u * u)

    return integrate_adaptive(transformed, 0.0, 1.0, spec)


def find_root_bracketed(f, lo, hi, tol=1e-12, maxiter=200):
    """Root of f inside [lo, hi], bisection-safeguarded superlinear iteration.

    Parameters
    ----------
    f : callable
        Continuous on the bracket with a sign change across it.
    lo, hi : float
    tol : float
        Residual contract: |f(root)| <= tol * max(|f(lo)|, |f(hi)|).

    Returns
    -------
    float
    """
    if lo >= hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    scale = max(abs(flo), abs(fhi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change over [{lo}, {hi}]")
    root, info = optimize.brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                                 maxiter=maxiter, full_output=True, disp=False)
    if not info.converged:
        raise IterationLimitError(f"no convergence in {maxiter} iterations")
    if abs(f(root)) > tol * scale:
        raise IterationLimitError(
            f"residual {abs(f(root)):.3e} above {tol:.1e} * bracket scale {scale:.3e}")
    return float(root)


def _check_l(l, l_max):
    if not isinstance(l, (int, np.integer)):
        raise ValueError("l must be an integer")
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l > l_max:
        raise ValueError(f"l={l} exceeds the recurrence stability limit {l_max}")


def _sph_j_pair(l, z):
    """(j_{l-1}(z), j_l(z)) by downward Miller recurrence, complex z."""
    if z == 0:
        raise ValueError("z=0 must be special-cased by the caller")
    # Seed far above l, recurse down, then normalize against the closed-form
    # j_0 (or j_1 near zeros of sin z). Downward is the stable direction for j.
    start = l + 20 + int(1.2 * abs(z))
    jp = 0.0 + 0.0j
    jc = 1e-30 + 0.0j
    saved = {}
    for n in range(start, 0, -1):
        if n - 1 == l or n - 1 == l - 1 or n - 1 <= 1:
            saved[n - 1] = None  # placeholder so we know which to record
        jm = (2 * n + 1) / z * jc - jp
        jp, jc = jc, jm
        if n - 1 in saved:
            saved[n - 1] = jc
        if abs(jc.real) > 1e250 or abs(jc.imag) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            for key, val in saved.items():
                if val is not None:
                    saved[key] = val * 1e-250
    j0_exact = cmath.sin(z) / z
    j1_exact = cmath.sin(z) / z**2 - cmath.cos(z) / z
    j0_trial = saved.get(0)
    j1_trial = saved.get(1, j0_trial)
    if abs(j0_trial) >= abs(j1_trial):
        factor = j0_exact / j0_trial
    else:
        factor = j1_exact / j1_trial
    if l == 0:
        return cmath.cos(z) / z, j0_exact
    jl = saved[l] * factor
    jlm1 = j0_exact if l == 1 else saved[l - 1] * factor
    return jlm1, jl


def _sph_h_pair(l, z):
    """(h1_{l-1}(z), h1_l(z)) by upward recurrence from closed seeds."""
    hm = cmath.exp(1j * z) / z          # order -1
    hc = -1j * cmath.exp(1j * z) / z    # order 0
    if l == 0:
        return hm, hc
    for n in range(0, l):
        hm, hc = hc, (2 * n + 1) / z * hc - hm
    return hm, hc


def spherical_bessel_j(l, z, l_max=LMAX_DEFAULT):
    """Spherical Bessel function j_l(z) for real or complex z.

    Real input gives a real result. z=0 is the regular point j_l(0) = [l == 0].
    """
    _check_l(l, l_max)
    if z == 0:
        return 1.0 if l == 0 else 0.0
    zc = complex(z)
    _, jl = _sph_j_pair(l, zc)
    if isinstance(z, complex):
        return jl
    return jl.real


def spherical_hankel1(l, z, l_max=LMAX_DEFAULT):
    """Spherical Hankel function of the first kind, h_l(z) = j_l(z) + i y_l(z).

    Always complex; z must be nonzero (irregular point).
    """
    _check_l(l, l_max)
    if z == 0:
        raise ValueError("spherical Hankel function is singular at z=0")
    _, hl = _sph_h_pair(l, complex(z))
    return hl


def riccati_bessel(l, z, l_max=LMAX_DEFAULT):
    """Riccati-Bessel pair (z j_l, z h_l) and their derivatives.

    Returns
    -------
    (rj, rjp, rh, rhp) : tuple of complex
        rj = z j_l(z), rjp = d/dz [z j_l(z)], same for the Hankel pair.
        These satisfy the Wronskian identity rj * rhp - rjp * rh = i.
    """
    _check_l(l, l_max)
    if z == 0:
        raise ValueError("Riccati-Bessel functions need z != 0")
    zc = complex(z)
    jm, jl = _sph_j_pair(l, zc)
    hm, hl = _sph_h_pair(l, zc)
    rj = zc * jl
    rjp = zc * jm - l * jl
    rh = zc * hl
    rhp = zc * hm - l * hl
    return rj, rjp, rh, rhp
