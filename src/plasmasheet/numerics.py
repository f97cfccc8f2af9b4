"""Quadrature, root finding and spherical Bessel machinery.

Plain numerics, no sheet physics. Two fixed rules that take array-valued
integrands (a trapezoidal rule in ln k for e^-k weighted integrals, and
Gauss-Legendre) and bisection sit behind small contracts that fail loudly
instead of returning silently inaccurate numbers. The QUADPACK wrappers
``integrate_adaptive`` and ``integrate_semi_infinite`` keep the same
contract, but no package code calls them: they stay only because the
benchmark tracer in ``perfbench/tracing.py`` wraps them by name.

The spherical Bessel functions come from one primitive, ``_sph_jh``, that
makes one scipy call per function over all requested orders. A real
ndarray goes to ``spherical_jn``/``spherical_yn``, which are the fastest
over a whole array. A real scalar goes to the ``jv``/``yv`` ufuncs, which
skip that wrapper's per-call cost. On both real routes Re h = j exactly,
since h is assembled from j and y part by part. A complex
argument goes to the exponentially scaled ``jve``/``hankel1e``: on the
imaginary axis z = i kappa, j and y grow like e^kappa while h = j + i y
falls like e^-kappa, so the scaled pair keeps products such as j h finite
where the functions themselves overflow.

scipy is imported on first use: importing it takes longer than the rest of
the package together.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BracketError, IterationLimitError, ToleranceNotMet

__all__ = [
    "MAX_RTOL",
    "MIN_RTOL",
    "QuadratureSpec",
    "integrate_exponential_weight",
    "integrate_legendre",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "find_root_bracketed",
    "spherical_bessel_j",
    "spherical_hankel1",
    "riccati_bessel",
]

# Largest relative tolerance a quadrature accepts.
MAX_RTOL = 1e-3
# Smallest relative tolerance a run may ask for. The nested rules refine
# their inner integral to a tenth of it, and at 1e-14 the Casimir inner
# Gauss-Legendre rule never meets 1e-15. QuadratureSpec does not apply it,
# since those inner specs sit below it.
MIN_RTOL = 1e-13
# Absolute tolerance floor protecting near-zero results.
_ABS_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget of the integration helpers.

    The integrator a caller picks is the method; the spec sets only its
    starting order and tolerances.

    Parameters
    ----------
    order : int
        Starting step count of the log-k trapezoid rule
        (``integrate_exponential_weight``), starting Gauss-Legendre order
        (``integrate_legendre``), or subdivision budget scale of the QUADPACK
        routines. At least 2.
    rtol : float
        Relative tolerance, in (0, MAX_RTOL]. Defaults to 1e-8.
    """

    order: int = 32
    rtol: float = 1e-8

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be at least 2")
        if not 0.0 < self.rtol <= MAX_RTOL:
            raise ValueError(f"rtol must be in (0, {MAX_RTOL:g}]")


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
        if np.all(diff <= spec.rtol * np.abs(cur) + _ABS_FLOOR):
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
        an array of the same shape, or of shape (m, len(k)) for m integrands
        on the same nodes.
    spec : QuadratureSpec, optional
        Tolerances and starting step count.

    Returns
    -------
    float, or an array of m floats that each reached ``spec.rtol``

    Raises
    ------
    ToleranceNotMet
        When the levels still disagree after the last halving.
    """
    if spec is None:
        spec = QuadratureSpec()

    def levels():
        total = 0.0
        for level in range(_MAX_HALVINGS + 1):
            k, w = _log_k_level(spec.order, level)
            total = 0.5 * total + np.sum(w * f(k), axis=-1)
            yield total

    result = _refine(levels(), spec, "log-k trapezoid refinement")
    return float(result) if np.ndim(result) == 0 else result


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
        spec = QuadratureSpec()
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
        spec = QuadratureSpec()
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    # Imported on first use: no package code calls QUADPACK any more, and
    # scipy.integrate adds about 0.15 s to the package import.
    from scipy import integrate

    limit = max(50, 4 * spec.order)
    out = integrate.quad(f, lo, hi, epsabs=_ABS_FLOOR, epsrel=spec.rtol,
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
        spec = QuadratureSpec()
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
    """Root of f inside [lo, hi], bisected down to neighbouring floats.

    Parameters
    ----------
    f : callable
        Continuous on each bracket with a sign change across it. Called once
        per step on all midpoints: with floats for scalar lo and hi, else
        with arrays of their broadcast shape.
    lo, hi : float or array
    tol : float
        Residual contract: |f(root)| <= tol * max(|f(lo)|, |f(hi)|).

    Returns
    -------
    float, or an array of that shape
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    call = (lambda x: f(float(x))) if scalar else f
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    bad = np.flatnonzero(~(lo < hi))
    if bad.size:
        raise ValueError(f"invalid bracket [{lo.flat[bad[0]]}, {hi.flat[bad[0]]}]")
    flo, fhi = call(lo), call(hi)
    scale = np.maximum(np.abs(flo), np.abs(fhi))
    sign_lo, sign_hi = np.sign(flo), np.sign(fhi)
    bad = np.flatnonzero(~(sign_lo * sign_hi <= 0))
    if bad.size:
        raise BracketError(f"no sign change over [{lo.flat[bad[0]]}, {hi.flat[bad[0]]}]")
    # an endpoint root closes its bracket, on lo when both ends are roots
    lo = np.where((sign_hi == 0) & (sign_lo != 0), hi, lo)
    hi = np.where(sign_lo == 0, lo, hi)
    for step in range(maxiter + 1):
        mid = 0.5 * lo + 0.5 * hi
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        if step == maxiter:
            raise IterationLimitError(f"no convergence in {maxiter} iterations")
        sign_mid = np.sign(call(mid))
        # a zero or NaN at the midpoint closes the bracket there
        lo = np.where(inside & (sign_mid != sign_hi), mid, lo)
        hi = np.where(inside & (sign_mid != sign_lo), mid, hi)
    residual = np.abs(call(mid))
    bad = np.flatnonzero(~(residual <= tol * scale))
    if bad.size:
        raise IterationLimitError(
            f"residual {residual.flat[bad[0]]:.3e} above {tol:.1e} "
            f"* bracket scale {scale.flat[bad[0]]:.3e}")
    return float(mid) if scalar else mid


def _check_l(l):
    if not isinstance(l, (int, np.integer)):
        raise ValueError("l must be an integer")
    if l < 0:
        raise ValueError("l must be nonnegative")


def _sph_jh(orders, z):
    """Spherical Bessel j_n(z) and Hankel h_n(z) = j_n + i y_n for n in orders.

    Returns (j, h, phase): arrays of shape (len(orders),) + shape(z), and
    the factor with j_n(z) h_n(z) = phase * j * h. One scipy call per
    function; the module docstring gives the reason for each route. For a
    real z, j and h are the functions themselves and phase = 1 (order -1
    is j_-1 = -y_0, y_-1 = j_0; a negative real scalar uses
    j_n(-x) = (-1)^n j_n(x), y_n(-x) = (-1)^(n+1) y_n(x)). For a complex
    z, j = j_n e^-|Im z| and h = h_n e^-iz (``jve``, ``hankel1e``).
    """
    from scipy import special

    n = np.array(orders)
    if isinstance(z, np.ndarray):
        n = n.reshape((-1,) + (1,) * z.ndim)
    if _is_complex(z):
        front = math.sqrt(math.pi / 2) / np.sqrt(z)
        return (front * special.jve(n + 0.5, z),
                front * special.hankel1e(n + 0.5, z), _jh_phase(z, z))
    if isinstance(z, np.ndarray):
        j = special.spherical_jn(np.maximum(n, 0), z)
        y = special.spherical_yn(np.maximum(n, 0), z)
        if n[0] < 0:
            j[0], y[0] = -y[1], j[1]
    else:
        x = abs(z)
        front = math.sqrt(math.pi / (2 * x))
        j = front * special.jv(n + 0.5, x)
        y = front * special.yv(n + 0.5, x)
        if z < 0:
            j, y = (-1.0) ** n * j, (-1.0) ** (n + 1) * y
    # set the parts one by one: j + 1j * y would turn an infinite y into a
    # NaN real part
    h = np.empty(j.shape, dtype=complex)
    h.real, h.imag = j, y
    return j, h, 1.0


def _jh_phase(z_in, z_out):
    """Factor with j_n(z_in) h_n(z_out) = factor * j * h.

    j and h are what _sph_jh returns at z_in and at z_out. For complex
    arguments the factor is e^(|Im z_in| + i z_out), of modulus at most 1
    when 0 <= Im z_in <= Im z_out.
    """
    if _is_complex(z_out):
        return np.exp(np.abs(np.imag(z_in)) + 1j * z_out)
    return 1.0


def _is_complex(z):
    return isinstance(z, complex) or (
        isinstance(z, np.ndarray) and z.dtype.kind == "c")


def _unscaled(z, j, h):
    """j_n(z) and h_n(z) from the (j, h) that _sph_jh returns."""
    if _is_complex(z):
        return j * np.exp(np.abs(z.imag)), h * np.exp(1j * z)
    return j, h


def _riccati_scaled(l, z):
    """(rj, rjp, rh, rhp, phase): riccati_bessel in the scaling of _sph_jh.

    The derivatives come from the downward identity
    d/dz [z f_l] = z f_(l-1) - l f_l.
    """
    (jm, jl), (hm, hl), phase = _sph_jh((l - 1, l), z)
    return z * jl, z * jm - l * jl, z * hl, z * hm - l * hl, phase


def _require_nonzero(z, message):
    if (z == 0).any() if isinstance(z, np.ndarray) else z == 0:
        raise ValueError(message)


def spherical_bessel_j(l, z):
    """Spherical Bessel function j_l(z) for real or complex z.

    Real input gives a real result, an ndarray an ndarray. z=0 is the
    regular point j_l(0) = [l == 0].
    """
    _check_l(l)
    if not isinstance(z, np.ndarray) and z == 0:
        return 1.0 if l == 0 else 0.0
    if isinstance(z, np.ndarray) and _is_complex(z) and (z == 0).any():
        # the scaled complex route divides by sqrt(z)
        j = spherical_bessel_j(l, np.where(z == 0, 1.0, z))
        j[z == 0] = 1.0 if l == 0 else 0.0
        return j
    (j,), (h,), _ = _sph_jh((l,), z)
    j, _ = _unscaled(z, j, h)
    if isinstance(z, (np.ndarray, complex)):
        return j
    return float(j)


def spherical_hankel1(l, z):
    """Spherical Hankel function of the first kind, h_l(z) = j_l(z) + i y_l(z).

    Always complex; z must be nonzero (irregular point).
    """
    _check_l(l)
    _require_nonzero(z, "spherical Hankel function is singular at z=0")
    (j,), (h,), _ = _sph_jh((l,), z)
    return _unscaled(z, j, h)[1]


def riccati_bessel(l, z):
    """Riccati-Bessel pair (z j_l, z h_l) and their derivatives.

    Returns
    -------
    (rj, rjp, rh, rhp) : tuple of scalars, or of arrays shaped like z
        rj = z j_l(z), rjp = d/dz [z j_l(z)], same for the Hankel pair.
        These satisfy the Wronskian identity rj * rhp - rjp * rh = i. The
        derivatives come from the downward identity
        d/dz [z f_l] = z f_(l-1) - l f_l.
    """
    _check_l(l)
    _require_nonzero(z, "Riccati-Bessel functions need z != 0")
    rj, rjp, rh, rhp, _ = _riccati_scaled(l, z)
    rj, rh = _unscaled(z, rj, rh)
    rjp, rhp = _unscaled(z, rjp, rhp)
    return rj, rjp, rh, rhp
