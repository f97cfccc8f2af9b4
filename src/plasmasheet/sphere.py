"""Spherical plasma shell: radial photon propagator and Jost functions.

A shell of radius R carries the same plasma model as the flat sheet. The
l-th partial wave scatters with Jost functions

    g_l^(1)(k0) = 1 + Omega R^2 d_l(R, R)            (TE)
    g_l^(2)(k0) = 1 + (i Omega/k0) j^'_l(k0 R) h^'_l(k0 R)   (TM)

built from the radial propagator d_l and Riccati-Bessel derivatives. For
real k0, Im g^(1) = Omega R^2 k0 j_l^2 and Im g^(2) = (Omega/k0) j^'_l^2
vanish only where Re g = 1: neither polarization has a real zero, that is,
a spherical surface plasmon. Since Re h = j holds exactly on the real axis,
the computed Im g is that square to a few ulp relative, and scan_real_zeros
certifies a minimum of |g| with Im g > 0 as a resonance, not a zero.

The Jost functions and the radial propagator take k0 as a scalar (real or
complex) or as any ndarray, evaluated in one pass over the array. The Jost
functions are built from exponentially scaled Bessel products, so they stay
finite on the imaginary axis k0 = i kappa; where a value still is not
finite they raise SheetModelError.
"""

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMomentumError, SheetModelError
from .numerics import (
    _check_l,
    _jh_phase,
    _riccati_scaled,
    _sph_jh,
    minimize_bounded,
)

# Unused here but stay bound: perfbench/tracing.py wraps them by name.
from .numerics import (  # noqa: F401
    riccati_bessel,
    spherical_bessel_j,
    spherical_hankel1,
)
from .sheet import MinkowskiMomentum, _scaled

__all__ = [
    "SphericalShell",
    "ZeroCandidate",
    "radial_propagator_dl",
    "jost_te",
    "jost_te_riccati",
    "jost_tm",
    "jost_tm_decomposed",
    "scan_real_zeros",
    "tm_flat_limit",
]


@dataclass(frozen=True)
class SphericalShell:
    """Shell radius and plasma strength; omega = 0 is the transparent limit."""

    radius: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be finite and positive")
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError("omega must be finite and non-negative")


def _require_dynamic(k0):
    """The one check of k0: nonzero and finite, every element of an array."""
    if isinstance(k0, np.ndarray):
        zero, finite = (k0 == 0).any(), np.isfinite(k0).all()
    else:
        zero, finite = k0 == 0, cmath.isfinite(k0)
    if zero:
        raise DegenerateMomentumError("static limit k0 = 0 not modeled")
    if not finite:
        raise ValueError("k0 must be finite")


def radial_propagator_dl(l, k0, r, rp):
    """Radial photon propagator d_l(r, r') = i k0 j_l(k0 r_<) h_l(k0 r_>).

    l must be a nonnegative integer and k0 finite (ValueError otherwise).
    """
    _check_l(l)
    _require_dynamic(k0)
    if not (0.0 < r < math.inf and 0.0 < rp < math.inf):
        raise ValueError("radii must be positive and finite")
    return _propagator(l, k0, r, rp)


def _propagator(l, k0, r, rp):
    """radial_propagator_dl for arguments it has checked."""
    if r == rp:
        (j,), (h,), phase = _sph_jh((l,), k0 * r)
    else:
        z_in, z_out = k0 * min(r, rp), k0 * max(r, rp)
        (j,), _, _ = _sph_jh((l,), z_in)
        _, (h,), _ = _sph_jh((l,), z_out)
        phase = _jh_phase(z_in, z_out)
    return 1j * k0 * j * h * phase


def _jost_route(route):
    """Jost function from route(l, k0, shell), checked and finite.

    Checks l and k0 (ValueError unless l is an integer >= 1 and k0 is
    finite), gives exactly 1 for a transparent shell, and raises
    SheetModelError where a value is not finite: at large l and small k0 R,
    j_l underflows while y_l overflows.
    """

    @functools.wraps(route)
    def jost(l, k0, shell):
        _check_l(l)
        if l < 1:
            raise ValueError("Jost functions need l >= 1")
        _require_dynamic(k0)
        if shell.omega == 0.0:
            if isinstance(k0, np.ndarray):
                return np.ones(k0.shape, dtype=complex)
            return complex(1.0)
        if isinstance(k0, (np.ndarray, complex)):
            with np.errstate(all="ignore"):
                g = route(l, k0, shell)
        else:  # a real scalar: Python floats, which raise no numpy errors
            g = route(l, float(k0), shell)
        if isinstance(g, np.ndarray):
            finite = np.isfinite(g)
            if finite.all():
                return g
            z = (k0 * shell.radius)[~finite][0]
        elif cmath.isfinite(g):
            return g
        else:
            z = k0 * shell.radius
        raise SheetModelError(
            f"{route.__name__} is not finite at l = {l}, k0 R = {z}")

    return jost


@_jost_route
def jost_te(l, k0, shell):
    """TE Jost function 1 + Omega R^2 d_l(R, R)."""
    radius = shell.radius
    return 1.0 + shell.omega * radius * radius * _propagator(
        l, k0, radius, radius)


@_jost_route
def jost_te_riccati(l, k0, shell):
    """TE Jost function computed from Riccati-Bessel products instead of d_l."""
    rj, _, rh, _, phase = _riccati_scaled(l, k0 * shell.radius)
    return 1.0 + (1j * shell.omega / k0) * rj * rh * phase


@_jost_route
def jost_tm(l, k0, shell):
    """TM Jost function 1 + (i Omega/k0) j^'_l(k0 R) h^'_l(k0 R)."""
    _, rjp, _, rhp, phase = _riccati_scaled(l, k0 * shell.radius)
    return 1.0 + (1j * shell.omega / k0) * rjp * rhp * phase


@_jost_route
def jost_tm_decomposed(l, k0, shell):
    """TM Jost function from the upward identity on orders l and l + 1.

    Independent route: Riccati derivatives via z f_l' = l f_l - z f_(l+1),
    that is d/dz [z f_l] = (l + 1) f_l - z f_(l+1), applied to j and h
    alike, rather than the downward identity used by riccati_bessel.
    """
    z = k0 * shell.radius
    (j_l, j_n), (h_l, h_n), phase = _sph_jh((l, l + 1), z)
    rjp = (l + 1) * j_l - z * j_n
    rhp = (l + 1) * h_l - z * h_n
    return 1.0 + (1j * shell.omega / k0) * rjp * rhp * phase


def tm_flat_limit(k0, kpar, omega):
    """Large-shell TM asymptote 1 + i Omega Gamma/(2 k0^2) at fixed kpar.

    Oscillation average of jost_tm as l -> inf, R -> inf with kpar = l/R
    held fixed; proportional to the flat-sheet TM Jost structure
    1 - 2 i k0^2/(Omega Gamma), so it shares its zeros. omega must be
    finite and non-negative, as for SphericalShell. Gamma/k0^2 comes from
    the momenta scaled as in sheet; a value beyond the float range raises
    ValueError.
    """
    _require_dynamic(k0)
    if not (math.isfinite(omega) and omega >= 0.0):
        raise ValueError("omega must be finite and non-negative")
    k = MinkowskiMomentum.from_parallel(k0, kpar)
    _, _, gamma, scale = _scaled(k.k0, k.kpar)
    # Gamma/k0^2 as (Gamma/s)/k0 times s/k0, without k0^2
    value = 1.0 + 1j * omega * (gamma / k0 * (scale / (2.0 * k0)))
    if not cmath.isfinite(value):
        raise ValueError(f"tm_flat_limit at k0 = {k0}, kpar = {kpar} is "
                         "beyond the float range")
    return value


@dataclass(frozen=True)
class ZeroCandidate:
    """A sub-threshold minimum of |g|^2 that could not be certified nonzero."""

    l: int
    polarization: str
    k0r_interval: tuple
    k0r_location: float
    min_abs_g_squared: float
    imag_part_floor: float


# asymptotic period of the Riccati-Bessel oscillations in k0 R
_OSCILLATION_PERIOD = math.pi

def scan_real_zeros(l, shell, k0r_max=30.0, points_per_period=20,
                    threshold=1e-6, certify_nonzero=True):
    """Search |g_l|^2 for real-frequency zeros; an empty list certifies none.

    Samples k0 R on (0, k0r_max] finely enough to resolve every oscillation,
    in one array evaluation per polarization, sharpens each local minimum
    of |g|^2 between its grid neighbours by Brent's bounded minimization
    (``numerics.minimize_bounded``, to 1e-12 in k0 R, with scalar Jost calls
    on Python floats), and keeps those below threshold. At
    small Omega R and growing l the TM function develops resonance dips
    whose depth shrinks like a high power of k0 R. Im g at the minimum is a
    squared factor that carries relative error only (module docstring), so
    a minimum with Im g > 0 is a finite-width resonance, not a zero; such
    minima are dropped unless certify_nonzero is disabled (useful for
    inspecting the dips themselves). l must be an integer >= 1, as for the
    Jost functions, k0r_max positive and finite, and points_per_period at
    least 1 (ValueError otherwise).
    """
    if not 0.0 < k0r_max < math.inf:
        raise ValueError("k0r_max must be positive and finite")
    if not points_per_period >= 1:
        raise ValueError("points_per_period must be >= 1")
    if points_per_period < 20:
        warnings.warn(
            "fewer than 20 points per oscillation period may skip over "
            "narrow minima", UserWarning, stacklevel=2)

    step = _OSCILLATION_PERIOD / points_per_period
    count = max(int(math.ceil(k0r_max / step)), 2)
    grid = np.linspace(step, k0r_max, count)
    points = grid.tolist()
    radius = shell.radius

    found = []
    for polarization, jost in (("te", jost_te), ("tm", jost_tm)):
        def abs_g_squared(z, _jost=jost):
            try:
                return abs(_jost(l, z / radius, shell)) ** 2
            except OverflowError:  # a float |g| beyond 1e154
                return math.inf

        # floats: the comparisons below cost less on them than on numpy
        # scalars
        values = (np.abs(jost(l, grid / radius, shell)) ** 2).tolist()
        candidates = [i for i in range(1, len(grid) - 1)
                      if values[i] <= values[i - 1] and values[i] <= values[i + 1]]
        if values[0] < values[1]:
            candidates.append(0)
        if values[-1] < values[-2]:
            candidates.append(len(grid) - 1)

        for i in candidates:
            lo = points[max(i - 1, 0)]
            hi = points[min(i + 1, len(grid) - 1)]
            location, fun = minimize_bounded(abs_g_squared, lo, hi, 1e-12)
            certified = min(float(fun), values[i])
            if certified >= threshold:
                continue
            # a float already, but a numpy scalar where the objective
            # returns one
            location = float(location)
            floor = jost(l, location / radius, shell).imag
            if certify_nonzero and floor > 0.0:
                continue
            found.append(ZeroCandidate(
                l=l, polarization=polarization,
                k0r_interval=(lo, hi),
                k0r_location=location,
                min_abs_g_squared=certified,
                imag_part_floor=floor))

    found.sort(key=lambda c: c.k0r_location)
    return found
