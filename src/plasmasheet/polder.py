"""Charge-sheet and atom-sheet (Casimir-Polder) interaction energies.

A charge or neutral atom sits a distance a in front of a single plasma sheet.
Every energy here reduces to an ideal-conductor value times a dimensionless
shape function of x = Omega a: the f-family controls the quadratic-field
single-vertex shift, the h-family the no-recoil charge interaction, and the
g-family the Casimir-Polder energy. All shape functions tend to 1 as
x -> infinity and die off (h excepted, it diverges) as x -> 0.

Units: hbar = c = 1, Heaviside-Lorentz (Coulomb potential e^2/(4 pi r)).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import PathDisagreementError
# integrate_adaptive and integrate_semi_infinite are unused here but stay
# bound: perfbench/tracing.py wraps them by name in this module.
from .numerics import (  # noqa: F401
    QuadratureSpec,
    integrate_adaptive,
    integrate_exponential_weight,
    integrate_legendre,
    integrate_semi_infinite,
)

__all__ = [
    "AtomProperties",
    "ReductionFunctions",
    "IDEAL_SHEET_CP_COEFFICIENT",
    "BULK_CONDUCTOR_CP_COEFFICIENT",
    "image_potential",
    "electrostatic_shift",
    "f_te",
    "f_tm",
    "h_parallel",
    "h_3",
    "g_te",
    "g_tm",
    "g_3",
    "delta1",
    "delta1_integral_form",
    "charge_sheet_energy",
    "charge_sheet_energies",
    "casimir_polder_energy",
    "reduction_functions",
]

# Isotropic-polarizability coefficient of -alpha/(32 pi^2 a^4) for an
# infinitely thin ideal sheet, and the reference value for a conductor
# with bulk behind the surface.
IDEAL_SHEET_CP_COEFFICIENT = 13.0 / 5.0
BULK_CONDUCTOR_CP_COEFFICIENT = 3.0

# Dual-route evaluations must agree this well or the computation aborts.
PATH_AGREEMENT_TOL = 1e-8

# The check route of g_tm/g_3 is integrated tighter than the user-facing
# default so the agreement contract has headroom over quadrature noise.
_INTERNAL_RTOL = 1e-10


@dataclass(frozen=True)
class AtomProperties:
    """Coupling, mass and static moments of the particle in front of the sheet.

    e and m need not match the sheet's own charge carriers. alpha1..alpha3
    are static polarizabilities along the coordinate axes (3 = normal to the
    sheet), p2par and p23 are <p_par^2> and <p_3^2>, quadrupole is Q.
    """

    e: float = 1.0
    m: float = 1.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    p2par: float = 0.0
    p23: float = 0.0
    quadrupole: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if not self.m > 0.0:
            raise ValueError("mass must be positive")
        if min(self.alpha1, self.alpha2, self.alpha3) < 0.0:
            raise ValueError("polarizabilities must be non-negative")
        if self.p2par < 0.0 or self.p23 < 0.0:
            raise ValueError("squared momenta must be non-negative")

    @classmethod
    def isotropic(cls, alpha, **kwargs):
        """Atom with alpha1 = alpha2 = alpha3 = alpha."""
        return cls(alpha1=alpha, alpha2=alpha, alpha3=alpha, **kwargs)


_SHAPE_NAMES = ("fTE", "fTM", "hPar", "h3", "gTE", "gTM", "g3")


@dataclass(frozen=True)
class ReductionFunctions:
    """Shape functions of one sheet at a common x = Omega a.

    A shape function that was not evaluated is None; every other one must be
    positive and finite.
    """

    x: float
    fTE: float = None
    fTM: float = None
    hPar: float = None
    h3: float = None
    gTE: float = None
    gTM: float = None
    g3: float = None

    def __post_init__(self):
        if not self.x > 0.0:
            raise ValueError("x must be positive")
        for name in _SHAPE_NAMES:
            value = getattr(self, name)
            if value is None:
                continue
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError("%s must be positive and finite" % name)


def _require_positive(x, name="x"):
    if not x > 0.0:
        raise ValueError("%s must be positive" % name)


def image_potential(x1, x2, x3, a, e):
    """Mirror-charge Coulomb potential e^2/(4 pi |r - r_mirror|).

    The sheet lies in the plane at height a; a unit source at the origin sees
    the potential of a mirror charge at (0, 0, 2a), for any sheet strength.
    """
    distance = math.sqrt(x1 * x1 + x2 * x2 + (x3 - 2.0 * a) ** 2)
    if distance == 0.0:
        raise ValueError("observation point coincides with the mirror charge")
    return e * e / (4.0 * math.pi * distance)


def electrostatic_shift(a, atom):
    """Static multipole interaction with the sheet, through quadrupole order."""
    _require_positive(a, "a")
    return (atom.e**2 / (4.0 * math.pi)) * (
        1.0 / (2.0 * a) + atom.quadrupole / (16.0 * a**3))


# ---------------------------------------------------------------------------
# Shape-function kernels, evaluated on arrays of b = k/x. The arctan
# combinations cancel badly for small b, so below b = 0.5 each one switches
# to its alternating power series, summed to a fixed length: there every
# term past _SERIES_TERMS is below 1e-19 of the sum.

_SERIES_TERMS = 60


def _series(coeff):
    """Coefficients of sum_m (-1)^m coeff(m) b^m, lowest power first."""
    return np.array([(-1) ** m * coeff(m) for m in range(_SERIES_TERMS)])


_ONE_MINUS_ATAN_SERIES = np.concatenate(
    ([0.0], _series(lambda m: 1.0 / (2 * m + 3))))
_TM_ANGULAR_SERIES = _series(
    lambda m: 2.0 / (2 * m + 5) - 2.0 / (2 * m + 3) + 1.0 / (2 * m + 1))
_TRANSVERSE_ANGULAR_SERIES = _series(
    lambda m: 1.0 / (2 * m + 1) - 1.0 / (2 * m + 3))


def _closed_or_series(b, closed, series):
    """closed(b) where b >= 0.5, the power series below."""
    b = np.asarray(b, dtype=float)
    out = np.empty_like(b)
    large = b >= 0.5
    out[large] = closed(b[large])
    small = b[~large, None]
    powers = np.cumprod(
        np.broadcast_to(small, (small.size, len(series) - 1)), axis=1)
    out[~large] = series[0] + powers @ series[1:]
    return out[()]


def _atan_ratio(b):
    """arctan(sqrt(b))/sqrt(b) for b > 0."""
    rb = np.sqrt(b)
    return np.arctan(rb) / rb


def _one_minus_atan_ratio(b):
    """1 - arctan(sqrt(b))/sqrt(b), stable down to b = 0."""
    return _closed_or_series(b, lambda b: 1.0 - _atan_ratio(b),
                             _ONE_MINUS_ATAN_SERIES)


def _tm_angular(b):
    """Int_0^1 deps (eps^4 + (1-eps^2)^2)/(1 + eps^2 b); equals 11/15 at b=0."""
    return _closed_or_series(
        b, lambda b: (2.0 / (3.0 * b) - 2.0 * (1.0 + b) / (b * b)
                      + ((b * b + 2.0 * b + 2.0) / (b * b)) * _atan_ratio(b)),
        _TM_ANGULAR_SERIES)


def _transverse_angular(b):
    """Int_0^1 deps (1 - eps^2)/(1 + eps^2 b); equals 2/3 at b=0."""
    return _closed_or_series(
        b, lambda b: -1.0 / b + ((1.0 + b) / b) * _atan_ratio(b),
        _TRANSVERSE_ANGULAR_SERIES)


# Couplings per stacked kinetic integral in charge_sheet_energies.
_CHARGE_CHUNK = 1024


def f_te(x, rtol=1e-8):
    """TE reduction of the single-vertex shift; -> 1 as x -> inf, ~ x at 0."""
    _require_positive(x)
    return integrate_exponential_weight(
        lambda k: k / (1.0 + k / x), QuadratureSpec(rtol=rtol))


def f_tm(x, rtol=1e-8):
    """TM reduction of the single-vertex shift; -> 1 as x -> inf, ~ 3x at 0."""
    _require_positive(x)
    return 3.0 * x * integrate_exponential_weight(
        lambda k: _one_minus_atan_ratio(k / x), QuadratureSpec(rtol=rtol))


def h_parallel(x, rtol=1e-8):
    """In-plane kinetic shape of the charge interaction; decreases to 1."""
    _require_positive(x)
    return integrate_exponential_weight(
        lambda k: -1.0 / (1.0 + k / x) + 0.5 * k + 1.5 + k / x,
        QuadratureSpec(rtol=rtol))


def h_3(x):
    """Normal kinetic shape of the charge interaction, exactly 1 + 1/x."""
    _require_positive(x)
    return 1.0 + 1.0 / x


def _require_agreement(label, first, second, tol=PATH_AGREEMENT_TOL):
    scale = max(abs(first), abs(second))
    if scale == 0.0:
        return
    gap = abs(first - second) / scale
    if gap > tol:
        raise PathDisagreementError(
            "%s routes disagree: %.17g vs %.17g (rel %.3e)"
            % (label, first, second, gap))


def g_te(x, rtol=1e-8):
    """TE Casimir-Polder reduction, (1/6) Int k^3 e^-k/(1 + k/x)."""
    _require_positive(x)
    return integrate_exponential_weight(
        lambda k: k**3 / (1.0 + k / x), QuadratureSpec(rtol=rtol)) / 6.0


def _dual_angular_reduction(x, rtol, prefactor, angular_closed, angular_poly,
                            label):
    """Outer k-integral of k^3 times an angular factor, evaluated twice.

    The closed route uses the closed angular form and is integrated to
    rtol. The check route re-integrates the angular factor
    Int_0^1 P(eps)/(1 + eps^2 b) deps as a tensor-product rule: the same
    log-k rule in k times Gauss-Legendre in t, where eps = sinh(t)/sqrt(b)
    turns it into b^-1/2 Int_0^asinh(sqrt b) P(sinh(t)/sqrt(b))/cosh(t) dt.
    The check route is integrated to _INTERNAL_RTOL; the routes must agree
    to max(PATH_AGREEMENT_TOL, rtol).
    """
    closed = prefactor * integrate_exponential_weight(
        lambda k: k**3 * angular_closed(k / x), QuadratureSpec(rtol=rtol))

    inner_spec = QuadratureSpec(order=32, rtol=0.1 * _INTERNAL_RTOL)

    def angular_by_quadrature(k):
        rb = np.sqrt(k / x)
        return integrate_legendre(
            lambda t: angular_poly(np.sinh(t) / rb[:, None]) / np.cosh(t),
            np.arcsinh(rb), inner_spec) / rb

    double = prefactor * integrate_exponential_weight(
        lambda k: k**3 * angular_by_quadrature(k),
        QuadratureSpec(rtol=_INTERNAL_RTOL))

    _require_agreement(label, closed, double, max(PATH_AGREEMENT_TOL, rtol))
    return closed, double


def _tm_poly(eps):
    eps2 = eps * eps
    return eps2 * eps2 + (1.0 - eps2) ** 2


def _transverse_poly(eps):
    return 1.0 - eps * eps


def g_tm(x, rtol=1e-8):
    """TM Casimir-Polder reduction, (5/22) Int k^3 e^-k A_TM(k/x).

    Evaluated by two routes, the closed arctan form of the angular factor
    A_TM and its re-integration over eps. The closed route is integrated to
    rtol and returned; the check route is integrated to 1e-10. The two must
    agree to max(PATH_AGREEMENT_TOL, rtol) (1e-8 at the default rtol), or
    PathDisagreementError is raised.
    """
    _require_positive(x)
    closed, _ = _dual_angular_reduction(x, rtol, 5.0 / 22.0, _tm_angular,
                                        _tm_poly, "g_tm")
    return closed


def g_3(x, rtol=1e-8):
    """Normal-polarizability Casimir-Polder reduction.

    (1/4) Int k^3 e^-k A_3(k/x), dual-route checked like g_tm: the closed
    route is integrated to rtol and returned, the check route to 1e-10,
    and the two must agree to max(PATH_AGREEMENT_TOL, rtol) (1e-8 at the
    default rtol).
    """
    _require_positive(x)
    closed, _ = _dual_angular_reduction(x, rtol, 0.25, _transverse_angular,
                                        _transverse_poly, "g_3")
    return closed


def reduction_functions(x, rtol=1e-8, names=_SHAPE_NAMES):
    """Evaluate the named shape functions (all by default) once at a common x.

    Shape functions not named are left as None in the returned bundle.
    """
    compute = {
        "fTE": lambda: f_te(x, rtol),
        "fTM": lambda: f_tm(x, rtol),
        "hPar": lambda: h_parallel(x, rtol),
        "h3": lambda: h_3(x),
        "gTE": lambda: g_te(x, rtol),
        "gTM": lambda: g_tm(x, rtol),
        "g3": lambda: g_3(x, rtol),
    }
    return ReductionFunctions(x=x, **{name: compute[name]() for name in names})


# ---------------------------------------------------------------------------
# Energies.


def delta1(a, sheet, atom, rtol=1e-8):
    """Single-vertex quadratic-field shift, closed shape-function form."""
    _require_positive(a, "a")
    if sheet.omega == 0.0:
        return 0.0
    x = sheet.omega * a
    prefactor = -atom.e**2 / (32.0 * math.pi**2 * atom.m * a * a)
    return prefactor * (f_te(x, rtol) + f_tm(x, rtol) / 3.0)


def delta1_integral_form(a, sheet, atom, rtol=1e-8):
    """Single-vertex shift straight from the Euclidean momentum integral.

    Independent route: the coincidence-limit propagator trace
    -(e^2/2m) Int d^3k/(2 pi)^3 (e^(-2 gamma a)/2 gamma)
    (r~_1 + r~_2 k4^2/gamma^2) in spherical coordinates, with the angular
    integral done numerically instead of through the arctan reductions: the
    log-k rule in k = 2 gamma a times Gauss-Legendre in t. r~_1 does not
    depend on eps = k4/gamma, and eps = sinh(t) sqrt(Omega/(2 gamma)) turns
    Int_0^1 eps^2 r~_2 deps into c^(-3/2) Int_0^asinh(sqrt c)
    sinh(t)^2/cosh(t) dt, c = 2 gamma/Omega = k/(Omega a).
    """
    _require_positive(a, "a")
    if sheet.omega == 0.0:
        return 0.0
    x = sheet.omega * a
    inner_spec = QuadratureSpec(rtol=0.1 * rtol)

    def radial(k):
        c = k / x
        rc = np.sqrt(c)
        tm = integrate_legendre(lambda t: np.sinh(t) ** 2 / np.cosh(t),
                                np.arcsinh(rc), inner_spec) / (c * rc)
        return k * (1.0 / (1.0 + c) + tm)

    radial_integral = integrate_exponential_weight(
        radial, QuadratureSpec(rtol=rtol))
    return -(atom.e**2 / (32.0 * math.pi**2 * atom.m * a * a)) * radial_integral


def charge_sheet_energy(a, sheet, atom, rtol=1e-8):
    """No-recoil energy of a single charge, as (electrostatic, kinetic).

    The electrostatic part -e^2/(8 pi a) is exact and sheet-independent. The
    kinetic part integrates the explicit surface-mode pole contribution; its
    momentum integral is evaluated in the rescaled variable q = 2 k a, which
    makes the e^-q decay weight explicit. In shape-function terms it equals
    -(e^2/(16 pi m^2 a)) [h_par(x) <p_par^2>/2 + (1 + 1/(2x)) <p_3^2>].
    """
    electrostatic, kinetic = charge_sheet_energies(
        a, np.array([sheet.omega * a]), atom, rtol)
    return float(electrostatic[0]), float(kinetic[0])


def charge_sheet_energies(a, x, atom, rtol=1e-8):
    """charge_sheet_energy for an array of couplings x = Omega a at distance a.

    Returns (electrostatic, kinetic) arrays shaped like x. The kinetic
    integrals of up to _CHARGE_CHUNK couplings at a time are one stacked
    integrand of integrate_exponential_weight, refined until every one
    reaches rtol; the chunks bound the memory of a long sweep.
    """
    _require_positive(a, "a")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("omega must be finite and nonnegative")
    if not np.all(x > 0.0):
        raise ValueError("kinetic part diverges for a transparent sheet")

    def braces(xs):
        def integrand(q):
            par = ((1.0 / (1.0 + q / xs) - (0.5 * q + 1.5 + q / xs))
                   * 0.5 * atom.p2par)
            perp = (0.5 * q + 0.5 + 0.5 * q / xs) * atom.p23
            return par - perp

        return integrand

    flat = x.reshape(-1, 1)
    starts = range(0, max(len(flat), 1), _CHARGE_CHUNK)  # empty x: one chunk
    integral = np.concatenate([
        integrate_exponential_weight(braces(flat[start:start + _CHARGE_CHUNK]),
                                     QuadratureSpec(rtol=rtol))
        for start in starts])
    kinetic = (atom.e**2 / (16.0 * math.pi * atom.m**2 * a)) * integral
    electrostatic = np.full(x.shape, -atom.e**2 / (8.0 * math.pi * a))
    return electrostatic, kinetic.reshape(x.shape)


def casimir_polder_energy(a, sheet, atom, rtol=1e-8):
    """Atom-sheet dispersion energy

    -(1/(32 pi^2 a^4)) { (g_TE + (11/5) g_TM) (alpha1+alpha2)/4 + g_3 alpha3 }.
    """
    _require_positive(a, "a")
    if sheet.omega == 0.0:
        return 0.0
    x = sheet.omega * a
    alpha_par = atom.alpha1 + atom.alpha2
    braces = 0.0
    if alpha_par != 0.0:
        braces += (g_te(x, rtol) + 2.2 * g_tm(x, rtol)) * alpha_par / 4.0
    if atom.alpha3 != 0.0:
        braces += g_3(x, rtol) * atom.alpha3
    return -braces / (32.0 * math.pi**2 * a**4)
