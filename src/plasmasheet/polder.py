"""Charge-sheet and atom-sheet (Casimir-Polder) interaction energies.

A charge or neutral atom sits a distance a in front of a single plasma sheet.
Every energy here reduces to an ideal-conductor value times a dimensionless
shape function of x = Omega a: the f-family controls the quadratic-field
single-vertex shift, the h-family the no-recoil charge interaction, and the
g-family the Casimir-Polder energy. All shape functions tend to 1 as
x -> infinity and die off (h excepted, it diverges) as x -> 0. Each takes a
float x, giving a float, or a 1-d array, giving an array; every x is one
element of the log-k passes, so its value does not depend on the other x.

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
    by_chunks,
    divide_by_power,
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
    "casimir_polder_energies",
    "reduction_functions",
    "reduction_function_columns",
]

# Isotropic-polarizability coefficient of -alpha/(32 pi^2 a^4) for an
# infinitely thin ideal sheet, and the reference value for a conductor
# with bulk behind the surface.
IDEAL_SHEET_CP_COEFFICIENT = 13.0 / 5.0
BULK_CONDUCTOR_CP_COEFFICIENT = 3.0

# Dual-route evaluations must agree this well or the computation aborts.
PATH_AGREEMENT_TOL = 1e-8


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
_G_NAMES = ("gTE", "gTM", "g3")


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
        _require_x(self.x)
        for name in _SHAPE_NAMES:
            value = getattr(self, name)
            if value is None:
                continue
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError("%s must be positive and finite" % name)


def _require_positive(value, name):
    if not value > 0.0:
        raise ValueError("%s must be positive" % name)


def _require_x(x):
    """x = Omega a of a shape function, a float or an array of them: each
    must be positive and finite."""
    if not (0.0 < x < math.inf if np.ndim(x) == 0
            else np.all((0.0 < x) & (x < math.inf))):
        raise ValueError("x must be positive and finite")


def _coupling(a, sheet):
    """x = Omega a, which must be finite: Omega and a may overflow it."""
    x = sheet.omega * a
    if x == math.inf:
        raise ValueError("x = Omega * a must be finite")
    return x


def image_potential(x1, x2, x3, a, e):
    """Mirror-charge Coulomb potential e^2/(4 pi |r - r_mirror|).

    The sheet lies in the plane at height a; a unit source at the origin sees
    the potential of a mirror charge at (0, 0, 2a), for any sheet strength.
    A potential above the float range raises ValueError, and so do a
    non-finite point or charge and a = nan; a = inf gives the limit 0.
    """
    for name, value in (("x1", x1), ("x2", x2), ("x3", x3), ("e", e)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if math.isnan(a):
        raise ValueError("a must not be nan")
    distance = math.hypot(x1, x2, x3 - 2.0 * a)
    if distance == 0.0:
        raise ValueError("observation point coincides with the mirror charge")
    return divide_by_power(e * e / (4.0 * math.pi), distance, 1)


def electrostatic_shift(a, atom):
    """Static multipole interaction with the sheet, through quadrupole order.

    (e^2/(4 pi)) (1/(2a) + Q/(16 a^3)); a term below the float range comes
    back as 0, and one above it raises ValueError.
    """
    _require_positive(a, "a")
    coupling = atom.e**2 / (4.0 * math.pi)
    return (divide_by_power(0.5 * coupling, a, 1)
            + divide_by_power(coupling * atom.quadrupole / 16.0, a, 3))


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


def _closed_or_series(b, closed, *series):
    """closed(b) where b >= 0.5, the power series below: one row per series.

    closed returns one row per series; all rows share the powers of b. Each
    series is summed elementwise over its terms, not by a matrix product,
    whose rounding depends on how many values share the call.
    """
    b = np.asarray(b, dtype=float)
    coeffs = np.array(series)
    out = np.empty((len(series),) + b.shape)
    large = b >= 0.5
    out[:, large] = closed(b[large])
    small = b[~large, None]
    powers = np.cumprod(
        np.broadcast_to(small, (small.size, coeffs.shape[1] - 1)), axis=1)
    out[:, ~large] = (coeffs[:, :1]
                      + (powers * coeffs[:, None, 1:]).sum(axis=-1))
    return out


def _atan_ratio(b):
    """arctan(sqrt(b))/sqrt(b) for b > 0."""
    rb = np.sqrt(b)
    return np.arctan(rb) / rb


def _one_minus_atan_ratio(b):
    """1 - arctan(sqrt(b))/sqrt(b), stable down to b = 0."""
    return _closed_or_series(b, lambda b: 1.0 - _atan_ratio(b),
                             _ONE_MINUS_ATAN_SERIES)[0]


def _g_angular(b):
    """Closed angular factors (A_TM, A_3) of g_tm and g_3, stacked in rows.

    A_TM = Int_0^1 deps (eps^4 + (1-eps^2)^2)/(1 + eps^2 b), 11/15 at b = 0;
    A_3 = Int_0^1 deps (1 - eps^2)/(1 + eps^2 b), 2/3 at b = 0. The rows
    share arctan(sqrt b)/sqrt b and the powers of b.
    """
    def closed(b):
        b2 = b * b
        ratio = _atan_ratio(b)
        return (2.0 / (3.0 * b) - 2.0 * (1.0 + b) / b2
                + ((b2 + 2.0 * b + 2.0) / b2) * ratio,
                -1.0 / b + ((1.0 + b) / b) * ratio)

    return _closed_or_series(b, closed, _TM_ANGULAR_SERIES,
                             _TRANSVERSE_ANGULAR_SERIES)


# Couplings per stacked h_par integral in charge_sheet_energies.
_CHARGE_CHUNK = 1024
# Couplings per log-k pass of a shape-function or Casimir-Polder sweep. The
# passes refine each x alone, so the chunk sets only the cost and memory of
# a sweep, not its values; 16 was the fastest in timings of the g family.
_SWEEP_CHUNK = 16


def _log_k(f, x, spec):
    """The log-k rule on f(k, x) with each coupling of x one element.

    A 1-d array x gives arrays over x, handing f a column of the couplings
    still refining; a float x is the one-element case, handed to f as the
    float, and gives floats.
    """
    if np.ndim(x) == 0:
        return integrate_exponential_weight(lambda k: f(k, x), spec)
    return integrate_exponential_weight(f, spec, x[:, None])


def f_te(x, rtol=1e-8):
    """TE reduction of the single-vertex shift; -> 1 as x -> inf, ~ x at 0."""
    _require_x(x)
    return _log_k(lambda k, x: k / (1.0 + k / x), x, QuadratureSpec(rtol=rtol))


def f_tm(x, rtol=1e-8):
    """TM reduction of the single-vertex shift; -> 1 as x -> inf, ~ 3x at 0."""
    _require_x(x)
    return 3.0 * x * _log_k(lambda k, x: _one_minus_atan_ratio(k / x), x,
                            QuadratureSpec(rtol=rtol))


def _h_parallel_terms(k, x):
    """Factor of e^-k in h_par(x), for a float x or a column of them."""
    b = k / x
    return -1.0 / (1.0 + b) + 0.5 * k + 1.5 + b


def h_parallel(x, rtol=1e-8):
    """In-plane kinetic shape of the charge interaction; decreases to 1."""
    _require_x(x)
    return _log_k(_h_parallel_terms, x, QuadratureSpec(rtol=rtol))


def h_3(x):
    """Normal kinetic shape of the charge interaction, exactly 1 + 1/x."""
    _require_x(x)
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


def _g_closed(k, x):
    """Closed-route integrands of gTE, gTM and g3 over k, stacked in rows."""
    b = k / x
    k3 = k**3
    a_tm, a_3 = _g_angular(b.reshape(-1)).reshape((2,) + b.shape)
    return np.stack((k3 / (1.0 + b), k3 * a_tm, k3 * a_3))


def _k_moment(v):
    """G(c) = Int_0^inf k^3 e^-k/(1 + k/c) dk = 6 c e^c E_4(c) at c = 1/v,
    by numpy alone; v = 0 gives the limit 6. Below c = 2,
    c (2 - c + c^2 - c^3 e^c E_1(c)) (DLMF 8.19.12) with 25 terms of the E_1
    series (DLMF 6.6.2); from 2 up, the continued fraction of Gamma(-3, c)
    (DLMF 8.9.2) from depth 40, 6/(1 + 4v - 4v^2/(1 + 6v - 10v^2/(...))).
    Each is within 4e-14 of G on c in [1e-8, 1e16]."""
    out = np.empty_like(v)
    far = v <= 0.5  # c >= 2
    u = v[far]
    u2, t = u * u, 1.0 + 84.0 * u
    for n in range(40, 0, -1):
        t = 1.0 + (2 * n + 2) * u - n * (n + 3) * u2 / t
    out[far] = 6.0 / t
    c = 1.0 / v[~far]
    term, tail = np.ones_like(c), np.zeros_like(c)
    for n in range(1, 26):
        term = term * (-c / n)
        tail = tail + term / n
    e1 = -np.euler_gamma - np.log(c) - tail
    out[~far] = c * (2.0 - c + c * c - c**3 * np.exp(c) * e1)
    return out


def _g_check_routes(x):
    """(gTM, g3) by their check routes, at a float or 1-d array x.

    The k integral in closed form first: Int k^3 e^-k A(k/x) dk =
    Int_0^1 P(eps) G(x/eps^2) deps, P = eps^4 + (1 - eps^2)^2 for gTM and
    1 - eps^2 for g3, G = _k_moment. With eps = sqrt(x) sinh(w), so that
    eps^2/x = sinh(w)^2, the angle takes one Gauss-Legendre rule over
    w in [0, asinh(1/sqrt x)], each x one element, to PATH_AGREEMENT_TOL/10.
    """
    def integrand(w, rx):
        s = np.sinh(w)
        eps2 = (rx * s) ** 2
        weight = _k_moment(s * s) * np.cosh(w)
        return np.stack(((eps2 * eps2 + (1.0 - eps2) ** 2) * weight,
                         (1.0 - eps2) * weight))

    rx = np.sqrt(x)
    tm, g3 = rx * integrate_legendre(
        integrand, np.arcsinh(1.0 / rx),
        QuadratureSpec(rtol=0.1 * PATH_AGREEMENT_TOL), np.reshape(rx, (-1, 1)))
    return 5.0 / 22.0 * tm, 0.25 * g3


def _g_closed_routes(x, rtol):
    """(gTE, gTM, g3) by their closed forms, at a float or 1-d array x.

    One stacked log-k integrand, each x one element, refined until each of
    its three reaches rtol.
    """
    te, tm, g3 = _log_k(_g_closed, x, QuadratureSpec(rtol=rtol))
    return te / 6.0, 5.0 / 22.0 * tm, 0.25 * g3


def _g_family(x, rtol):
    """The g family at x from one pass: ((gTE, gTM, g3), (gTM, g3) checks).

    x is a float, giving floats, or a 1-d array, giving arrays; each x is
    one element of every rule, so its values do not depend on the other x.
    The closed (_g_closed_routes) and the check route (_g_check_routes) of
    a quantity share no values and no special function. Each pair must
    agree to max(PATH_AGREEMENT_TOL, rtol) at every x, or
    PathDisagreementError is raised.
    """
    _require_x(x)
    closed = _g_closed_routes(x, rtol)
    check = _g_check_routes(x)
    tol = max(PATH_AGREEMENT_TOL, rtol)
    pairs = np.reshape(closed[1:] + check, (4, -1)).T.tolist()
    for tm, g3, tm_other, g3_other in pairs:
        _require_agreement("g_tm", tm, tm_other, tol)
        _require_agreement("g_3", g3, g3_other, tol)
    if np.ndim(x) == 0:
        return tuple(map(float, closed)), tuple(map(float, check))
    return closed, check


def g_te(x, rtol=1e-8):
    """TE Casimir-Polder reduction, (1/6) Int k^3 e^-k/(1 + k/x).

    The closed form is its only route. It comes from the closed routes of
    the g-family pass (see g_tm), so it equals the gTE of
    reduction_functions, without the check routes of g_tm and g_3.
    """
    _require_x(x)
    te = _g_closed_routes(x, rtol)[0]
    return float(te) if np.ndim(x) == 0 else te


def g_tm(x, rtol=1e-8):
    """TM Casimir-Polder reduction, (5/22) Int k^3 e^-k A_TM(k/x).

    Two routes in one pass over the g family: the closed arctan form of
    the angular factor A_TM, integrated to rtol and returned, and a check
    that does the k integral in closed form and the angle by quadrature.
    They must agree to max(PATH_AGREEMENT_TOL, rtol) (1e-8 at the default
    rtol), or PathDisagreementError is raised; the same pass checks g_3.
    """
    return _g_family(x, rtol)[0][1]


def g_3(x, rtol=1e-8):
    """Normal-polarizability Casimir-Polder reduction.

    (1/4) Int k^3 e^-k A_3(k/x), from the g-family pass and dual-route
    checked like g_tm: the closed route is integrated to rtol and returned,
    and the two must agree to max(PATH_AGREEMENT_TOL, rtol).
    """
    return _g_family(x, rtol)[0][2]


def _shape_functions(x, rtol, names):
    """The named shape functions at a float or 1-d array x, in names order.

    Any of gTE, gTM and g3 come from one g-family pass.
    """
    compute = {
        "fTE": lambda: f_te(x, rtol),
        "fTM": lambda: f_tm(x, rtol),
        "hPar": lambda: h_parallel(x, rtol),
        "h3": lambda: h_3(x),
    }
    values = {}
    if any(name in _G_NAMES for name in names):
        values.update(zip(_G_NAMES, _g_family(x, rtol)[0]))
    return tuple(values[name] if name in values else compute[name]()
                 for name in names)


def reduction_functions(x, rtol=1e-8, names=_SHAPE_NAMES):
    """Evaluate the named shape functions (all by default) once at a common x.

    Shape functions not named are left as None in the returned bundle. Any
    of gTE, gTM and g3 come from one g-family pass.
    """
    return ReductionFunctions(x=x, **dict(zip(
        names, _shape_functions(x, rtol, names))))


def reduction_function_columns(x, rtol=1e-8, names=_SHAPE_NAMES):
    """reduction_functions over a 1-d array of x: one array per name.

    The arrays follow the order of names. Each x is one element of every
    pass, so its values equal those of reduction_functions at that x;
    _SWEEP_CHUNK couplings share a pass. Every value must be positive and
    finite, as in ReductionFunctions.
    """
    x = np.asarray(x, dtype=float)
    _require_x(x)
    columns = tuple(by_chunks(lambda x: _shape_functions(x, rtol, names), x,
                              _SWEEP_CHUNK))
    for name, column in zip(names, columns):
        if not np.all(np.isfinite(column) & (column > 0.0)):
            raise ValueError("%s must be positive and finite" % name)
    return columns


# ---------------------------------------------------------------------------
# Energies.


def delta1(a, sheet, atom, rtol=1e-8):
    """Single-vertex quadratic-field shift, closed shape-function form."""
    _require_positive(a, "a")
    if sheet.omega == 0.0:
        return 0.0
    x = _coupling(a, sheet)
    braces = f_te(x, rtol) + f_tm(x, rtol) / 3.0
    return divide_by_power(-atom.e**2 / (32.0 * math.pi**2 * atom.m) * braces,
                           a, 2)


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
    x = _coupling(a, sheet)
    inner_spec = QuadratureSpec(rtol=0.1 * rtol)

    def radial(k):
        c = k / x
        rc = np.sqrt(c)
        tm = integrate_legendre(lambda t: np.sinh(t) ** 2 / np.cosh(t),
                                np.arcsinh(rc), inner_spec) / (c * rc)
        return k * (1.0 / (1.0 + c) + tm)

    radial_integral = integrate_exponential_weight(
        radial, QuadratureSpec(rtol=rtol))
    return divide_by_power(
        -atom.e**2 / (32.0 * math.pi**2 * atom.m) * radial_integral, a, 2)


def charge_sheet_energy(a, sheet, atom, rtol=1e-8):
    """No-recoil energy of a single charge, as (electrostatic, kinetic).

    The electrostatic part -e^2/(8 pi a) is exact and sheet-independent. The
    kinetic part, the explicit surface-mode pole contribution, is
    -(e^2/(16 pi m^2 a)) [h_par(x) <p_par^2>/2 + (1 + 1/(2x)) <p_3^2>]: its
    in-plane term integrates h_par, the normal term is closed. Both parts
    follow divide_by_power: below the float range they come back as 0 or
    subnormal, above it they raise ValueError.
    """
    electrostatic, kinetic = charge_sheet_energies(
        a, np.array([sheet.omega * a]), atom, rtol)
    return float(electrostatic[0]), float(kinetic[0])


def _sweep_couplings(a, x):
    """The couplings x = Omega a of an energy sweep at distance a, as an
    array: a must be positive, and every x finite and nonnegative."""
    _require_positive(a, "a")
    x = np.asarray(x, dtype=float)
    if np.any(x == math.inf):
        raise ValueError("x = Omega * a must be finite")
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("omega must be finite and nonnegative")
    return x


def charge_sheet_energies(a, x, atom, rtol=1e-8):
    """charge_sheet_energy for an array of couplings x = Omega a at distance a.

    Returns (electrostatic, kinetic) arrays shaped like x. The h_par
    integrals of up to _CHARGE_CHUNK couplings at a time are one stacked
    integrand of integrate_exponential_weight, refined until every one
    reaches rtol; the chunks bound the memory of a long sweep.
    """
    x = _sweep_couplings(a, x)
    if not np.all(x > 0.0):
        raise ValueError("kinetic part diverges for a transparent sheet")

    flat = x.reshape(-1)
    spec = QuadratureSpec(rtol=rtol)
    h_par = by_chunks(lambda x: integrate_exponential_weight(
        lambda k: _h_parallel_terms(k, x[:, None]), spec), flat, _CHARGE_CHUNK)
    braces = 0.5 * atom.p2par * h_par + atom.p23 * (1.0 + 0.5 / flat)
    # 0 - v, not -v: a charge with no momenta has kinetic energy +0.0
    kinetic = divide_by_power(
        0.0 - atom.e**2 / (16.0 * math.pi * atom.m**2) * braces, a, 1)
    electrostatic = np.full(
        x.shape, divide_by_power(-atom.e**2 / (8.0 * math.pi), a, 1))
    return electrostatic, kinetic.reshape(x.shape)


def casimir_polder_energy(a, sheet, atom, rtol=1e-8):
    """Atom-sheet dispersion energy

    -(1/(32 pi^2 a^4)) { (g_TE + (11/5) g_TM) (alpha1+alpha2)/4 + g_3 alpha3 },

    from one g-family pass. An energy below the float range comes back as
    0; one above it raises ValueError.
    """
    _require_positive(a, "a")
    if sheet.omega == 0.0 or _unpolarizable(atom):
        return 0.0
    return _polder_energy(a, _g_family(_coupling(a, sheet), rtol)[0], atom)


def casimir_polder_energies(a, x, atom, rtol=1e-8):
    """casimir_polder_energy for an array of couplings x = Omega a at a.

    Returns an array shaped like x. A coupling of 0, a transparent sheet,
    gives 0. Each x is one element of the g-family passes, so its energy
    equals that of casimir_polder_energy; _SWEEP_CHUNK couplings share a
    pass.
    """
    x = _sweep_couplings(a, x)
    energy = np.zeros(x.shape)
    lit = x > 0.0
    if lit.any() and not _unpolarizable(atom):
        g = by_chunks(lambda x: _g_family(x, rtol)[0], x[lit], _SWEEP_CHUNK)
        energy[lit] = _polder_energy(a, g, atom)
    return energy


def _unpolarizable(atom):
    return atom.alpha1 + atom.alpha2 == 0.0 and atom.alpha3 == 0.0


def _polder_energy(a, g, atom):
    """Casimir-Polder energy at distance a from (gTE, gTM, g3), floats or
    arrays."""
    te, tm, normal = g
    braces = ((te + 2.2 * tm) * (atom.alpha1 + atom.alpha2) / 4.0
              + normal * atom.alpha3)
    return divide_by_power(-braces / (32.0 * math.pi**2), a, 4)
