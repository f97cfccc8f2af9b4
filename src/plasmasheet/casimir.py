"""Two-sheet Casimir energy and pressure.

The energy per unit area of two parallel sheets at distance a is an
imaginary-frequency (Lifshitz-type) mode sum

    E/A = (1/4 pi^2) Int_0^inf dk4 Int_0^inf dkpar kpar
          sum_s ln(1 - r~_s^2 e^(-2 gamma a)),

with r~_s the Euclidean reflection coefficients. In polar coordinates
(g = gamma a, eps = k4/gamma) the double integral collapses to a function of
the single combination x = Omega a, so a^3 E/A = F(x) exactly. The ideal
conductor limit F(inf) = -pi^2/720 fixes the normalization.

The same scaling gives the pressure as a^4 P = 3 F(x) - x F'(x). Both
reflection coefficients have the form r = 1/(1 + c) with c proportional to
1/x, so x dr/dx = r (1 - r), and x F'(x) is an integral over the same
nodes as F: the pressure comes with the energy, not from a finite
difference. The nodes are a tensor-product rule: the log-k trapezoid rule
in k = 2g, times Gauss-Legendre for the TM angular integral in s, with
eps = sinh(t) sqrt(x/k) and t = s^2. The outer rule's first level, 41
nodes, alone spans all of k in [1e-20, 800]; each later level refines only
the support where the three integrands are not negligible. At the default
rtol that support runs from k = 3e-5 to 57 at x = 1, 11 of the 40 starting
steps, and from 6e-7 to 57 at x = 1e-3, 14 steps.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    "CasimirResult",
    "reduced_energy_parts",
    "reduced_energy_and_pressure",
    "lifshitz_energy_per_area",
    "lifshitz_pressure",
    "casimir_result",
    "polarization_convention_equivalence",
    "IDEAL_REDUCED_ENERGY",
    "IDEAL_REDUCED_PRESSURE",
]

# a^3 E/A and a^4 P of the ideal conductor pair.
IDEAL_REDUCED_ENERGY = -math.pi**2 / 720.0
IDEAL_REDUCED_PRESSURE = -math.pi**2 / 240.0

# 1/(4 pi^2) of the mode sum times the 1/8 of g^2 dg = k^2 dk/8, k = 2g.
_NORM = 1.0 / (32.0 * math.pi**2)
_LN2 = math.log(2.0)


def _te_euclidean(g, x):
    return 1.0 / (1.0 + 2.0 * g / x)


def _tm_euclidean(g, eps, x):
    return 1.0 / (1.0 + 2.0 * g * eps * eps / x)


def _log_terms(k, c, r, out):
    """e^k ln(1 - w) and e^k x d/dx ln(1 - w) into out[0] and out[1], with
    w = r^2 e^-k and r = 1/(1 + c).

    c is the exactly known part of 1/r - 1 (k/x for TE, sinh^2 t for TM),
    so 1 - r = c r and ln r = log1p(-c r) keep their relative precision
    where r rounds to 1. With q = k - 2 ln r, w = e^-q, ln(1 - w) is
    log(-expm1(-q)) while w > 1/2 and log1p(-w) below. The factor e^k of
    the log-k rule's weight is folded in as r^2 ln(1 - w)/w, whose limit
    where w underflows is -r^2; the slope uses x dr/dx = r (1 - r).

    The kernel works in place, in out and in arrays it allocates itself;
    -q is formed once as 2 log1p(-c r) - k, which has the bits of -(k -
    2 ln r) since negation and doubling are exact.
    """
    energy, slope = out
    one_minus_r = c * r
    neg_q = np.negative(one_minus_r)
    np.log1p(neg_q, out=neg_q)
    neg_q *= 2.0
    neg_q -= k
    w = np.exp(neg_q)
    one_minus_w = np.expm1(neg_q)
    np.negative(one_minus_w, out=one_minus_w)
    small = neg_q <= -_LN2  # q >= ln 2, w <= 1/2
    log_one_minus_w = np.log(one_minus_w, out=neg_q)
    np.log1p(np.negative(w, out=energy), out=log_one_minus_w, where=small)
    energy.fill(-1.0)
    np.divide(log_one_minus_w, w, out=energy, where=w > 0.0)
    r2 = np.multiply(r, r, out=w)
    energy *= r2
    np.multiply(r2, -2.0, out=slope)
    slope *= one_minus_r
    slope /= one_minus_w


def _column(value, shape):
    """value broadcast to shape, as a column of its elements."""
    out = np.empty(shape)
    out[...] = value
    return out.reshape(-1, 1)


# Couplings per pass of _energy_and_slope over an array of x. The pass
# refines each x alone, so the chunk sets only the cost and memory of a
# sweep, not its values; 8 was the fastest in timings of 2- to 400-point
# sweeps.
_SWEEP_CHUNK = 8


def _energy_and_slope(x, rtol, te_coeff=_te_euclidean, tm_coeff=_tm_euclidean):
    """(TE part, TM part, x F'(x)) of a^3 E/A = F(x) from one quadrature pass.

    x is a float, giving floats, or a 1-d array, giving arrays; the array
    takes one pass per _SWEEP_CHUNK couplings, and each x is one element
    of it, so its values do not depend on the other x. Outer rule: the
    log-k trapezoid rule in k = 2g, refined on the support of the three
    integrands until all three reach rtol. Inner rule: the TM angular
    integral over eps in [0, 1], refined to rtol/10 at every (x, k), as
    Gauss-Legendre in s with eps = sinh(t) sqrt(x/k) and t = s^2. The square
    clusters the nodes near t = 0, where ln(1 - w) ~ ln(k + 2 t^2) has
    branch points at t = +-i sqrt(k/2); without it x = 1e-6 cannot reach
    rtol = 1e-10 below Gauss-Legendre order 512. The TE terms and the TM
    angular integrand come from the in-place kernel _log_terms, which
    writes energy and slope into one result array per call; the inner
    rule calls the angular integrand on blocks of at most 8192 nodes.

    te_coeff and tm_coeff are the Euclidean reflection coefficients as
    functions of (g[, eps], x) on arrays; polarization_convention_equivalence
    passes an algebraically equivalent pair.
    """
    xs = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(xs > 0.0):
        raise ValueError("x = Omega * a must be positive")
    if np.any(xs == math.inf):
        raise ValueError("x = Omega * a must be finite")
    # 40 starting steps meet the default rtol = 1e-8 one halving earlier
    # than 32 do, for x anywhere in [1e-6, 1e12].
    outer_spec = QuadratureSpec(order=40, rtol=rtol)
    inner_spec = QuadratureSpec(order=16, rtol=0.1 * rtol)

    def angular(s, k, rb, x):
        t = s * s
        sinh = np.sinh(t)
        r = tm_coeff(0.5 * k, sinh / rb, x)
        out = np.empty((2,) + s.shape)
        _log_terms(k, sinh * sinh, r, out)
        out *= 2.0 * s * np.cosh(t)
        return out

    def parts(k, x):
        # x is a float or a column of couplings; each (x, k) is one element
        # of the inner rule. out holds TE, TM and the slope; the TE line
        # writes its energy into out[0] and its slope into out[2].
        c = k / x
        rb = np.sqrt(c)
        out = np.empty((3,) + rb.shape)
        _log_terms(k, c, te_coeff(0.5 * k, x), out[::2])
        tm, tm_slope = integrate_legendre(
            angular, np.sqrt(np.arcsinh(rb)).reshape(-1), inner_spec,
            *(_column(v, rb.shape) for v in (k, rb, x))
        ).reshape((2,) + rb.shape) / rb
        out[1] = tm
        out[2] += tm_slope
        out *= k * k
        return out

    if np.ndim(x) == 0:
        te, tm, slope = _NORM * integrate_exponential_weight(
            lambda k: parts(k, x), outer_spec)
        return float(te), float(tm), float(slope)
    te, tm, slope = _NORM * by_chunks(
        lambda x: integrate_exponential_weight(parts, outer_spec, x[:, None]),
        xs, _SWEEP_CHUNK)
    return te, tm, slope


def reduced_energy_parts(x, rtol=1e-8):
    """Dimensionless TE and TM parts of a^3 E/A at x = Omega a.

    Parameters
    ----------
    x : float
        Omega times distance, positive and finite.
    rtol : float
        Relative tolerance handed to the quadrature.

    Returns
    -------
    (te, tm) : tuple of float
        Both negative; their sum is a^3 E/A.
    """
    te, tm, _ = _energy_and_slope(x, rtol)
    return te, tm


def reduced_energy_and_pressure(x, rtol=1e-8):
    """TE and TM parts of a^3 E/A and the reduced pressure a^4 P at x = Omega a.

    All three come from one quadrature pass: a^4 P = 3 F(x) - x F'(x), with
    x F' integrated on the nodes of F. A 1-d array of x takes one pass per
    _SWEEP_CHUNK couplings, and each x gives the bits of its float call.

    Returns
    -------
    (te, tm, pressure) : tuple of float, or of arrays for an array x
        All negative; te + tm is a^3 E/A and pressure is a^4 P.
    """
    te, tm, slope = _energy_and_slope(x, rtol)
    return te, tm, 3.0 * (te + tm) - slope


def lifshitz_energy_per_area(a, sheet, rtol=1e-8):
    """Casimir energy per unit area of two sheets a apart (negative)."""
    return casimir_result(a, sheet, rtol).energy_per_area


def lifshitz_pressure(a, sheet, rtol=1e-8):
    """Casimir pressure -dE/da per unit area (negative: attraction).

    a^4 P = 3 F(x) - x F'(x), with F and x F' integrated on the same nodes
    in one pass; no finite difference is taken.
    """
    return casimir_result(a, sheet, rtol).pressure


@dataclass(frozen=True)
class CasimirResult:
    """Energy, pressure and polarization split for a two-sheet configuration."""

    distance: float
    omega: float
    energy_per_area: float
    pressure: float
    te_share: float
    tm_share: float

    def __post_init__(self):
        if self.omega > 0.0:
            if not self.energy_per_area < 0.0:
                raise ValueError("attractive configuration must have E < 0")
            if not self.pressure < 0.0:
                raise ValueError("attractive configuration must have P < 0")
            if not math.isclose(self.te_share + self.tm_share, 1.0,
                                rel_tol=0.0, abs_tol=1e-9):
                raise ValueError("pol shares must sum to 1")


def casimir_result(a, sheet, rtol=1e-8):
    """Bundle energy, pressure and TE/TM shares at distance a, from one pass.

    E/A = F(x)/a^3 and P = a^4 P/a^4 by divide_by_power: ValueError where
    either lies beyond the float range, and also where either underflows to
    0, since the result promises E < 0 and P < 0.
    """
    if not a > 0.0:
        raise ValueError("distance must be positive")
    if sheet.omega == 0.0:
        return CasimirResult(distance=a, omega=0.0, energy_per_area=0.0,
                             pressure=0.0, te_share=0.0, tm_share=1.0)
    te, tm, pressure = reduced_energy_and_pressure(sheet.omega * a, rtol)
    total = te + tm
    energy = divide_by_power(total, a, 3)
    pressure = divide_by_power(pressure, a, 4)
    if energy == 0.0 or pressure == 0.0:
        raise ValueError(f"energy or pressure at a = {a:.17g} is below the "
                         "float range")
    return CasimirResult(
        distance=a,
        omega=sheet.omega,
        energy_per_area=energy,
        pressure=pressure,
        te_share=te / total,
        tm_share=tm / total,
    )


def polarization_convention_equivalence(a, sheet, rtol=1e-8):
    """Relative energy difference between the two TM matching conventions.

    The sheet current-current form 1/(1 + 2 k4^2/(Omega gamma)) and the
    derivative-of-delta form Omega gamma/(Omega gamma + 2 k4^2) are the same
    rational function written differently; the energies they produce must
    agree to rounding. Returns |E_alt - E|/|E|.
    """
    if not a > 0.0:
        raise ValueError("distance must be positive")
    if sheet.omega == 0.0:
        return 0.0
    x = sheet.omega * a

    def te_alt(g, x_):
        return x_ / (x_ + 2.0 * g)

    def tm_alt(g, eps, x_):
        og = x_ * g
        return og / (og + 2.0 * g * g * eps * eps)

    te, tm, _ = _energy_and_slope(x, rtol)
    te2, tm2, _ = _energy_and_slope(x, rtol, te_alt, tm_alt)
    base = te + tm
    return abs((te2 + tm2) - base) / abs(base)
