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
eps = sinh(t) sqrt(x/k) and t = s^2.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _log_terms(k, c, r):
    """e^k ln(1 - w) and e^k x d/dx ln(1 - w), w = r^2 e^-k, r = 1/(1 + c).

    c is the exactly known part of 1/r - 1 (k/x for TE, sinh^2 t for TM),
    so 1 - r = c r and ln r = log1p(-c r) keep their relative precision
    where r rounds to 1. With q = k - 2 ln r, w = e^-q, ln(1 - w) is
    log(-expm1(-q)) while w > 1/2 and log1p(-w) below. The factor e^k of
    the log-k rule's weight is folded in as r^2 ln(1 - w)/w, whose limit
    where w underflows is -r^2; the slope uses x dr/dx = r (1 - r).
    """
    one_minus_r = c * r
    q = k - 2.0 * np.log1p(-one_minus_r)
    w = np.exp(-q)
    one_minus_w = -np.expm1(-q)
    log_one_minus_w = np.log(one_minus_w)
    np.log1p(-w, out=log_one_minus_w, where=q >= _LN2)
    ratio = np.divide(log_one_minus_w, w, out=np.full_like(w, -1.0),
                      where=w > 0.0)
    r2 = r * r
    return r2 * ratio, -2.0 * r2 * one_minus_r / one_minus_w


def _energy_and_slope(x, rtol, te_coeff=_te_euclidean, tm_coeff=_tm_euclidean):
    """(TE part, TM part, x F'(x)) of a^3 E/A = F(x) from one quadrature pass.

    Outer rule: the log-k trapezoid rule in k = 2g, refined until all three
    integrals reach rtol. Inner rule: the TM angular integral over eps in
    [0, 1], refined to rtol/10 at every outer node, as Gauss-Legendre in s
    with eps = sinh(t) sqrt(x/k) and t = s^2. The square clusters the nodes
    near t = 0, where ln(1 - w) ~ ln(k + 2 t^2) has branch points at
    t = +-i sqrt(k/2); without it x = 1e-6 cannot reach rtol = 1e-10 below
    Gauss-Legendre order 512.
    """
    if x <= 0.0:
        raise ValueError("x = Omega * a must be positive")
    # 40 starting steps meet the default rtol = 1e-8 one halving earlier
    # than 32 do, for x anywhere in [1e-6, 1e12].
    outer_spec = QuadratureSpec(kind="exponential-weight", order=40, rtol=rtol)
    inner_spec = QuadratureSpec(kind="gauss-legendre", order=16,
                                rtol=0.1 * rtol)

    def parts(k):
        te, te_slope = _log_terms(k, k / x, te_coeff(0.5 * k, x))
        rb = np.sqrt(k / x)
        k_col, rb_col = k[:, None], rb[:, None]

        def angular(s):
            t = s * s
            sinh = np.sinh(t)
            r = tm_coeff(0.5 * k_col, sinh / rb_col, x)
            out = np.stack(_log_terms(k_col, sinh * sinh, r))
            out *= 2.0 * s * np.cosh(t)
            return out

        tm, tm_slope = integrate_legendre(
            angular, np.sqrt(np.arcsinh(rb)), inner_spec) / rb
        return k * k * np.stack((te, tm, te_slope + tm_slope))

    te, tm, slope = _NORM * integrate_exponential_weight(parts, outer_spec)
    return float(te), float(tm), float(slope)


def reduced_energy_parts(x, rtol=1e-8, te_coeff=_te_euclidean, tm_coeff=_tm_euclidean):
    """Dimensionless TE and TM parts of a^3 E/A at x = Omega a.

    Parameters
    ----------
    x : float
        Omega times distance, positive.
    rtol : float
        Relative tolerance handed to the quadrature.
    te_coeff, tm_coeff : callable
        Euclidean reflection coefficients as functions of (g[, eps], x),
        called on arrays; swappable so algebraically equivalent conventions
        can be compared.

    Returns
    -------
    (te, tm) : tuple of float
        Both negative; their sum is a^3 E/A.
    """
    te, tm, _ = _energy_and_slope(x, rtol, te_coeff, tm_coeff)
    return te, tm


def reduced_energy_and_pressure(x, rtol=1e-8):
    """TE and TM parts of a^3 E/A and the reduced pressure a^4 P at x = Omega a.

    All three come from one quadrature pass: a^4 P = 3 F(x) - x F'(x), with
    x F' integrated on the nodes of F.

    Returns
    -------
    (te, tm, pressure) : tuple of float
        All negative; te + tm is a^3 E/A and pressure is a^4 P.
    """
    te, tm, slope = _energy_and_slope(x, rtol)
    return te, tm, 3.0 * (te + tm) - slope


def lifshitz_energy_per_area(a, sheet, rtol=1e-8):
    """Casimir energy per unit area of two sheets a apart (negative)."""
    if a <= 0.0:
        raise ValueError("distance must be positive")
    if sheet.omega == 0.0:
        return 0.0
    te, tm = reduced_energy_parts(sheet.omega * a, rtol)
    return (te + tm) / a**3


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
    """Bundle energy, pressure and TE/TM shares at distance a, from one pass."""
    if a <= 0.0:
        raise ValueError("distance must be positive")
    if sheet.omega == 0.0:
        return CasimirResult(distance=a, omega=0.0, energy_per_area=0.0,
                             pressure=0.0, te_share=0.0, tm_share=1.0)
    te, tm, pressure = reduced_energy_and_pressure(sheet.omega * a, rtol)
    total = te + tm
    return CasimirResult(
        distance=a,
        omega=sheet.omega,
        energy_per_area=total / a**3,
        pressure=pressure / a**4,
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
    if a <= 0.0:
        raise ValueError("distance must be positive")
    if sheet.omega == 0.0:
        return 0.0
    x = sheet.omega * a

    def te_alt(g, x_):
        return x_ / (x_ + 2.0 * g)

    def tm_alt(g, eps, x_):
        og = x_ * g
        return og / (og + 2.0 * g * g * eps * eps)

    te, tm = reduced_energy_parts(x, rtol)
    te2, tm2 = reduced_energy_parts(x, rtol, te_coeff=te_alt, tm_coeff=tm_alt)
    base = te + tm
    return abs((te2 + tm2) - base) / abs(base)
