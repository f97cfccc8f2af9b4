"""Two-sheet Casimir energy and pressure.

The energy per unit area of two parallel sheets at distance a is an
imaginary-frequency (Lifshitz-type) mode sum

    E/A = (1/4 pi^2) Int_0^inf dk4 Int_0^inf dkpar kpar
          sum_s ln(1 - r~_s^2 e^(-2 gamma a)),

with r~_s the Euclidean reflection coefficients. In polar coordinates
(g = gamma a, eps = k4/gamma) the double integral collapses to a function of
the single combination x = Omega a, so a^3 E/A = F(x) exactly. The ideal
conductor limit F(inf) = -pi^2/720 fixes the normalization.

Both reflection coefficients are r = 1/(1 + c), with c = 2g/x for TE and
2g eps^2/x for TM. With k = 2g, a = e^-k and S^2 = k/x, the TE part is a
single integral over k, and the TM part's angular integral has a closed
form: with b+- = sqrt(1 +- e^(-k/2)), from
ln((1 + s^2)^2 - a) = ln(s^2 + b+^2) + ln(s^2 + b-^2),

    Int_0^1 ln(1 - a/(1 + S^2 eps^2)^2) d eps
      = ln(1 - a/(1 + S^2)^2)
        + (2/S) [b+ atan(S/b+) + b- atan(S/b-) - 2 atan S].

Its bracket cancels like e^-k, so relative to its node its rounding error
grows like e^(k/2) eps; but the log-k rule weighs each node by k e^-k, so
the loss adds at most about eps Int k^2 e^(-k/2)/(1 + k/x) dk to F, and one
closed form serves every node. F is one log-k quadrature in k, of about
110 to 140 nodes per x. The factors that depend on the node alone (k^2,
and b+-, h/(1 + b+-), the cross term and e^(k/2), h = e^(-k/2)) come from
a table built once per level of the rule (_node_factors, passed as
integrate_exponential_weight's nodes); the integrand forms only what
depends on x.

The same scaling gives the pressure as a^4 P = 3 F(x) - x F'(x). For TE,
x dr/dx = r (1 - r), and x TE' is integrated on the nodes of F. r_TM at
(k, eps; x) is r_TE at (k; x/eps^2), so TM(x) = Int_0^1 TE(x/eps^2) d eps
= (sqrt(x)/2) Int_x^inf TE(y) y^(-3/2) dy, and differentiating gives
x TM'(x) = (TM - TE)/2 exactly. The pressure comes with the energy, from
one pass, not from a finite difference.

At small x, TE = -(1/32 pi^2) sum_n (1/n) Int k^2 e^(-nk) (x/(x + k))^(2n)
dk, from ln(1 - w) = -sum w^n/n. The n = 1 term is x^2 Int e^-k
(k/(k + x))^2 dk = x^2 [1 - 2x (ln(1/x) - gamma) + x + O(x^2 ln x)], from
e^x E1(x) = ln(1/x) - gamma + O(x ln x). Each n >= 2 lives on k ~ x, where
e^(-nk) ~ 1, and adds x^3 2/(n (2n-1)(2n-2)(2n-3)); these sum to
x^3 (8 ln 2 - 5)/3, so

    TE = -(x^2/32 pi^2) [1 - 2x (ln(1/x) - gamma) + (8 ln 2 - 2) x/3
                         + O(x^2 ln^2 x)].

The TM identity splits as TM = -C sqrt(x) - (sqrt(x)/2) Int_0^x TE(y)
y^(-3/2) dy, with C = -(1/2) Int_0^inf TE(y) y^(-3/2) dy = 0.0035437552...
The TE series in the second piece gives

    TM = -C sqrt(x) + (x^2/96 pi^2) [1 + (3x/5) (2 gamma + (8 ln 2 - 2)/3
                                     - 4/5 - 2 ln(1/x)) + O(x^2 ln^2 x)],

the y^(3/2) ln(1/y) term by Int_0^x y^(3/2) ln(1/y) dy
= (2/5) x^(5/2) (ln(1/x) + 2/5).

The check route, reduced_energy_and_pressure_nested, integrates the TM
angle and its slope by Gauss-Legendre at every node of the same log-k rule
instead: a tensor-product rule of thousands of nodes per x, which no
command calls.
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
    require_log_k_scale,
)

__all__ = [
    "CasimirResult",
    "reduced_energy_parts",
    "reduced_energy_and_pressure",
    "reduced_energy_and_pressure_nested",
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


def _log_terms(k, c, r, out, exponent=0):
    """e^k ln(1 - w) and e^k x d/dx ln(1 - w), times 2^(2 exponent), into
    out[0] and out[1], with w = r^2 e^-k and r = 1/(1 + c).

    c is k/x for TE, sinh^2 t for TM, so 1 - r = c r and ln r =
    log1p(-c r) keep their relative precision where r rounds to 1. Where
    c r rounds to 1 (c near 2^53 and above, x below about 1e-13), ln r is
    -log1p(c). With q = k - 2 ln r, w = e^-q, ln(1 - w) is
    log(-expm1(-q)) while w > 1/2 and log1p(-w) below. The factor e^k of
    the log-k rule's weight is folded in as r^2 ln(1 - w)/w, whose limit
    where w underflows is -r^2; the slope uses x dr/dx = r (1 - r). Both
    carry the factor r^2, formed as (r 2^exponent)^2: a power of two
    changes no bit where r^2 is a normal float, and keeps the TE rows of a
    tiny x, where r^2 is not, in the normal range.

    The kernel works in place, in out and in arrays it allocates itself;
    -q is formed once as 2 log1p(-c r) - k, which has the bits of -(k -
    2 ln r) since negation and doubling are exact.
    """
    energy, slope = out
    one_minus_r = c * r
    neg_q = np.negative(one_minus_r)
    below_one = one_minus_r < 1.0
    np.log1p(neg_q, out=neg_q, where=below_one)
    if not below_one.all():
        neg_q[~below_one] = -np.log1p(c[~below_one])
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
    r2 = np.ldexp(r, exponent, out=w)
    r2 *= r2
    energy *= r2
    np.multiply(r2, -2.0, out=slope)
    slope *= one_minus_r
    slope /= one_minus_w


# Couplings per pass of either route over an array of x. A pass refines
# each x alone, so the chunk sets only the cost and memory of a sweep, not
# its values. In timings of 6- to 2000-point sweeps of the 1-d pass, 64 was
# 1.5 to 2 times as fast as 8, and as fast as 256; whole 400- and 2000-point
# sweeps were slower.
_SWEEP_CHUNK = 64


def _node_factors(k):
    """The factors of _energy_and_slope's integrand that depend on the node
    alone, one column per node of the array k: k^2, then, with h = e^(-k/2)
    and b+- = sqrt(1 +- h), b+, b-, h/(1 + b+), h/(1 + b-), the cross term
    2 h^2/((b+ + b-)(1 + b+)(1 + b-)) and e^(k/2) of _tm_angle, which
    serves every node: the weight k e^-k of the log-k rule keeps its loss
    above k of about 2 small beside F. e^k is inf above k of about 709.8,
    and the nodes reach 800, so it is applied as two factors e^(k/2). Each
    column depends on its node alone, so the table of a level gives the bits
    of the factors formed on any slice.
    """
    h = np.exp(-0.5 * k)
    b_plus, b_minus = np.sqrt(1.0 + h), np.sqrt(-np.expm1(-0.5 * k))
    h_plus, h_minus = h / (1.0 + b_plus), h / (1.0 + b_minus)
    return np.stack((k * k, b_plus, b_minus, h_plus, h_minus,
                     2.0 * h_plus * h_minus / (b_plus + b_minus),
                     np.exp(0.5 * k)))


def _tm_angle(c, te, factors):
    """e^k Int_0^1 ln(1 - a/(1 + S^2 eps^2)^2) d eps, a = e^-k, S^2 = c = k/x.

    c has one row per x on a row of nodes, factors are the rows of
    _node_factors after k^2, and te = e^k ln(1 - a r^2), r = 1/(1 + c), is
    the TE energy of _log_terms. On every node the closed form, with
    h = e^(-k/2) and b+- = sqrt(1 +- h):

        te + e^k (2/S) [b+ atan(S/b+) + b- atan(S/b-) - 2 atan S].

    The bracket, O(a) from terms O(1), is summed as
    b+- (atan(S/b+-) - atan S) + (b+ + b- - 2) atan S, with
    atan(S/b) - atan S = atan(S (1 - b)/(b + S^2)), 1 - b+- = -+h/(1 + b+-)
    and b+ + b- - 2 = -2 h^2/((b+ + b-)(1 + b+)(1 + b-)): only the two O(h)
    terms cancel. The arctangent's argument is formed as
    (h/(1 + b+-)) (S/(b+- + c)), finite where c nears DBL_MAX; the bracket
    is 0 where S underflows. The bracket's rounding error grows like
    e^(k/2) eps relative to its node, but after the weight k e^-k of the
    log-k rule it adds at most about eps Int k^2 e^(-k/2)/(1 + k/x) dk to F.
    """
    b_plus, b_minus, h_plus, h_minus, cross, half_exp = factors
    s = np.sqrt(c)
    bracket = (
        b_plus * np.arctan(-h_plus * (s / (b_plus + c)))
        + b_minus * np.arctan(h_minus * (s / (b_minus + c)))
        - cross * np.arctan(s))
    np.divide(bracket, s, out=bracket, where=s > 0.0)
    bracket *= half_exp
    bracket *= 2.0 * half_exp
    return np.add(te, bracket, out=bracket)


def _couplings(x):
    """x as a 1-d float array, refused unless every element is positive,
    finite and at least 800/DBL_MAX."""
    xs = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(xs > 0.0):
        raise ValueError("x = Omega * a must be positive")
    if np.any(xs == math.inf):
        raise ValueError("x = Omega * a must be finite")
    require_log_k_scale(xs)
    return xs


def _pass(parts, xs, rtol, params=lambda x: (x,), nodes=None):
    """The rows of parts integrated by the log-k rule, times _NORM, for each
    x of the array xs: one pass per _SWEEP_CHUNK couplings. parts is called
    as parts(k, *rows), or parts(k, table, *rows) with the node table of
    nodes, and rows are the columns of params(x) for the x still refining.
    """
    # 40 starting steps meet the default rtol = 1e-8 one halving earlier
    # than 32 do, for x anywhere in [1e-6, 1e12].
    spec = QuadratureSpec(order=40, rtol=rtol)
    return _NORM * by_chunks(
        lambda x: integrate_exponential_weight(
            parts, spec, *(row[:, None] for row in params(x)), nodes=nodes),
        xs, _SWEEP_CHUNK)


def _as_given(x, rows):
    """The rows as floats for a float x, as arrays for an array."""
    if np.ndim(x) == 0:
        return tuple(float(row[0]) for row in rows)
    return tuple(rows)


def _te_exponent(x):
    """The n with x 2^n in [1/2, 1) where x < 1/2, and 0 from there up: the
    TE rows, which go like x^2, are integrated times 2^(2n), so they stay
    normal floats down to x = 800/DBL_MAX."""
    return np.maximum(-np.frexp(x)[1], 0)


def _energy_and_slope(x, rtol):
    """(TE part, TM part, x F'(x)) of a^3 E/A = F(x) from one 1-d pass.

    x is a float, giving floats, or a 1-d array, giving arrays; each x is
    one element of its pass, so its values do not depend on the other x.
    One log-k trapezoid rule in k = 2g, refined on the support of its three
    rows until all three reach rtol: the TE energy and the TE slope of
    _log_terms, with r = 1/(1 + c) and c = k/x, and the TM part, whose
    angular integral _tm_angle does in closed form. The TM coefficient at
    (k, eps; x) is the TE one at (k; x/eps^2), so TM(x) = Int_0^1
    TE(x/eps^2) d eps, whose derivative is x TM'(x) = (TM - TE)/2 exactly:
    the TM slope is no integral of its own, and x F' = x TE' + (TM - TE)/2.

    The TE rows are integrated times 2^(2n) of _te_exponent and scaled back
    at the end, which changes no bit where they are normal floats; below
    x of about 2.6e-153 the TE part is subnormal, and below about 2.8e-161
    it is 0. An x below 800/DBL_MAX, about 4.5e-306, where c = k/x
    overflows, raises ValueError before any quadrature.
    """
    def parts(k, table, x, n):
        # out holds TE, TM and the TE slope; the TE line writes its energy
        # into out[0] and its slope into out[2], times 2^(2n)
        c = k / x
        r = 1.0 / (1.0 + c)
        out = np.empty((3,) + c.shape)
        _log_terms(k, c, r, out[::2], n)
        out[1] = _tm_angle(c, np.ldexp(out[0], -2 * n), table[1:])
        out *= table[0]
        return out

    xs = _couplings(x)
    te, tm, te_slope = _pass(parts, xs, rtol,
                             lambda x: (x, _te_exponent(x)), _node_factors)
    down = -2 * _te_exponent(xs)
    te, te_slope = np.ldexp(te, down), np.ldexp(te_slope, down)
    return _as_given(x, (te, tm, te_slope + 0.5 * (tm - te)))


def _nested_energy_and_slope(x, rtol, reflection=lambda c: 1.0 / (1.0 + c)):
    """(TE part, TM part, x F'(x)) of a^3 E/A = F(x) from a tensor-product
    pass, the check route of _energy_and_slope.

    The outer rule is that of _energy_and_slope, but the TM angular integral
    and its slope are integrated at every (x, k), to rtol/10, with k its
    one parameter, as Gauss-Legendre in s with eps = sinh(t) sqrt(x/k) and
    t = s^2. The square clusters the nodes near t = 0, where
    ln(1 - w) ~ ln(k + 2 t^2) has branch points at t = +-i sqrt(k/2);
    without it x = 1e-6 cannot reach rtol = 1e-10 below Gauss-Legendre
    order 512. The TE terms and the TM angular integrand come from the
    in-place kernel _log_terms; the inner rule calls the angular integrand
    on blocks of at most 8192 nodes. Below x of about 1e-13 the inner rule
    cannot reach rtol/10.

    Both coefficients are r = reflection(c), with c = k/x for TE and
    c = 2 g eps^2/x = sinh^2 t for TM, so r_TM = sech^2 t on the inner
    nodes; polarization_convention_equivalence passes an equivalent form.
    """
    inner_spec = QuadratureSpec(order=16, rtol=0.1 * rtol)

    def angular(s, k):
        t = s * s
        sinh = np.sinh(t)
        c = sinh * sinh
        out = np.empty((2,) + s.shape)
        _log_terms(k, c, reflection(c), out)
        out *= 2.0 * s * np.cosh(t)
        return out

    def parts(k, x):
        # x is a column of couplings; each (x, k) is one element of the
        # inner rule. out holds TE, TM and the slope; the TE line writes
        # its energy into out[0] and its slope into out[2]. Where c
        # underflows to 0 (x near DBL_MAX), S = rb = 0: the inner rule
        # integrates over [0, 0] to 0, and the TM node is the TE node, as
        # in the 1-d route.
        c = k / x
        rb = np.sqrt(c)
        out = np.empty((3,) + c.shape)
        _log_terms(k, c, reflection(c), out[::2])
        inner = integrate_legendre(
            angular, np.sqrt(np.arcsinh(rb)).reshape(-1), inner_spec,
            np.broadcast_to(k, c.shape).reshape(-1, 1)
        ).reshape((2,) + c.shape)
        lit = rb > 0.0
        tm, tm_slope = np.divide(inner, rb, out=inner, where=lit)
        out[1] = np.where(lit, tm, out[0])
        out[2] += tm_slope
        out *= k * k
        return out

    return _as_given(x, _pass(parts, _couplings(x), rtol))


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


def reduced_energy_and_pressure_nested(x, rtol=1e-8):
    """reduced_energy_and_pressure by its check route: the TM angle and its
    slope integrated by Gauss-Legendre at every node of the log-k rule.

    A library route, as delta1_integral_form is for delta1; no command
    calls it. Below x of about 1e-13 its inner rule cannot reach its
    tolerance, and it raises ToleranceNotMet.
    """
    te, tm, slope = _nested_energy_and_slope(x, rtol)
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
    rational function written differently: with c = 2 k4^2/(Omega gamma),
    1/(1 + c) and 1 - c/(1 + c), which the kernel takes for both
    polarizations. The energies they produce must agree to rounding.
    Returns |E_alt - E|/|E|.
    """
    if not a > 0.0:
        raise ValueError("distance must be positive")
    if sheet.omega == 0.0:
        return 0.0
    x = sheet.omega * a
    te, tm, _ = _nested_energy_and_slope(x, rtol)
    te2, tm2, _ = _nested_energy_and_slope(
        x, rtol, lambda c: 1.0 - c / (1.0 + c))
    base = te + tm
    return abs((te2 + tm2) - base) / abs(base)
