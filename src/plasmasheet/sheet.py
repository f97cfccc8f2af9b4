"""Single-sheet electromagnetic response.

An infinitely thin plasma sheet in the x3 = 0 plane is characterized by one
parameter Omega with the dimension of a mass (the plasma frequency scale of
the sheet's charge fluid). The transverse electric and magnetic field modes
see the sheet through reflection coefficients

    r_TE = 1 / (1 - 2 i Gamma / Omega),
    r_TM = 1 / (1 - 2 i k0^2 / (Omega Gamma)),

with Gamma = sqrt(k0^2 - kpar^2 + i0) the normal momentum component.
Omega -> infinity is the ideal conductor, Omega = 0 is free space. Units
hbar = c = 1.

Scaling rule. Every function here depends on the momenta through ratios
or a power of one common scale. Where the largest modulus of Re k0, Im k0
and kpar is nonzero and outside [2^-511, 2^511], so that a square would
leave the normal float range, the momenta are divided by the power of two
s that brings it into [1, 2) (ldexp, exact), and the result is formed from
the scaled momenta and s: the scaled-norm technique of J. L. Blue, ACM TOMS
4, 15 (1978), as in numerics.divide_by_power. _power_scale holds this
decision and _scaled applies it to (k0, kpar). Inside the range s = 1 and
each formula is the unscaled one, bit for bit; a formula that divides by
the square of the smaller momentum forms a ratio first where that square
is not normal (_square_is_normal). The plasmon routes divide (Omega, kpar)
by a power of two in every row (_plasmon_momenta).
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateMomentumError, IterationLimitError,
                     OnLightConeError)
from .numerics import find_root_bracketed

__all__ = [
    "SheetParameters",
    "MinkowskiMomentum",
    "EuclideanMomentum",
    "PolarizationBasis",
    "gamma_minkowski",
    "reflection_te",
    "reflection_tm",
    "reflection_coefficients",
    "reflection_te_euclidean",
    "reflection_tm_euclidean",
    "scalar_reflection",
    "scalar_propagator",
    "matching_residual",
    "polarization_basis",
    "tm_plasmon_closed",
    "tm_plasmon_root",
    "te_plasmon_exists",
]


@dataclass(frozen=True)
class SheetParameters:
    """Sheet coupling Omega of a single sheet in the plane x3 = 0.

    omega = 0 is accepted as the transparent (free-space) limit even though
    the physical sheet has omega > 0; several limit checks rely on it.
    """

    omega: float

    def __post_init__(self):
        if not math.isfinite(self.omega) or self.omega < 0.0:
            raise ValueError("omega must be finite and nonnegative")


@dataclass(frozen=True)
class MinkowskiMomentum:
    """Real-frequency momentum (k0; k1, k2) in the sheet plane problem.

    kpar is derived from the transverse components. k0 may be complex when a
    caller continues the reflection coefficients off the real axis.
    """

    k0: float
    k1: float = 0.0
    k2: float = 0.0
    kpar: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise ValueError("k1, k2 must be finite reals")
        if not cmath.isfinite(complex(self.k0)):
            raise ValueError("k0 must be finite")
        object.__setattr__(self, "kpar", math.hypot(self.k1, self.k2))

    @classmethod
    def from_parallel(cls, k0, kpar):
        """Momentum with the parallel part aligned with the 1-axis."""
        if kpar < 0:
            raise ValueError("kpar must be nonnegative")
        return cls(k0=k0, k1=kpar, k2=0.0)


@dataclass(frozen=True)
class EuclideanMomentum:
    """Imaginary-frequency momentum (k4, kpar), both nonnegative."""

    k4: float
    kpar: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.k4) and math.isfinite(self.kpar)):
            raise ValueError("momentum components must be finite")
        if self.k4 < 0 or self.kpar < 0:
            raise ValueError("k4 and kpar must be nonnegative")
        object.__setattr__(self, "gamma", math.hypot(self.k4, self.kpar))


# Momenta whose largest modulus lies in this range have normal squares.
_SQUARE_MIN, _SQUARE_MAX = 2.0 ** -511, 2.0 ** 511
# Smallest normal float.
_NORMAL_MIN = 2.0 ** -1022


def _power_scale(top):
    """Exponent e of the power of two that momenta of largest modulus top
    are divided by: 0 where top is 0 or in [_SQUARE_MIN, _SQUARE_MAX], else
    the e that brings top into [1, 2). A float gives an int, an array an
    int array.
    """
    if isinstance(top, np.ndarray):
        wide = (top != 0.0) & ((top < _SQUARE_MIN) | (top > _SQUARE_MAX))
        return np.where(wide, np.frexp(top)[1] - 1, 0)
    if top == 0.0 or _SQUARE_MIN <= top <= _SQUARE_MAX:
        return 0
    return math.frexp(top)[1] - 1


def _square_is_normal(scale, divisor):
    """Whether a formula that divides by divisor^2 may run unscaled: the
    momenta are at scale 1 and divisor^2 is a normal float (or divisor is 0,
    which the callers refuse before).
    """
    return scale == 1.0 and not _power_scale(divisor)


def _scaled(k0, kpar):
    """The scaling rule: (k0/s, kpar/s, Gamma/s, s) with s = 2^e.

    e is _power_scale of the largest modulus of Re k0, Im k0 and kpar, and
    Gamma/s = sqrt((k0/s)^2 - (kpar/s)^2) on the branch of gamma_minkowski.
    k0 is a number and kpar a float, giving numbers, or an array of floats,
    giving arrays.
    """
    k0 = complex(k0)
    if isinstance(kpar, np.ndarray):
        e = _power_scale(np.asarray(np.maximum(kpar, max(abs(k0.real),
                                                         abs(k0.imag)))))
        k0, kpar = (np.ldexp(k0.real, -e) + 1j * np.ldexp(k0.imag, -e),
                    np.ldexp(kpar, -e))
        # k0^2 from the real products of the scalar complex multiply, which
        # numpy's complex multiply does not round alike
        gamma = np.sqrt((k0.real * k0.real - k0.imag * k0.imag) - kpar * kpar
                        + 2j * (k0.real * k0.imag))
        gamma = np.where((gamma.imag < 0.0)
                         | ((gamma.imag == 0.0) & (gamma.real < 0.0)),
                         -gamma, gamma)
        return k0, kpar, gamma, np.ldexp(1.0, e)
    e = _power_scale(max(abs(k0.real), abs(k0.imag), kpar))
    scale = 1.0
    if e:
        k0 = complex(math.ldexp(k0.real, -e), math.ldexp(k0.imag, -e))
        kpar, scale = math.ldexp(kpar, -e), math.ldexp(1.0, e)
    gamma = cmath.sqrt(k0 ** 2 - kpar * kpar)
    if gamma.imag < 0.0 or (gamma.imag == 0.0 and gamma.real < 0.0):
        gamma = -gamma
    return k0, kpar, gamma, scale


def _beyond_float_range(k0, kpar):
    """The error for a Gamma beyond the float range, naming the momenta."""
    return ValueError(f"Gamma at k0 = {k0}, kpar = {kpar} is beyond the "
                      "float range")


def gamma_minkowski(k):
    """Normal momentum Gamma = sqrt(k0^2 - kpar^2 + i0).

    Real and positive above the light cone, +i sqrt(kpar^2 - k0^2) below it;
    for complex k0 the branch with Im Gamma >= 0 continues these choices.
    Gamma comes from the scaled momenta (module docstring); a Gamma beyond
    the float range raises ValueError.
    """
    _, _, gamma, scale = _scaled(k.k0, k.kpar)
    return _unscaled_gamma(k, gamma, scale)


def _unscaled_gamma(k, gamma, scale):
    """Gamma from the scaled Gamma/s and s, or ValueError beyond the float
    range."""
    if scale == 1.0:
        return gamma
    gamma = scale * gamma
    if not cmath.isfinite(gamma):
        raise _beyond_float_range(k.k0, k.kpar)
    return gamma


def reflection_te(k, sheet):
    """TE (transverse electric) reflection coefficient of a single sheet.

    Beyond scale 1 (module docstring) the value is
    (Omega/2)/(Omega/2 - i Gamma), so that 2 Gamma/Omega need not be a
    float.
    """
    if sheet.omega == 0.0:
        return 0.0 + 0.0j
    _, _, gamma, scale = _scaled(k.k0, k.kpar)
    if scale == 1.0:
        return 1.0 / (1.0 - 2j * gamma / sheet.omega)
    half = 0.5 * sheet.omega
    return half / (half - 1j * _unscaled_gamma(k, gamma, scale))


def reflection_tm(k, sheet):
    """TM (transverse magnetic) reflection coefficient of a single sheet.

    The static mode reflects perfectly: r_TM(k0=0) = 1 exactly for any
    omega > 0. On the light cone (Gamma = 0 with k0 != 0) the 1/Gamma pole
    makes the value undefined. Beyond scale 1 (module docstring) the value
    is (Omega/2)/(Omega/2 - i k0 (k0/Gamma) s) in the scaled momenta.
    """
    if sheet.omega == 0.0:
        return 0.0 + 0.0j
    k0, _, gamma, scale = _scaled(k.k0, k.kpar)
    if gamma == 0.0:
        if k.k0 == 0.0:
            return 1.0 + 0.0j  # static limit along kpar = 0
        raise OnLightConeError(f"Gamma = 0 at k0 = {k.k0}")
    if scale == 1.0:
        return 1.0 / (1.0 - 2j * k0 ** 2 / (sheet.omega * gamma))
    half = 0.5 * sheet.omega
    return half / (half - 1j * (k0 * (k0 / gamma)) * scale)


def reflection_coefficients(k0, kpar, sheet):
    """(r_TE, r_TM) at one frequency k0 over an array of parallel momenta.

    Array form of reflection_te and reflection_tm, with the same branch of
    Gamma, the same scaling rule (module docstring) and the same rules: a
    transparent sheet gives zeros, a kpar on the light cone (Gamma = 0)
    raises OnLightConeError unless k0 = 0, where r_TM = 1, and a Gamma
    beyond the float range raises ValueError. Each row depends on its own
    kpar alone.
    """
    if not cmath.isfinite(complex(k0)):
        raise ValueError("k0 must be finite")
    kpar = np.asarray(kpar, dtype=float)
    if (kpar < 0).any():
        raise ValueError("kpar must be nonnegative")
    if not np.isfinite(kpar).all():
        raise ValueError("kpar must be finite")
    if sheet.omega == 0.0:
        return (np.zeros(kpar.shape, dtype=complex),
                np.zeros(kpar.shape, dtype=complex))
    k0s, _, gamma, scale = _scaled(k0, kpar)
    unit = scale == 1.0
    with np.errstate(over="ignore"):
        full = gamma * scale
    if not np.isfinite(full).all():
        raise _beyond_float_range(k0, kpar[~np.isfinite(full)][0])
    on_cone = gamma == 0.0
    if on_cone.any():
        if k0 != 0.0:
            raise OnLightConeError(f"Gamma = 0 at k0 = {k0}")
        gamma = np.where(on_cone, 1.0, gamma)  # static limit: r_TM = 1
    r_te = np.empty(kpar.shape, dtype=complex)
    r_tm = np.empty(kpar.shape, dtype=complex)
    wide = ~unit
    k0s, half = k0s[wide], 0.5 * sheet.omega
    # a term beside 1 beyond the float range gives r = 0, as in the scalar
    # functions
    with np.errstate(over="ignore"):
        if unit.any():
            r_te[unit] = 1.0 / (1.0 - 2j * full[unit] / sheet.omega)
            r_tm[unit] = 1.0 / (1.0 - 2j * complex(k0) ** 2
                                / (sheet.omega * gamma[unit]))
        r_te[wide] = half / (half - 1j * full[wide])
        r_tm[wide] = half / (half - 1j * (k0s * (k0s / gamma[wide]))
                             * scale[wide])
    return r_te, r_tm


def reflection_te_euclidean(k, sheet):
    """TE reflection on the imaginary frequency axis: 1/(1 + 2 gamma/Omega)."""
    if k.gamma == 0.0:
        raise DegenerateMomentumError("gamma = 0 point of the Euclidean half-plane")
    if sheet.omega == 0.0:
        return 0.0
    return 1.0 / (1.0 + 2.0 * k.gamma / sheet.omega)


def reflection_tm_euclidean(k, sheet):
    """TM reflection on the imaginary frequency axis: 1/(1 + 2 k4^2/(Omega gamma))."""
    if k.gamma == 0.0:
        raise DegenerateMomentumError("gamma = 0 point of the Euclidean half-plane")
    if sheet.omega == 0.0:
        return 0.0
    return 1.0 / (1.0 + 2.0 * k.k4 * k.k4 / (sheet.omega * k.gamma))


def scalar_reflection(k, sheet):
    """Reflection coefficient of the scalar model problem.

    The sheet enters the scalar wave equation through a delta potential of
    strength Omega kpar^2/k0^2, giving r = 1/(1 - (2 i Gamma/Omega)(k0^2/kpar^2)).
    The static value is exactly 1. Beyond scale 1 or a normal kpar^2
    (module docstring), or where the unscaled product overflows,
    k0^2/kpar^2 is formed as the square of k0/kpar; where the term beside 1
    still leaves the float range, r is 0.
    """
    if k.kpar == 0.0:
        raise DegenerateMomentumError("scalar reflection needs kpar != 0")
    if sheet.omega == 0.0:
        return 0.0 + 0.0j
    k0, kpar, gamma, scale = _scaled(k.k0, k.kpar)
    if _square_is_normal(scale, kpar):
        term = 2j * gamma * k0 ** 2 / (sheet.omega * kpar * kpar)
        if cmath.isfinite(term):
            return 1.0 / (1.0 - term)
    ratio = complex(k.k0) / k.kpar
    term = 2j * (gamma * ratio) * (ratio * scale) / sheet.omega
    return 1.0 / (1.0 - term) if cmath.isfinite(term) else 0.0 + 0.0j


# Reflection coefficient of each polarization, and the numerator N of its
# delta-potential strength: the strength multiplying D(0, y3) in the jump of
# the normal derivative is N / k0^2, or Omega itself for TE. N takes the
# scaled momenta (module docstring); N / k0^2 does not depend on the scale.
_POLARIZATIONS = {
    "scalar": (scalar_reflection,
               lambda omega, kpar, gamma: omega * kpar * kpar),
    "te": (reflection_te, None),
    "tm": (reflection_tm, lambda omega, kpar, gamma: omega * (gamma * gamma)),
}


def _polarization(name):
    """(reflection, strength numerator) of a polarization, in any case."""
    rule = _POLARIZATIONS.get(name.lower())
    if rule is None:
        raise ValueError(
            f"polarization must be one of {tuple(_POLARIZATIONS)}")
    return rule


def scalar_propagator(x3, y3, k, sheet, polarization="scalar", parts=False):
    """Mode propagator along x3 for a single sheet at the origin.

    D(x3, y3) = e^(i Gamma |x3-y3|)/(2 i Gamma)
                - r e^(i Gamma (|x3|+|y3|))/(2 i Gamma)

    with r the reflection coefficient of the requested polarization. The
    first (free) term is the empty-space propagator; the second (boundary)
    term carries the entire effect of the sheet.

    Parameters
    ----------
    x3, y3 : float
    k : MinkowskiMomentum
    sheet : SheetParameters
    polarization : str
        "scalar", "te" or "tm".
    parts : bool
        When true, return (free, boundary) with D = free - boundary.

    Returns
    -------
    complex, or (complex, complex)
    """
    gamma = gamma_minkowski(k)
    if gamma == 0.0:
        raise OnLightConeError("free propagator pole at Gamma = 0")
    r = _polarization(polarization)[0](k, sheet)
    free = cmath.exp(1j * gamma * abs(x3 - y3)) / (2j * gamma)
    boundary = r * cmath.exp(1j * gamma * (abs(x3) + abs(y3))) / (2j * gamma)
    if parts:
        return free, boundary
    return free - boundary


def matching_residual(k, sheet, polarization="scalar", probe_offset=1e-3, y3=None):
    """Finite-difference check of the sheet matching conditions.

    The propagator must be continuous across the sheet while its normal
    derivative jumps by the delta-potential strength times the value:
    [D'](0) = C D(0, y3). Both properties are probed with second-order
    one-sided stencils at offsets (h, 2h) applied to the boundary part of
    scalar_propagator; the free part is analytic across the plane and drops
    out of the discontinuities identically, so a transparent sheet gives
    exact zeros.

    Returns
    -------
    (continuity_residual, jump_residual) : tuple of float
        Magnitudes that vanish at least quadratically as probe_offset -> 0.

    Raises
    ------
    ValueError
        Naming k0 and kpar where the default source point 0.75/|Gamma| or
        the residuals are beyond the float range, as where Gamma is so
        small that the free propagator 1/(2i Gamma) nears the top of it.
    """
    h = float(probe_offset)
    if not 0.0 < h < math.inf:
        raise ValueError("probe_offset must be positive and finite")
    k0, kpar, gamma, scale = _scaled(k.k0, k.kpar)
    if gamma == 0.0:
        raise OnLightConeError("free propagator pole at Gamma = 0")
    if y3 is None:
        y3 = max(0.75 / abs(gamma) / scale, 8.0 * h)
        if y3 == math.inf:
            raise ValueError(f"default source point 0.75/|Gamma| at k0 = "
                             f"{k.k0}, kpar = {k.kpar} is beyond the float "
                             "range")
    if not 2.0 * h < y3 < math.inf:
        raise ValueError("source point y3 must be finite and sit beyond the "
                         "probe stencil")
    numerator = _polarization(polarization)[1]
    if numerator is None:
        coeff = complex(sheet.omega)
    elif k.k0 == 0.0:
        raise DegenerateMomentumError(
            f"{polarization.lower()} jump coefficient is singular at k0 = 0")
    elif _square_is_normal(scale, abs(k0)):
        coeff = numerator(sheet.omega, kpar, gamma) / k0 ** 2
    else:  # N is homogeneous of degree 2: N / k0^2 = N(kpar/k0, Gamma/k0)
        coeff = numerator(sheet.omega, k.kpar / complex(k.k0),
                          gamma * (scale / complex(k.k0)))
    if not cmath.isfinite(coeff):
        raise ValueError(f"jump coefficient at k0 = {k.k0}, kpar = {k.kpar} "
                         "is beyond the float range")

    def dbar(x):
        return scalar_propagator(x, y3, k, sheet, polarization, parts=True)[1]

    vplus = 2.0 * dbar(h) - dbar(2 * h)
    vminus = 2.0 * dbar(-h) - dbar(-2 * h)
    continuity = abs(vplus - vminus)

    dplus = (-3.0 * dbar(0.0) + 4.0 * dbar(h) - dbar(2 * h)) / (2 * h)
    dminus = (3.0 * dbar(0.0) - 4.0 * dbar(-h) + dbar(-2 * h)) / (2 * h)
    jump_fd = -(dplus - dminus)  # boundary part carries the full kink of D

    free0, dbar0 = scalar_propagator(0.0, y3, k, sheet, polarization, parts=True)
    jump = abs(jump_fd - coeff * (free0 - dbar0))
    if not (math.isfinite(continuity) and math.isfinite(jump)):
        raise ValueError(
            f"matching residuals at k0 = {k.k0}, kpar = {k.kpar} are beyond "
            "the float range: the free propagator 1/(2i Gamma) has modulus "
            f"{0.5 / abs(gamma) / scale:.3g}")
    return continuity, jump


_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class PolarizationBasis:
    """Orthonormal four-vector basis adapted to a sheet momentum.

    Rows of ``vectors`` are E^0 (longitudinal-temporal), E^1 (TE),
    E^2 (TM), E^3 (normal), normalized to E^s g E^t = g_st with
    g = diag(+,-,-,-).
    """

    vectors: np.ndarray

    def orthonormality_residual(self):
        """Max deviation of E^s g E^t from g_st (no conjugation)."""
        gram = self.vectors @ _METRIC @ self.vectors.T
        return float(np.max(np.abs(gram - _METRIC)))

    def completeness_residual(self):
        """Max deviation of sum_s g_ss E^s_mu E^s_nu from g_mu_nu."""
        recon = sum(_METRIC[s, s] * np.outer(self.vectors[s], self.vectors[s])
                    for s in range(4))
        return float(np.max(np.abs(recon - _METRIC)))


def polarization_basis(k):
    """Polarization four-vectors for a momentum off the light cone.

    Needs kpar != 0 and Gamma != 0; on either degeneracy the basis below is
    not defined (0/0 in the TE/TM directions). Every vector is homogeneous
    of degree 0 in the momenta, so it comes from the scaled momenta (module
    docstring).
    """
    if k.kpar == 0.0:
        raise DegenerateMomentumError("basis undefined at kpar = 0")
    k0, kp, gamma, scale = _scaled(k.k0, k.kpar)
    if gamma == 0.0:
        raise DegenerateMomentumError("basis undefined on the light cone")
    k1, k2 = k.k1 / scale, k.k2 / scale
    e0 = np.array([k0, k1, k2, 0.0]) / gamma
    e1 = np.array([0.0, k.k2, -k.k1, 0.0]) / k.kpar
    if _square_is_normal(scale, kp):
        e2 = np.array([kp * kp, k0 * k1, k0 * k2, 0.0]) / (gamma * kp)
    else:  # the same vector from ratios
        ratio = k0 / gamma
        e2 = np.array([kp / gamma, ratio * (k.k1 / k.kpar),
                       ratio * (k.k2 / k.kpar), 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    return PolarizationBasis(vectors=np.array([e0, e1, e2, e3]))


def _plasmon_momenta(kpar, sheet):
    """(Omega, kpar) / 2^e and e, with kpar (a float or an array) checked
    for every plasmon route and 2^e the power of two of max(Omega, kpar).

    The plasmon quantities are homogeneous in (Omega, kpar), and the closed
    form has a cube, which can leave the float range where no square does.
    So every row is divided; the division is exact and keeps the bits.
    Where the smaller of the two then lies below the smallest normal float,
    their ratio is beyond the float range and a ValueError names them.
    """
    kpar = np.asarray(kpar, dtype=float)
    if not np.isfinite(kpar).all():
        raise ValueError("kpar must be finite")
    if not (kpar > 0.0).all():
        raise DegenerateMomentumError("plasmon branch needs kpar > 0")
    if sheet.omega <= 0.0:
        raise ValueError("plasmon branch needs omega > 0")
    e = np.frexp(np.maximum(kpar, sheet.omega))[1]
    om, scaled = np.ldexp(float(sheet.omega), -e), np.ldexp(kpar, -e)
    apart = np.minimum(om, scaled) < _NORMAL_MIN
    if apart.any():
        raise ValueError(f"kpar = {float(kpar[apart].flat[0])} and Omega = "
                         f"{sheet.omega} are too far apart: their ratio is "
                         "beyond the float range")
    return om, scaled, e


def tm_plasmon_closed(kpar, sheet):
    """Surface plasmon frequency on the TM branch, closed form.

    k0^2 = 2 Omega kpar^2 / (sqrt(Omega^2 + 16 kpar^2) + Omega), written in
    the subtraction-free way. The root always lies below the light cone
    (k0 < kpar) and approaches sqrt(Omega kpar/2) for kpar >> Omega.
    """
    om, kpar, e = _plasmon_momenta(kpar, sheet)
    k0 = np.sqrt(2.0 * om * kpar * kpar / (np.sqrt(om * om + 16.0 * kpar * kpar) + om))
    k0 = np.ldexp(k0, e)
    return float(k0) if k0.ndim == 0 else k0


def tm_plasmon_root(kpar, sheet):
    """Surface plasmon frequency found as a bracketed root.

    Solves k0^2 = (Omega/2) sqrt(kpar^2 - k0^2) on (0, kpar) without using
    the closed form. With k0 = kpar sin t and s = tan(t/2) it reads
    g(s) = 4 kpar s^2 - (Omega/2)(1 - s^4) = 0 on (0, 1), which keeps its
    digits where k0 is within an ulp of kpar (kpar << Omega), and
    k0 = 2 kpar s/(1 + s^2). Since k0^2 - (Omega/2) Gamma =
    kpar g(s)/(1 + s^2)^2, the residual bound 1e-10 * Omega * kpar on the
    equation of motion is |g(s)| <= 1e-10 * Omega * (1 + s^2)^2.
    """
    om, kpar, e = _plasmon_momenta(kpar, sheet)

    def g(s):
        s2 = s * s
        return 4.0 * kpar * s2 - 0.5 * om * (1.0 - s2 * s2)

    s = find_root_bracketed(g, 0.0, np.ones_like(kpar))
    s2 = s * s
    if not (np.abs(g(s)) <= 1e-10 * om * (1.0 + s2) ** 2).all():
        raise IterationLimitError("dispersion residual above 1e-10 * Omega * kpar")
    k0 = np.ldexp(2.0 * kpar * s / (1.0 + s2), e)
    return float(k0) if k0.ndim == 0 else k0


# Midpoints of the k0 grid on (0, kpar) in te_plasmon_exists.
_TE_SCAN_SAMPLES = 201


def te_plasmon_exists(kpar, sheet):
    """Whether the TE mode supports a surface plasmon. It never does.

    Below the light cone the TE mode equation reduces to
    1 + Omega/(2 sqrt(kpar^2 - k0^2)) = 0, whose left side a scan of
    _TE_SCAN_SAMPLES midpoints certifies to stay >= 1 + Omega/(2 kpar) > 1
    on the whole interval.
    """
    om, kpar, _ = _plasmon_momenta(kpar, sheet)
    samples = _TE_SCAN_SAMPLES
    grid = np.linspace(0.0, kpar, samples + 1)[:-1] + kpar / (2.0 * samples)
    residual = 1.0 + om / (2.0 * np.sqrt(kpar * kpar - grid * grid))
    return bool(residual.min() <= 1.0)
