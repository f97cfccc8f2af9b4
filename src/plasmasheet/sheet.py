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
    "PlasmonBranch",
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
    "plasmon_branch",
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


def gamma_minkowski(k):
    """Normal momentum Gamma = sqrt(k0^2 - kpar^2 + i0).

    Real and positive above the light cone, +i sqrt(kpar^2 - k0^2) below it;
    for complex k0 the branch with Im Gamma >= 0 continues these choices.
    """
    s = complex(k.k0) ** 2 - k.kpar * k.kpar
    g = cmath.sqrt(s)
    if g.imag < 0.0 or (g.imag == 0.0 and g.real < 0.0):
        g = -g
    return g


def reflection_te(k, sheet):
    """TE (transverse electric) reflection coefficient of a single sheet."""
    if sheet.omega == 0.0:
        return 0.0 + 0.0j
    gamma = gamma_minkowski(k)
    return 1.0 / (1.0 - 2j * gamma / sheet.omega)


def reflection_tm(k, sheet):
    """TM (transverse magnetic) reflection coefficient of a single sheet.

    The static mode reflects perfectly: r_TM(k0=0) = 1 exactly for any
    omega > 0. On the light cone (Gamma = 0 with k0 != 0) the 1/Gamma pole
    makes the value undefined.
    """
    if sheet.omega == 0.0:
        return 0.0 + 0.0j
    gamma = gamma_minkowski(k)
    if gamma == 0.0:
        if k.k0 == 0.0:
            return 1.0 + 0.0j  # static limit along kpar = 0
        raise OnLightConeError(f"Gamma = 0 at k0 = {k.k0}")
    return 1.0 / (1.0 - 2j * complex(k.k0) ** 2 / (sheet.omega * gamma))


def reflection_coefficients(k0, kpar, sheet):
    """(r_TE, r_TM) at one frequency k0 over an array of parallel momenta.

    Array form of reflection_te and reflection_tm, with the same branch of
    Gamma and the same rules: a transparent sheet gives zeros, and a kpar
    on the light cone (Gamma = 0) raises OnLightConeError unless k0 = 0,
    where r_TM = 1.
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
    k0sq = complex(k0) ** 2
    gamma = np.sqrt(k0sq - kpar * kpar)
    gamma = np.where((gamma.imag < 0.0)
                     | ((gamma.imag == 0.0) & (gamma.real < 0.0)),
                     -gamma, gamma)
    r_te = 1.0 / (1.0 - 2j * gamma / sheet.omega)
    on_cone = gamma == 0.0
    if on_cone.any():
        if k0 != 0.0:
            raise OnLightConeError(f"Gamma = 0 at k0 = {k0}")
        gamma = np.where(on_cone, 1.0, gamma)  # static limit: r_TM = 1
    r_tm = 1.0 / (1.0 - 2j * k0sq / (sheet.omega * gamma))
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
    The static value is exactly 1.
    """
    if k.kpar == 0.0:
        raise DegenerateMomentumError("scalar reflection needs kpar != 0")
    if sheet.omega == 0.0:
        return 0.0 + 0.0j
    gamma = gamma_minkowski(k)
    return 1.0 / (1.0 - 2j * gamma * complex(k.k0) ** 2 /
                  (sheet.omega * k.kpar * k.kpar))


_POLARIZATIONS = ("scalar", "te", "tm")


def _reflection_for(polarization):
    pol = polarization.lower()
    if pol == "scalar":
        return scalar_reflection
    if pol == "te":
        return reflection_te
    if pol == "tm":
        return reflection_tm
    raise ValueError(f"polarization must be one of {_POLARIZATIONS}")


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
    r = _reflection_for(polarization)(k, sheet)
    free = cmath.exp(1j * gamma * abs(x3 - y3)) / (2j * gamma)
    boundary = r * cmath.exp(1j * gamma * (abs(x3) + abs(y3))) / (2j * gamma)
    if parts:
        return free, boundary
    return free - boundary


def _jump_coefficient(k, sheet, polarization):
    """Delta-potential strength multiplying D(0, y3) in the derivative jump."""
    pol = polarization.lower()
    if pol == "te":
        return complex(sheet.omega)
    k0sq = complex(k.k0) ** 2
    if k0sq == 0.0:
        raise DegenerateMomentumError(
            f"{pol} jump coefficient is singular at k0 = 0")
    if pol == "scalar":
        return sheet.omega * k.kpar * k.kpar / k0sq
    if pol == "tm":
        return sheet.omega * gamma_minkowski(k) ** 2 / k0sq
    raise ValueError(f"polarization must be one of {_POLARIZATIONS}")


def matching_residual(k, sheet, polarization="scalar", probe_offset=1e-3, y3=None):
    """Finite-difference check of the sheet matching conditions.

    The propagator must be continuous across the sheet while its normal
    derivative jumps by the delta-potential strength times the value:
    [D'](0) = C D(0, y3). Both properties are probed with second-order
    one-sided stencils at offsets (h, 2h) applied to the boundary part of the
    propagator; the free part is analytic across the plane and drops out of
    the discontinuities identically, so a transparent sheet gives exact
    zeros.

    Returns
    -------
    (continuity_residual, jump_residual) : tuple of float
        Magnitudes that vanish at least quadratically as probe_offset -> 0.
    """
    h = float(probe_offset)
    if h <= 0.0:
        raise ValueError("probe_offset must be positive")
    gamma = gamma_minkowski(k)
    if gamma == 0.0:
        raise OnLightConeError("free propagator pole at Gamma = 0")
    if y3 is None:
        y3 = max(0.75 / abs(gamma), 8.0 * h)
    if y3 <= 2.0 * h:
        raise ValueError("source point y3 must sit beyond the probe stencil")
    coeff = _jump_coefficient(k, sheet, polarization)
    r = _reflection_for(polarization)(k, sheet)

    def dbar(x):
        return r * cmath.exp(1j * gamma * (abs(x) + y3)) / (2j * gamma)

    vplus = 2.0 * dbar(h) - dbar(2 * h)
    vminus = 2.0 * dbar(-h) - dbar(-2 * h)
    continuity = abs(vplus - vminus)

    dplus = (-3.0 * dbar(0.0) + 4.0 * dbar(h) - dbar(2 * h)) / (2 * h)
    dminus = (3.0 * dbar(0.0) - 4.0 * dbar(-h) + dbar(-2 * h)) / (2 * h)
    jump_fd = -(dplus - dminus)  # boundary part carries the full kink of D

    free0 = cmath.exp(1j * gamma * y3) / (2j * gamma)
    value0 = free0 - dbar(0.0)
    jump = abs(jump_fd - coeff * value0)
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

    @property
    def e0(self):
        return self.vectors[0]

    @property
    def e1(self):
        return self.vectors[1]

    @property
    def e2(self):
        return self.vectors[2]

    @property
    def e3(self):
        return self.vectors[3]

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
    not defined (0/0 in the TE/TM directions).
    """
    if k.kpar == 0.0:
        raise DegenerateMomentumError("basis undefined at kpar = 0")
    gamma = gamma_minkowski(k)
    if gamma == 0.0:
        raise DegenerateMomentumError("basis undefined on the light cone")
    k0, k1, k2, kp = complex(k.k0), k.k1, k.k2, k.kpar
    e0 = np.array([k0, k1, k2, 0.0]) / gamma
    e1 = np.array([0.0, k2, -k1, 0.0]) / kp
    e2 = np.array([kp * kp, k0 * k1, k0 * k2, 0.0]) / (gamma * kp)
    e3 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    return PolarizationBasis(vectors=np.array([e0, e1, e2, e3]))


def _plasmon_momenta(kpar, sheet):
    """kpar (a float or an array) as an array, checked for both routes."""
    kpar = np.asarray(kpar, dtype=float)
    if not (kpar > 0.0).all():
        raise DegenerateMomentumError("plasmon branch needs kpar > 0")
    if sheet.omega <= 0.0:
        raise ValueError("plasmon branch needs omega > 0")
    return kpar


def tm_plasmon_closed(kpar, sheet):
    """Surface plasmon frequency on the TM branch, closed form.

    k0^2 = 2 Omega kpar^2 / (sqrt(Omega^2 + 16 kpar^2) + Omega), written in
    the subtraction-free way. The root always lies below the light cone
    (k0 < kpar) and approaches sqrt(Omega kpar/2) for kpar >> Omega.
    """
    kpar = _plasmon_momenta(kpar, sheet)
    om = sheet.omega
    k0 = np.sqrt(2.0 * om * kpar * kpar / (np.sqrt(om * om + 16.0 * kpar * kpar) + om))
    return float(k0) if k0.ndim == 0 else k0


def tm_plasmon_root(kpar, sheet, tol=1e-12):
    """Surface plasmon frequency found as a bracketed root.

    Solves k0^2 = (Omega/2) sqrt(kpar^2 - k0^2) on (0, kpar) without using
    the closed form. With k0 = kpar sin t and s = tan(t/2) it reads
    g(s) = 4 kpar s^2 - (Omega/2)(1 - s^4) = 0 on (0, 1), which keeps its
    digits where k0 is within an ulp of kpar (kpar << Omega), and
    k0 = 2 kpar s/(1 + s^2). Since k0^2 - (Omega/2) Gamma =
    kpar g(s)/(1 + s^2)^2, the residual bound 1e-10 * Omega * kpar on the
    equation of motion is |g(s)| <= 1e-10 * Omega * (1 + s^2)^2.
    """
    kpar = _plasmon_momenta(kpar, sheet)
    om = sheet.omega

    def g(s):
        s2 = s * s
        return 4.0 * kpar * s2 - 0.5 * om * (1.0 - s2 * s2)

    s = find_root_bracketed(g, 0.0, np.ones_like(kpar), tol=tol)
    s2 = s * s
    if not (np.abs(g(s)) <= 1e-10 * om * (1.0 + s2) ** 2).all():
        raise IterationLimitError("dispersion residual above 1e-10 * Omega * kpar")
    k0 = 2.0 * kpar * s / (1.0 + s2)
    return float(k0) if k0.ndim == 0 else k0


def te_plasmon_exists(kpar, sheet, samples=201):
    """Whether the TE mode supports a surface plasmon. It never does.

    Below the light cone the TE mode equation reduces to
    1 + Omega/(2 sqrt(kpar^2 - k0^2)) = 0, whose left side a scan certifies
    to stay >= 1 + Omega/(2 kpar) > 1 on the whole interval.
    """
    if kpar <= 0.0:
        raise DegenerateMomentumError("plasmon scan needs kpar > 0")
    if sheet.omega <= 0.0:
        raise ValueError("plasmon scan needs omega > 0")
    grid = np.linspace(0.0, kpar, samples + 1)[:-1] + kpar / (2.0 * samples)
    residual = 1.0 + sheet.omega / (2.0 * np.sqrt(kpar * kpar - grid * grid))
    return bool(residual.min() <= 1.0)


@dataclass(frozen=True)
class PlasmonBranch:
    """Sampled TM surface-plasmon dispersion curve k0(kpar)."""

    kpar: np.ndarray
    k0: np.ndarray
    omega: float

    def __post_init__(self):
        if len(self.kpar) != len(self.k0) or len(self.kpar) == 0:
            raise ValueError("kpar and k0 must be equal-length, nonempty")
        if np.any(np.diff(self.kpar) <= 0.0):
            raise ValueError("kpar samples must increase strictly")
        if np.any(self.k0 <= 0.0) or np.any(self.k0 >= self.kpar):
            raise ValueError("plasmon branch must satisfy 0 < k0 < kpar")


def plasmon_branch(sheet, kpar_grid=None):
    """TM plasmon dispersion sampled on a grid (default: kpar/Omega in
    [1e-3, 1e3], 50 points, log-spaced)."""
    if sheet.omega <= 0.0:
        raise ValueError("plasmon branch needs omega > 0")
    if kpar_grid is None:
        kpar_grid = sheet.omega * np.logspace(-3.0, 3.0, 50)
    kpar_grid = np.asarray(kpar_grid, dtype=float)
    k0 = tm_plasmon_closed(kpar_grid, sheet)
    return PlasmonBranch(kpar=kpar_grid, k0=k0, omega=sheet.omega)
