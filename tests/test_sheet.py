"""Reflection coefficients, matching conditions, basis and plasmon branch."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from plasmasheet import sheet
from plasmasheet.cli import main
from plasmasheet.errors import (DegenerateMomentumError, OnLightConeError)

SQ3 = math.sqrt(3.0)


def momentum(k0, kpar):
    return sheet.MinkowskiMomentum.from_parallel(k0, kpar)


class TestTypes:
    def test_kpar_derived(self):
        k = sheet.MinkowskiMomentum(k0=1.0, k1=3.0, k2=4.0)
        assert k.kpar == 5.0

    def test_sheet_validation(self):
        with pytest.raises(ValueError):
            sheet.SheetParameters(omega=-1.0)

    def test_transparent_sheet_allowed(self):
        assert sheet.SheetParameters(omega=0.0).omega == 0.0

    def test_euclidean_gamma(self):
        k = sheet.EuclideanMomentum(k4=3.0, kpar=4.0)
        assert k.gamma == 5.0
        with pytest.raises(ValueError):
            sheet.EuclideanMomentum(k4=-1.0, kpar=0.0)


class TestGamma:
    def test_propagating(self):
        g = sheet.gamma_minkowski(momentum(2.0, 1.0))
        assert abs(g - SQ3) < 1e-15

    def test_evanescent(self):
        g = sheet.gamma_minkowski(momentum(1.0, 2.0))
        assert abs(g - 1j * SQ3) < 1e-15

    def test_branch_sign_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k0, kpar = rng.uniform(-5, 5), rng.uniform(0, 5)
            g = sheet.gamma_minkowski(momentum(k0, kpar))
            assert g.imag >= 0.0
            if g.imag == 0.0:
                assert g.real >= 0.0

    def test_wick_rotation_gives_i_gamma(self):
        ke = sheet.EuclideanMomentum(k4=1.3, kpar=0.7)
        g = sheet.gamma_minkowski(momentum(1j * ke.k4, ke.kpar))
        assert abs(g - 1j * ke.gamma) < 1e-15


class TestReflection:
    def test_te_value(self):
        r = sheet.reflection_te(momentum(2.0, 1.0), sheet.SheetParameters(1.0))
        assert abs(r - 1.0 / (1.0 - 2j * SQ3)) < 1e-15

    def test_scalar_value(self):
        r = sheet.scalar_reflection(momentum(2.0, 1.0), sheet.SheetParameters(1.0))
        assert abs(r - 1.0 / (1.0 - 8j * SQ3)) < 1e-15

    def test_static_tm_is_one(self):
        for kpar in (1e-3, 0.5, 2.0, 50.0):
            r = sheet.reflection_tm(momentum(0.0, kpar), sheet.SheetParameters(2.0))
            assert r == 1.0 + 0.0j

    def test_static_scalar_is_one(self):
        r = sheet.scalar_reflection(momentum(0.0, 1.5), sheet.SheetParameters(2.0))
        assert r == 1.0 + 0.0j

    def test_ideal_conductor_limit(self):
        k = momentum(2.0, 1.0)
        big = sheet.SheetParameters(1e9)
        assert abs(sheet.reflection_te(k, big) - 1.0) < 1e-8
        assert abs(sheet.reflection_tm(k, big) - 1.0) < 1e-8

    def test_transparent_limit(self):
        k = momentum(2.0, 1.0)
        off = sheet.SheetParameters(0.0)
        assert sheet.reflection_te(k, off) == 0.0
        assert sheet.reflection_tm(k, off) == 0.0
        assert sheet.scalar_reflection(k, off) == 0.0

    def test_moduli_bounded_in_propagating_region(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            kpar = rng.uniform(0.01, 3.0)
            k0 = kpar * rng.uniform(1.001, 5.0)
            om = 10.0 ** rng.uniform(-2, 2)
            k, sp = momentum(k0, kpar), sheet.SheetParameters(om)
            assert abs(sheet.reflection_te(k, sp)) <= 1.0 + 1e-12
            assert abs(sheet.reflection_tm(k, sp)) <= 1.0 + 1e-12

    def test_light_cone_error(self):
        with pytest.raises(OnLightConeError):
            sheet.reflection_tm(momentum(1.0, 1.0), sheet.SheetParameters(1.0))

    def test_tm_pole_sits_on_plasmon_branch(self):
        sp = sheet.SheetParameters(1.0)
        kpar = 2.0
        k0 = sheet.tm_plasmon_closed(kpar, sp) * (1.0 + 1e-9)
        r = sheet.reflection_tm(momentum(k0, kpar), sp)
        assert abs(r) > 1e5


class TestReflectionArray:
    """reflection_coefficients: one frequency, an array of kpar."""

    def test_agrees_with_scalar_functions(self):
        # both sides of the light cone, real and complex k0; the relative
        # rounding of r grows like |r| near the TM plasmon pole
        rng = np.random.default_rng(13)
        for _ in range(300):
            k0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2, 2)
            if rng.random() < 0.2:
                k0 = complex(k0, rng.uniform(-1.0, 1.0))
            kpar = abs(k0) * 10.0 ** rng.uniform(-2, 1, size=6)
            sp = sheet.SheetParameters(10.0 ** rng.uniform(-2, 2))
            r_te, r_tm = sheet.reflection_coefficients(k0, kpar, sp)
            for i, kp in enumerate(kpar):
                k = momentum(k0, float(kp))
                for got, want in ((r_te[i], sheet.reflection_te(k, sp)),
                                  (r_tm[i], sheet.reflection_tm(k, sp))):
                    assert abs(got - want) <= 1e-15 * abs(want) * (
                        4.0 + abs(want))

    def test_light_cone_point_raises_like_scalar(self):
        sp = sheet.SheetParameters(1.0)
        with pytest.raises(OnLightConeError, match="Gamma = 0 at k0 = 1.0"):
            sheet.reflection_coefficients(1.0, np.array([0.5, 1.0]), sp)

    def test_static_and_transparent_limits(self):
        r_te, r_tm = sheet.reflection_coefficients(
            0.0, np.array([0.0, 2.0]), sheet.SheetParameters(1.0))
        assert np.all(r_tm == 1.0)
        assert r_te[0] == 1.0
        r_te, r_tm = sheet.reflection_coefficients(
            1.0, np.array([0.5, 1.0]), sheet.SheetParameters(0.0))
        assert np.all(r_te == 0.0) and np.all(r_tm == 0.0)

    def test_rejects_negative_kpar(self):
        with pytest.raises(ValueError):
            sheet.reflection_coefficients(1.0, np.array([-0.5, 1.0]),
                                          sheet.SheetParameters(1.0))


class TestMomentaWhoseSquaresOverflow:
    """Gamma from scaled momenta where k0^2 or kpar^2 leaves the float range."""

    POINTS = [(1.0, 1e160), (1.0, 1e300), (1e300, 1.0), (1e200, 5e199)]

    @staticmethod
    def _reference(k0, kpar):
        with mpmath.workdps(40):
            k0, kpar = mpmath.mpf(k0), mpmath.mpf(kpar)
            gamma = mpmath.sqrt(k0**2 - kpar**2)
            if gamma.imag < 0:
                gamma = -gamma
            return (complex(gamma), complex(1 / (1 - 2j * gamma)),
                    complex(1 / (1 - 2j * k0**2 / gamma)))

    @pytest.mark.parametrize("k0, kpar", POINTS)
    def test_scalar_and_array_match_mpmath(self, k0, kpar):
        gamma, r_te, r_tm = self._reference(k0, kpar)
        sp = sheet.SheetParameters(1.0)
        k = momentum(k0, kpar)
        r_te_array, r_tm_array = sheet.reflection_coefficients(
            k0, np.array([kpar]), sp)
        for got, want in ((sheet.gamma_minkowski(k), gamma),
                          (sheet.reflection_te(k, sp), r_te),
                          (sheet.reflection_tm(k, sp), r_tm),
                          (r_te_array[0], r_te), (r_tm_array[0], r_tm)):
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    def test_rows_do_not_depend_on_their_neighbours(self):
        sp = sheet.SheetParameters(2.0)
        kpar = np.array([0.5, 1e150, 1e300, 3.0])
        r_te, r_tm = sheet.reflection_coefficients(1.0, kpar, sp)
        small = sheet.reflection_coefficients(1.0, kpar[[0, 1, 3]], sp)
        assert r_te[[0, 1, 3]].tobytes() == small[0].tobytes()
        assert r_tm[[0, 1, 3]].tobytes() == small[1].tobytes()
        assert r_te[2] == sheet.reflection_te(momentum(1.0, 1e300), sp)
        assert r_tm[2] == sheet.reflection_tm(momentum(1.0, 1e300), sp)

    def test_te_ratio_to_omega_beyond_the_float_range(self):
        # 2 Gamma/Omega overflows here; r_TE comes from the scaled Gamma
        k0 = -6.175187941769306e+303 - 1.8876259450117483e+304j
        kpar = 78.86570576884708
        sp = sheet.SheetParameters(5.0136409615969665e-05)
        with mpmath.workdps(40):
            gamma = mpmath.sqrt(mpmath.mpc(k0) ** 2 - mpmath.mpf(kpar) ** 2)
            if gamma.imag < 0:
                gamma = -gamma
            want = complex(1 / (1 - 2j * gamma / mpmath.mpf(sp.omega)))
        assert abs(want - (1.2e-309 + 3.9e-310j)) < 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sheet.reflection_te(momentum(k0, kpar), sp)
            r_te, _ = sheet.reflection_coefficients(
                k0, np.array([1.0, kpar]), sp)
        for value in (got, r_te[1]):
            assert abs(value - want) <= 1e-12 * abs(want), (value, want)

    def test_gamma_beyond_the_float_range_names_the_momentum(self):
        k = momentum(1.5e308j, 1.5e308)
        with pytest.raises(ValueError, match="k0 = 1.5e[+]308j, kpar = 1.5e[+]308"):
            sheet.gamma_minkowski(k)
        with pytest.raises(ValueError, match="k0 = 1.5e[+]308j, kpar = 1.5e[+]308"):
            sheet.reflection_coefficients(1.5e308j, np.array([1.0, 1.5e308]),
                                          sheet.SheetParameters(1.0))


def _scalar_reference(k0, kpar, omega=1.0):
    """mpmath r of the scalar model problem."""
    with mpmath.workdps(40):
        k0, kpar = mpmath.mpf(k0), mpmath.mpf(kpar)
        gamma = mpmath.sqrt(k0**2 - kpar**2)
        if gamma.imag < 0:
            gamma = -gamma
        return complex(1 / (1 - 2j * gamma / omega * k0**2 / kpar**2))


class TestMomentaWhoseSquaresLeaveTheRange:
    """Every sheet route at momenta whose squares over- or underflow.

    Each gives the mpmath value, and none raises a bare ArithmeticError or
    a light-cone error off the light cone.
    """

    SMALL = [(2e-170, 1e-170), (1e-200, 0.0), (1e-300, 5e-301),
             (2e-200, 1e-200)]

    @pytest.mark.parametrize("k0, kpar", SMALL)
    def test_small_momenta_match_mpmath(self, k0, kpar):
        gamma, r_te, r_tm = TestMomentaWhoseSquaresOverflow._reference(
            k0, kpar)
        sp = sheet.SheetParameters(1.0)
        k = momentum(k0, kpar)
        r_te_array, r_tm_array = sheet.reflection_coefficients(
            k0, np.array([kpar]), sp)
        for got, want in ((sheet.gamma_minkowski(k), gamma),
                          (sheet.reflection_te(k, sp), r_te),
                          (sheet.reflection_tm(k, sp), r_tm),
                          (r_te_array[0], r_te), (r_tm_array[0], r_tm)):
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    def test_tm_at_rest_parallel_momentum_underflow(self):
        r = sheet.reflection_tm(momentum(1e-200, 0.0), sheet.SheetParameters(1.0))
        assert abs(r - (1 + 2e-200j)) <= 1e-15
        assert abs(r.imag - 2e-200) <= 1e-15 * 2e-200

    @pytest.mark.parametrize("k0, kpar", [(1e200, 1.0), (2e-200, 1e-200),
                                          (1.0, 1e-200), (1e300, 1e-320)])
    def test_scalar_reflection_matches_mpmath(self, k0, kpar):
        want = _scalar_reference(k0, kpar)
        got = sheet.scalar_reflection(momentum(k0, kpar),
                                      sheet.SheetParameters(1.0))
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    def test_matching_residual_matches_mpmath(self):
        # the stencil of matching_residual, in mpmath; its residuals lie
        # near 1e-600, so both round to 0
        k0, kpar, h = 1e200, 1.0, 1e-3
        with mpmath.workdps(40):
            gamma = mpmath.sqrt(mpmath.mpf(k0)**2 - mpmath.mpf(kpar)**2)
            y3 = max(mpmath.mpf(0.75) / gamma, 8 * mpmath.mpf(h))
            r = 1 / (1 - 2j * gamma * mpmath.mpf(k0)**2 / kpar**2)

            def dbar(x):
                return r * mpmath.expj(gamma * (abs(x) + y3)) / (2j * gamma)

            continuity = abs(2 * dbar(h) - dbar(2 * h)
                             - 2 * dbar(-h) + dbar(-2 * h))
            jump_fd = -((-3 * dbar(0) + 4 * dbar(h) - dbar(2 * h))
                        - (3 * dbar(0) - 4 * dbar(-h) + dbar(-2 * h))) / (2 * h)
            free0 = mpmath.expj(gamma * y3) / (2j * gamma)
            jump = abs(jump_fd - kpar**2 / mpmath.mpf(k0)**2 * (free0 - dbar(0)))
            want = (float(continuity), float(jump))
        got = sheet.matching_residual(momentum(k0, kpar),
                                      sheet.SheetParameters(1.0))
        assert got == want == (0.0, 0.0)

    def test_matching_residual_names_a_coefficient_beyond_the_range(self):
        with pytest.raises(ValueError, match="k0 = 1e-200, kpar = 1.0"):
            sheet.matching_residual(momentum(1e-200, 1.0),
                                    sheet.SheetParameters(1.0), "tm")

    @pytest.mark.parametrize("k0, kpar, cause", [
        # Gamma = 8.1e-309: 1/(2 Gamma) = 6.2e307, and the stencil overflows
        (1.2686515575041045e-308, 9.7548133321888e-309,
         "matching residuals at k0 = 1.2686515575041045e-308, "
         "kpar = 9.7548133321888e-309 are beyond the float range"),
        # Gamma = 2e-315: the default source point 0.75/|Gamma| overflows
        (4.231184515e-315, 4.6668488e-315,
         "default source point 0.75/|Gamma| at k0 = 4.231184515e-315, "
         "kpar = 4.6668488e-315 is beyond the float range"),
    ])
    def test_matching_residual_at_subnormal_momenta_names_them(self, k0, kpar,
                                                               cause):
        with pytest.raises(ValueError) as info:
            sheet.matching_residual(momentum(k0, kpar),
                                    sheet.SheetParameters(1.0))
        assert str(info.value).startswith(cause)

    def test_matching_residual_keeps_the_message_of_a_given_y3(self):
        with pytest.raises(ValueError, match="^source point y3 must be "
                                             "finite"):
            sheet.matching_residual(momentum(4.231184515e-315, 4.6668488e-315),
                                    sheet.SheetParameters(1.0), y3=math.inf)

    @pytest.mark.parametrize("k0, kpar", [(1e200, 5e199), (2e-200, 1e-200),
                                          (1e258, 1e-191)])
    def test_polarization_basis_is_orthonormal_and_complete(self, k0, kpar):
        basis = sheet.polarization_basis(momentum(k0, kpar))
        assert np.isfinite(basis.vectors).all()
        assert basis.orthonormality_residual() <= 1e-15
        assert basis.completeness_residual() <= 1e-15


class TestEuclideanReflection:
    def test_te_half_point(self):
        sp = sheet.SheetParameters(2.0)
        k = sheet.EuclideanMomentum(k4=0.6, kpar=0.8)  # gamma = 1 = omega/2
        assert abs(sheet.reflection_te_euclidean(k, sp) - 0.5) < 1e-15

    def test_ranges_and_monotonicity(self):
        sp = sheet.SheetParameters(1.5)
        prev_te = prev_tm = 1.0
        for g in np.linspace(0.3, 30.0, 40):
            k = sheet.EuclideanMomentum(k4=g * 0.6, kpar=g * 0.8)
            rte = sheet.reflection_te_euclidean(k, sp)
            rtm = sheet.reflection_tm_euclidean(k, sp)
            assert 0.0 < rte < 1.0 and 0.0 < rtm < 1.0
            assert rte < prev_te and rtm < prev_tm  # decreasing along the ray
            prev_te, prev_tm = rte, rtm

    def test_static_tm_euclidean(self):
        sp = sheet.SheetParameters(1.5)
        k = sheet.EuclideanMomentum(k4=0.0, kpar=2.0)
        assert sheet.reflection_tm_euclidean(k, sp) == 1.0

    def test_gamma_zero_degenerate(self):
        with pytest.raises(DegenerateMomentumError):
            sheet.reflection_te_euclidean(sheet.EuclideanMomentum(0.0, 0.0),
                                          sheet.SheetParameters(1.0))

    def test_wick_consistency(self):
        # Minkowski coefficients continued to k0 = i k4 must land exactly on
        # the Euclidean ones.
        rng = np.random.default_rng(3)
        for _ in range(20):
            k4 = rng.uniform(0.05, 4.0)
            kpar = rng.uniform(0.05, 4.0)
            om = 10.0 ** rng.uniform(-1.5, 1.5)
            sp = sheet.SheetParameters(om)
            ke = sheet.EuclideanMomentum(k4=k4, kpar=kpar)
            km = momentum(1j * k4, kpar)
            assert abs(sheet.reflection_te(km, sp)
                       - sheet.reflection_te_euclidean(ke, sp)) < 1e-12
            assert abs(sheet.reflection_tm(km, sp)
                       - sheet.reflection_tm_euclidean(ke, sp)) < 1e-12


class TestPropagator:
    SP = sheet.SheetParameters(1.3)

    def test_transparent_sheet_gives_free_propagator(self):
        k = momentum(2.0, 1.0)
        g = sheet.gamma_minkowski(k)
        d = sheet.scalar_propagator(0.4, 1.1, k, sheet.SheetParameters(0.0))
        free = cmath.exp(1j * g * 0.7) / (2j * g)
        assert abs(d - free) < 1e-15

    def test_symmetry_in_arguments(self):
        k = momentum(2.0, 1.0)
        for pol in ("scalar", "te", "tm"):
            a = sheet.scalar_propagator(0.3, 0.9, k, self.SP, polarization=pol)
            b = sheet.scalar_propagator(0.9, 0.3, k, self.SP, polarization=pol)
            assert abs(a - b) < 1e-15

    def test_parts_add_up(self):
        k = momentum(2.0, 1.0)
        free, boundary = sheet.scalar_propagator(0.3, 0.9, k, self.SP, parts=True)
        total = sheet.scalar_propagator(0.3, 0.9, k, self.SP)
        assert abs(total - (free - boundary)) == 0.0

    def test_light_cone_error(self):
        with pytest.raises(OnLightConeError):
            sheet.scalar_propagator(0.1, 0.9, momentum(1.0, 1.0), self.SP)


class TestMatching:
    def test_transparent_sheet_residuals_vanish_identically(self):
        k = momentum(2.0, 1.0)
        cont, jump = sheet.matching_residual(k, sheet.SheetParameters(0.0),
                                             polarization="te", probe_offset=0.01)
        assert cont == 0.0 and jump == 0.0

    def test_second_order_convergence(self):
        rng = np.random.default_rng(5)
        sp = sheet.SheetParameters(0.8)
        for pol in ("scalar", "te", "tm"):
            for _ in range(5):
                k0 = rng.uniform(0.5, 2.5)
                kpar = rng.uniform(0.5, 2.5)
                if abs(k0 - kpar) < 0.2:
                    k0 += 0.5
                k = momentum(k0, kpar)
                h = 0.01 / abs(sheet.gamma_minkowski(k))
                y3 = 1.0
                c1, j1 = sheet.matching_residual(k, sp, pol, h, y3=y3)
                c2, j2 = sheet.matching_residual(k, sp, pol, h / 2, y3=y3)
                assert c2 <= c1 / 3.2 or c1 < 1e-13
                assert j2 <= j1 / 3.2 or j1 < 1e-13

    def test_te_jump_coefficient_is_omega_even_statically(self):
        # TE matching carries no 1/k0^2; the static mode must work.
        k = momentum(0.0, 1.5)
        sp = sheet.SheetParameters(2.0)
        _, jump = sheet.matching_residual(k, sp, "te", probe_offset=1e-4)
        assert jump < 1e-8  # a wrong coefficient would sit at O(0.1)

    def test_scalar_jump_needs_k0(self):
        with pytest.raises(DegenerateMomentumError):
            sheet.matching_residual(momentum(0.0, 1.5), sheet.SheetParameters(1.0),
                                    "scalar", probe_offset=1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_offsets(self, value):
        k, sp = momentum(2.0, 1.0), sheet.SheetParameters(1.0)
        with pytest.raises(ValueError, match="probe_offset"):
            sheet.matching_residual(k, sp, probe_offset=value)
        with pytest.raises(ValueError, match="y3"):
            sheet.matching_residual(k, sp, y3=value)


class TestPolarizationBasis:
    def test_orthonormal_and_complete_at_reference_point(self):
        k = sheet.MinkowskiMomentum(k0=2.0, k1=0.8, k2=0.6)
        basis = sheet.polarization_basis(k)
        assert basis.orthonormality_residual() < 1e-12
        assert basis.completeness_residual() < 1e-12

    def test_te_vector_lies_in_plane_and_transverse(self):
        k = sheet.MinkowskiMomentum(k0=2.0, k1=0.8, k2=0.6)
        e1 = sheet.polarization_basis(k).vectors[1]
        assert e1[0] == 0.0 and e1[3] == 0.0
        # orthogonal to the spatial parallel momentum
        assert abs(e1[1] * k.k1 + e1[2] * k.k2) < 1e-15

    def test_random_momenta_propagating(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            kpar = rng.uniform(0.05, 3.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            k0 = kpar * rng.uniform(1.01, 4.0) * rng.choice([-1.0, 1.0])
            k = sheet.MinkowskiMomentum(k0=k0, k1=kpar * math.cos(phi),
                                        k2=kpar * math.sin(phi))
            basis = sheet.polarization_basis(k)
            assert basis.completeness_residual() < 1e-12

    def test_evanescent_momentum_still_complete(self):
        k = sheet.MinkowskiMomentum(k0=0.5, k1=0.8, k2=0.6)
        assert sheet.polarization_basis(k).completeness_residual() < 1e-12

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateMomentumError):
            sheet.polarization_basis(sheet.MinkowskiMomentum(k0=1.0))
        with pytest.raises(DegenerateMomentumError):
            sheet.polarization_basis(sheet.MinkowskiMomentum(k0=1.0, k1=1.0))


class TestPlasmon:
    def test_closed_form_reference_point(self):
        sp = sheet.SheetParameters(1.0)
        k0 = sheet.tm_plasmon_closed(1.0, sp)
        assert abs(k0 * k0 - (math.sqrt(17.0) - 1.0) / 8.0) < 1e-15

    def test_root_agrees_with_closed_form(self):
        sp = sheet.SheetParameters(1.0)
        kpar = np.logspace(-3, 3, 50)
        a = sheet.tm_plasmon_closed(kpar, sp)
        b = sheet.tm_plasmon_root(kpar, sp)
        assert a.shape == b.shape == kpar.shape
        assert np.all(np.abs(a - b) <= 1e-10 * a)
        # each element is the root of its own bracket: the array call
        # gives the bits of the one-point calls
        for i in (0, 17, 49):
            assert sheet.tm_plasmon_closed(float(kpar[i]), sp) == a[i]
            assert sheet.tm_plasmon_root(float(kpar[i]), sp) == b[i]

    @pytest.mark.parametrize("omega", [1e-280, 1e-100, 1e-6, 1.0, 1e6,
                                       1e100, 1e300])
    def test_root_matches_mpmath_over_the_domain(self, omega):
        # kpar/Omega in [1e-12, 1e8] at any Omega: at the low end the root
        # lies within an ulp of kpar, where the equation of motion in k0
        # loses half its digits
        sp = sheet.SheetParameters(omega)
        kpar = omega * np.geomspace(1e-12, 1e8, 81)
        root = sheet.tm_plasmon_root(kpar, sp)
        closed = sheet.tm_plasmon_closed(kpar, sp)
        with mpmath.workdps(50):
            om = mpmath.mpf(omega)
            for kp, k0, k0_closed in zip(kpar, root, closed):
                kp = mpmath.mpf(kp)
                root_term = mpmath.sqrt(om * om + 16 * kp * kp)
                exact = mpmath.sqrt(2 * om * kp * kp / (root_term + om))
                assert abs(float(k0) - exact) <= 1e-15 * exact, float(kp / om)
                assert abs(float(k0_closed) - exact) <= 1e-15 * exact
        for i in (0, 40, 80):
            assert sheet.tm_plasmon_root(float(kpar[i]), sp) == root[i]
        assert not sheet.te_plasmon_exists(float(kpar[0]), sp)
        assert not sheet.te_plasmon_exists(float(kpar[-1]), sp)

    def test_root_far_above_omega_matches_closed_form(self):
        # kpar/Omega in [1e80, 1e300]: s ~ sqrt(Omega/(8 kpar)) is as small
        # as 3.5e-151 in the bracket (0, 1), and bisection runs on until the
        # bracket closes
        sp = sheet.SheetParameters(1.0)
        kpar = np.geomspace(1e80, 1e300, 221)
        root = sheet.tm_plasmon_root(kpar, sp)
        closed = sheet.tm_plasmon_closed(kpar, sp)
        assert np.all(np.abs(root - closed) <= 1e-15 * closed)
        assert sheet.tm_plasmon_root(1e300, sp) == root[-1]

    @pytest.mark.parametrize("plasmon, kpar, omega", [
        (sheet.tm_plasmon_closed, 1e200, 1e-200),
        (sheet.tm_plasmon_root, 1e-200, 1e200),
        (sheet.tm_plasmon_closed, np.array([1.0, 1e-310]), 1.0)])
    def test_ratio_beyond_the_float_range_raises(self, plasmon, kpar, omega):
        # once the larger momentum is scaled to [1/2, 1), the smaller one
        # lies below the smallest normal float
        with pytest.raises(ValueError, match=r"kpar = 1e[-+]\d+ and Omega = "
                           r".* too far apart"):
            plasmon(kpar, sheet.SheetParameters(omega))

    def test_ratio_of_1e300_is_inside_the_range(self):
        # the smaller scaled momentum is still normal: the closed form for
        # kpar/Omega = 1e300, and the root for Omega/kpar = 1e300, match
        # the closed form evaluated in mpmath
        cases = [(sheet.tm_plasmon_closed, 1e150, 1e-150),
                 (sheet.tm_plasmon_root, 1e-150, 1e150)]
        with mpmath.workdps(50):
            for plasmon, kpar, omega in cases:
                k0 = plasmon(kpar, sheet.SheetParameters(omega))
                om, kp = mpmath.mpf(omega), mpmath.mpf(kpar)
                root_term = mpmath.sqrt(om * om + 16 * kp * kp)
                exact = mpmath.sqrt(2 * om * kp * kp / (root_term + om))
                assert abs(k0 - exact) <= 1e-15 * exact

    def test_sweep_across_the_float_range_gives_error_cells(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["dispersion", "--omega", "1e-200", "--kpar-min",
                           "1e-200", "--kpar-max", "1e200", "--count", "41",
                           "--scale", "log"])
        captured = capsys.readouterr()
        assert status == 1 and captured.err == ""
        rows = [line.rstrip("\r").split(",", 4)
                for line in captured.out.splitlines()
                if line and line[0].isdigit()]
        assert len(rows) == 41
        # kpar/Omega = 1e310 and above: the last 10 rows
        for row in rows[-10:]:
            assert row[1:4] == ["nan"] * 3
            assert row[4].startswith("ValueError: kpar = ")
        assert all("too far apart" not in row[4] for row in rows[:-10])
        assert rows[0][4] == ""

    def test_below_light_cone(self):
        sp = sheet.SheetParameters(2.7)
        for kpar in np.logspace(-3, 3, 30):
            assert 0.0 < sheet.tm_plasmon_closed(kpar, sp) < kpar

    def test_asymptotes(self):
        sp = sheet.SheetParameters(1.0)
        # deep subwavelength: hugs the light cone
        assert abs(sheet.tm_plasmon_closed(1e-3, sp) / 1e-3 - 1.0) < 1e-5
        # short wavelength: k0 -> sqrt(Omega kpar / 2)
        kp = 1e4
        assert abs(sheet.tm_plasmon_closed(kp, sp) / math.sqrt(kp / 2.0) - 1.0) < 1e-3

    def test_te_has_no_plasmon(self):
        sp = sheet.SheetParameters(0.5)
        for kpar in np.logspace(-3, 3, 25):
            assert sheet.te_plasmon_exists(kpar, sp) is False

    @pytest.mark.parametrize("kpar", [math.inf, math.nan,
                                      np.array([1.0, math.inf])])
    def test_rejects_non_finite_kpar(self, kpar):
        sp = sheet.SheetParameters(1.0)
        for plasmon in (sheet.tm_plasmon_closed, sheet.tm_plasmon_root):
            with pytest.raises(ValueError, match="kpar must be finite"):
                plasmon(kpar, sp)
        if np.ndim(kpar) == 0:
            with pytest.raises(ValueError, match="kpar must be finite"):
                sheet.te_plasmon_exists(kpar, sp)

    def test_closed_branch_on_log_grid(self):
        sp = sheet.SheetParameters(2.0)
        kpar = sp.omega * np.logspace(-3.0, 3.0, 50)
        k0 = sheet.tm_plasmon_closed(kpar, sp)
        assert k0.shape == (50,)
        assert kpar[0] == pytest.approx(2.0e-3)
        assert np.all((0.0 < k0) & (k0 < kpar))
        assert np.all(np.diff(k0) > 0.0)
