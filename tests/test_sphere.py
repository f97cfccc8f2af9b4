import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from plasmasheet import sphere
from plasmasheet.errors import DegenerateMomentumError, SheetModelError
from plasmasheet.polder import PATH_AGREEMENT_TOL
from plasmasheet.sphere import (
    SphericalShell,
    ZeroCandidate,
    jost_te,
    jost_te_riccati,
    jost_tm,
    jost_tm_decomposed,
    radial_propagator_dl,
    scan_real_zeros,
    tm_flat_limit,
)


def tm_l1_trig(k0, radius, omega):
    # l = 1 Riccati derivatives in elementary functions
    z = k0 * radius
    rjp = math.cos(z) / z - math.sin(z) / z**2 + math.sin(z)
    rhp = cmath.exp(1j * z) * (-1j + 1.0 / z + 1j / z**2)
    return 1.0 + (1j * omega / k0) * rjp * rhp


class TestSphericalShell:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SphericalShell(radius=0.0, omega=1.0)
        with pytest.raises(ValueError):
            SphericalShell(radius=-2.0, omega=1.0)
        with pytest.raises(ValueError):
            SphericalShell(radius=1.0, omega=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, value):
        with pytest.raises(ValueError, match="radius must be finite"):
            SphericalShell(radius=value, omega=1.0)
        with pytest.raises(ValueError, match="omega must be finite"):
            SphericalShell(radius=1.0, omega=value)

    def test_transparent_shell_is_allowed(self):
        shell = SphericalShell(radius=1.0, omega=0.0)
        assert shell.omega == 0.0


class TestRadialPropagator:
    def test_monopole_closed_form(self):
        # i k0 j_0 h_0 = k0 sin(z) e^{iz} / z^2 at coincident radii
        k0, r = 1.3, 2.1
        z = k0 * r
        expected = k0 * math.sin(z) * cmath.exp(1j * z) / z**2
        value = radial_propagator_dl(0, k0, r, r)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_symmetric_in_radii(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            l = int(rng.integers(0, 7))
            k0 = float(rng.uniform(0.2, 6.0))
            r = float(rng.uniform(0.1, 5.0))
            rp = float(rng.uniform(0.1, 5.0))
            a = radial_propagator_dl(l, k0, r, rp)
            b = radial_propagator_dl(l, k0, rp, r)
            assert a == b

    def test_imaginary_part_is_k0_j_squared(self):
        # coincident-radius imaginary part carries the free mode density
        for l in range(6):
            for k0, r in [(0.7, 1.9), (2.3, 0.8), (5.0, 3.3)]:
                value = radial_propagator_dl(l, k0, r, r)
                expected = k0 * special.spherical_jn(l, k0 * r) ** 2
                assert value.imag == pytest.approx(expected, rel=1e-9)

    def test_static_limit_rejected(self):
        with pytest.raises(DegenerateMomentumError):
            radial_propagator_dl(2, 0.0, 1.0, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            radial_propagator_dl(-1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            radial_propagator_dl(1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            radial_propagator_dl(1, 1.0, 1.0, -2.0)

    @pytest.mark.parametrize("k0", [math.nan, math.inf, complex(1.0, math.inf),
                                    np.array([1.0, math.nan])])
    def test_rejects_non_finite_k0_before_any_bessel_call(self, k0,
                                                          monkeypatch):
        def no_bessel(*args):
            raise AssertionError("Bessel function called")

        monkeypatch.setattr(sphere, "_sph_jh", no_bessel)
        monkeypatch.setattr(sphere, "_riccati_scaled", no_bessel)
        shell = SphericalShell(radius=1.0, omega=1.0)
        with pytest.raises(ValueError, match="^k0 must be finite$"):
            radial_propagator_dl(1, k0, 1.0, 1.0)
        for jost in (jost_te, jost_te_riccati, jost_tm, jost_tm_decomposed):
            with pytest.raises(ValueError, match="^k0 must be finite$"):
                jost(2, k0, shell)
        with pytest.raises(DegenerateMomentumError):
            radial_propagator_dl(1, np.array([0.0, 1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_radii(self, value):
        for r, rp in ((value, 1.0), (1.0, value)):
            with pytest.raises(ValueError, match="radii must be positive "
                                                 "and finite"):
                radial_propagator_dl(1, 1.0, r, rp)


class TestJostTE:
    def test_transparent_shell_gives_exactly_one(self):
        shell = SphericalShell(radius=2.0, omega=0.0)
        g = jost_te(3, 1.7, shell)
        assert g == 1.0
        assert g.imag == 0.0

    def test_propagator_and_riccati_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            l = int(rng.integers(1, 9))
            z = float(rng.uniform(0.1, 30.0))
            omega = float(10.0 ** rng.uniform(-2.0, 1.7))
            shell = SphericalShell(radius=1.0, omega=omega)
            a = jost_te(l, z, shell)
            b = jost_te_riccati(l, z, shell)
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_imaginary_part_identity_oscillatory_regime(self):
        # Im g = Omega R^2 k0 j_l(k0 R)^2; direct evaluation keeps full
        # relative accuracy once k0 R is past the first turning point
        shell = SphericalShell(radius=1.4, omega=3.0)
        for l in range(1, 7):
            for z in (l + 1.0, l + 2.5, 2.0 * l + 4.0, 25.0):
                k0 = z / shell.radius
                g = jost_te(l, k0, shell)
                expected = (shell.omega * shell.radius**2 * k0
                            * special.spherical_jn(l, z) ** 2)
                assert g.imag == pytest.approx(expected, rel=1e-10)

    def test_imaginary_part_is_positive(self):
        shell = SphericalShell(radius=1.0, omega=2.0)
        rng = np.random.default_rng(23)
        for _ in range(40):
            l = int(rng.integers(1, 8))
            k0 = float(rng.uniform(0.05, 25.0))
            assert jost_te(l, k0, shell).imag > 0.0

    def test_magnitude_dips_below_one(self):
        # the modulus is not bounded below by 1; only the sign of the
        # imaginary part is a robust invariant
        shell = SphericalShell(radius=1.0, omega=1.0)
        grid = np.linspace(0.05, 30.0, 4000)
        smallest = min(abs(jost_te(1, float(z), shell)) for z in grid)
        assert smallest < 1.0
        assert smallest > 0.5

    def test_rejects_monopole_and_static(self):
        shell = SphericalShell(radius=1.0, omega=1.0)
        with pytest.raises(ValueError):
            jost_te(0, 1.0, shell)
        with pytest.raises(DegenerateMomentumError):
            jost_te(1, 0.0, shell)


class TestJostTM:
    def test_transparent_shell_gives_exactly_one(self):
        shell = SphericalShell(radius=2.0, omega=0.0)
        assert jost_tm(3, 1.7, shell) == 1.0

    def test_dipole_matches_trigonometric_form(self):
        for k0, radius, omega in [(1.7, 1.3, 2.5), (0.4, 3.0, 10.0),
                                  (6.0, 0.7, 0.3)]:
            shell = SphericalShell(radius=radius, omega=omega)
            g = jost_tm(1, k0, shell)
            expected = tm_l1_trig(k0, radius, omega)
            assert abs(g - expected) <= 1e-12 * abs(expected)

    def test_downward_and_upward_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            l = int(rng.integers(1, 9))
            z = float(rng.uniform(0.1, 30.0))
            omega = float(10.0 ** rng.uniform(-2.0, 1.7))
            shell = SphericalShell(radius=1.0, omega=omega)
            a = jost_tm(l, z, shell)
            b = jost_tm_decomposed(l, z, shell)
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_imaginary_part_identity_oscillatory_regime(self):
        # Im g = (Omega/k0) [z j_l(z)]'^2 evaluated where no cancellation
        # between the j and y parts of the Hankel factor occurs
        shell = SphericalShell(radius=1.4, omega=3.0)
        for l in range(1, 7):
            for z in (l + 1.0, l + 2.5, 2.0 * l + 4.0, 25.0):
                k0 = z / shell.radius
                g = jost_tm(l, k0, shell)
                rjp = (special.spherical_jn(l, z)
                       + z * special.spherical_jn(l, z, derivative=True))
                expected = (shell.omega / k0) * rjp**2
                assert g.imag == pytest.approx(expected, rel=1e-10)

    def test_weak_coupling_transparency(self):
        # far from resonances the shell is nearly invisible:
        # |g - 1| <= O(Omega R / k0 R)
        shell = SphericalShell(radius=1.0, omega=1e-3)
        for l in (1, 3, 7):
            assert abs(jost_tm(l, 100.0, shell) - 1.0) <= 3e-5

    def test_imaginary_part_is_positive(self):
        shell = SphericalShell(radius=1.0, omega=2.0)
        rng = np.random.default_rng(29)
        for _ in range(40):
            l = int(rng.integers(1, 8))
            k0 = float(rng.uniform(0.05, 25.0))
            assert jost_tm(l, k0, shell).imag > 0.0


class TestScanRealZeros:
    def test_no_zeros_on_coupling_grid(self):
        for l in range(1, 6):
            for omega in (0.1, 1.0, 10.0):
                shell = SphericalShell(radius=1.0, omega=omega)
                assert scan_real_zeros(l, shell) == []

    def test_transparent_shell_has_no_zeros(self):
        shell = SphericalShell(radius=1.0, omega=0.0)
        assert scan_real_zeros(2, shell) == []

    def test_coarse_sampling_warns(self):
        shell = SphericalShell(radius=1.0, omega=1.0)
        with pytest.warns(UserWarning):
            scan_real_zeros(1, shell, k0r_max=5.0, points_per_period=10)

    def test_raw_scan_exposes_certified_resonance_dip(self):
        # weak coupling and growing l produce a deep finite-width dip of
        # |g_tm|^2; its imaginary part, exact to a few ulp relative, is
        # positive, so certification identifies it as a resonance, not a zero
        shell = SphericalShell(radius=1.0, omega=0.1)
        raw = scan_real_zeros(5, shell, certify_nonzero=False)
        dips = [c for c in raw if c.polarization == "tm"]
        assert len(dips) == 1
        dip = dips[0]
        assert isinstance(dip, ZeroCandidate)
        assert dip.min_abs_g_squared < 1e-6
        assert dip.imag_part_floor > 0.0
        # location tracks the multipole resonance estimate
        # k0 R = sqrt(Omega R l(l+1) / (2l+1))
        estimate = math.sqrt(0.1 * 5 * 6 / 11)
        assert dip.k0r_location == pytest.approx(estimate, rel=0.05)
        # certification removes the same dip
        assert scan_real_zeros(5, shell) == []

    def test_no_zeros_from_weak_to_strong_coupling(self):
        # the dips deepen like a high power of Omega R at growing l, but Im g
        # keeps its relative accuracy however small it gets
        for l in (*range(1, 11), 20, 30, 50):
            for omega_r in (0.01, 0.1, 1.0, 10.0, 100.0):
                shell = SphericalShell(radius=1.0, omega=omega_r)
                assert scan_real_zeros(l, shell) == [], (l, omega_r)

    def test_certificate_reads_only_the_jost_routes(self, monkeypatch):
        # no second route to Im g is left: the scan certifies from jost_te
        # and jost_tm alone
        def unused(*args):
            raise AssertionError("the scan must not call this")

        monkeypatch.setattr(sphere, "spherical_bessel_j", unused)
        monkeypatch.setattr(sphere, "riccati_bessel", unused)
        shell = SphericalShell(radius=1.0, omega=0.1)
        assert scan_real_zeros(5, shell) == []

    def test_loose_threshold_reports_shallow_minima(self):
        shell = SphericalShell(radius=1.0, omega=1.0)
        found = scan_real_zeros(2, shell, threshold=0.5, certify_nonzero=False)
        assert len(found) >= 1
        assert all(c.min_abs_g_squared < 0.5 for c in found)

    def test_modulus_strictly_positive_through_resonance(self):
        shell = SphericalShell(radius=1.0, omega=0.1)
        grid = np.linspace(0.01, 2.0, 2000)
        values = [abs(jost_tm(5, float(z), shell)) for z in grid]
        assert min(values) > 0.0

    def test_rejects_bad_arguments(self):
        shell = SphericalShell(radius=1.0, omega=1.0)
        with pytest.raises(ValueError):
            scan_real_zeros(0, shell)
        with pytest.raises(ValueError):
            scan_real_zeros(1, shell, k0r_max=-1.0)

    @pytest.mark.parametrize("keyword, value, message", [
        ("k0r_max", math.inf, "k0r_max must be positive and finite"),
        ("k0r_max", math.nan, "k0r_max must be positive and finite"),
        ("points_per_period", 0, "points_per_period must be >= 1"),
        ("points_per_period", -5, "points_per_period must be >= 1"),
    ])
    def test_rejects_unusable_grid_before_any_jost_call(self, keyword, value,
                                                        message, monkeypatch):
        def no_jost(*args):
            raise AssertionError("no Jost value may be computed")

        monkeypatch.setattr(sphere, "jost_te", no_jost)
        monkeypatch.setattr(sphere, "jost_tm", no_jost)
        with pytest.raises(ValueError, match=message):
            scan_real_zeros(1, SphericalShell(1.0, 1.0), **{keyword: value})


class TestTmFlatLimit:
    def test_propagating_value(self):
        k0, kpar, omega = 3.0, 2.0, 1.5
        gamma = math.sqrt(k0**2 - kpar**2)
        expected = 1.0 + 1j * omega * gamma / (2.0 * k0**2)
        assert tm_flat_limit(k0, kpar, omega) == pytest.approx(expected)

    def test_static_limit_rejected(self):
        with pytest.raises(DegenerateMomentumError):
            tm_flat_limit(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -1.0])
    def test_coupling_must_be_finite_and_non_negative(self, omega):
        with pytest.raises(ValueError,
                           match="omega must be finite and non-negative"):
            tm_flat_limit(1.0, 1.0, omega)

    def test_evanescent_value_is_real_below_one(self):
        g = tm_flat_limit(1.0, 2.0, 3.0)
        assert g.imag == 0.0
        assert g.real < 1.0

    @pytest.mark.parametrize("k0, kpar", [(1e-170, 5e-171), (1e-170, 1e-153),
                                          (1e200, 5e199)])
    def test_momenta_whose_squares_leave_the_range(self, k0, kpar):
        with mpmath.workdps(40):
            k0m, kparm = mpmath.mpf(k0), mpmath.mpf(kpar)
            gamma = mpmath.sqrt(k0m**2 - kparm**2)
            if gamma.imag < 0:
                gamma = -gamma
            want = complex(1 + 1j * gamma / (2 * k0m**2))
        got = tm_flat_limit(k0, kpar, 1.0)
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    def test_value_beyond_the_float_range_names_the_point(self):
        # 1 - 5e399
        with pytest.raises(ValueError, match="k0 = 1e-200, kpar = 1.0"):
            tm_flat_limit(1e-200, 1.0, 1.0)

    def test_sphere_converges_at_fixed_parallel_momentum(self):
        # window-average jost_tm over one oscillation period T = pi k0/gamma
        # and compare to the flat asymptote; quadrupling the radius at fixed
        # kpar = l/R must shrink the deviation
        kpar, k0, omega = 1.0, 2.0, 3.0
        gamma = math.sqrt(k0**2 - kpar**2)
        period = math.pi * k0 / gamma
        deviations = []
        for l in (6, 24, 96):
            radius = l / kpar
            shell = SphericalShell(radius=radius, omega=omega)
            z0 = k0 * radius
            samples = z0 + np.arange(64) / 64.0 * period
            mean = np.mean([jost_tm(l, float(z) / radius, shell)
                            - tm_flat_limit(float(z) / radius, kpar, omega)
                            for z in samples])
            deviations.append(abs(mean))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 0.01


class TestOrderIsAnInteger:
    """Every Jost route, d_l and the zero scan take an integer l only."""

    SHELL = SphericalShell(radius=1.3, omega=2.0)

    @pytest.mark.parametrize("route", [jost_te, jost_te_riccati, jost_tm,
                                       jost_tm_decomposed])
    @pytest.mark.parametrize("k0", [2.2, 2.0j, np.array([0.5, 2.2])])
    def test_jost_routes_reject_fractional_order(self, route, k0):
        with pytest.raises(ValueError, match="integer"):
            route(1.5, k0, self.SHELL)

    def test_jost_routes_take_numpy_integers(self):
        assert jost_te(np.int64(4), 2.2, self.SHELL) == jost_te(4, 2.2, self.SHELL)

    def test_radial_propagator_rejects_fractional_order(self):
        with pytest.raises(ValueError, match="integer"):
            radial_propagator_dl(1.5, 2.0, 1.0, 1.0)

    def test_scan_rejects_fractional_order(self):
        with pytest.raises(ValueError, match="integer"):
            scan_real_zeros(1.5, self.SHELL)


class TestJostArrays:
    """A real ndarray k0 is evaluated in one pass through scipy.special."""

    @staticmethod
    def _gap(a, b):
        return abs(a - b) / max(abs(a), abs(b))

    def test_agrees_with_scalar_routes(self):
        # l in [1, 50], Omega R in [1e-2, 1e2], k0 R in [1e-2, 50]; the
        # largest gaps sit at TM resonance dips where |g| << 1
        rng = np.random.default_rng(41)
        cases = [(1, 0.01), (5, 0.1), (50, 100.0)] + [
            (int(rng.integers(1, 51)), float(10.0 ** rng.uniform(-2.0, 2.0)))
            for _ in range(12)]
        for l, omega_r in cases:
            radius = float(rng.choice((0.5, 1.0, 2.0)))
            shell = SphericalShell(radius=radius, omega=omega_r / radius)
            k0r = np.geomspace(1e-2, 50.0, 41)
            k0 = k0r / radius
            te, tm = jost_te(l, k0, shell), jost_tm(l, k0, shell)
            te_riccati = jost_te_riccati(l, k0, shell)
            tm_decomposed = jost_tm_decomposed(l, k0, shell)
            for i, value in enumerate(k0):
                point = float(value)
                for array_value, scalar_route in (
                        (te[i], jost_te), (te[i], jost_te_riccati),
                        (te_riccati[i], jost_te),
                        (tm[i], jost_tm), (tm[i], jost_tm_decomposed),
                        (tm_decomposed[i], jost_tm)):
                    gap = self._gap(array_value, scalar_route(l, point, shell))
                    assert gap <= PATH_AGREEMENT_TOL, (l, omega_r, k0r[i])

    def test_resonance_dip_agrees(self):
        # the l = 5, Omega R = 0.1 TM dip, where |g|^2 falls below 1e-6
        shell = SphericalShell(radius=1.0, omega=0.1)
        k0 = np.linspace(0.3, 0.9, 601)
        tm = jost_tm(5, k0, shell)
        assert np.min(np.abs(tm)) < 1e-3
        for i in range(0, len(k0), 10):
            gap = self._gap(tm[i], jost_tm_decomposed(5, float(k0[i]), shell))
            assert gap <= PATH_AGREEMENT_TOL

    def test_transparent_shell_gives_ones(self):
        shell = SphericalShell(radius=1.0, omega=0.0)
        k0 = np.array([0.5, 1.0, 2.0])
        for jost in (jost_te, jost_te_riccati, jost_tm, jost_tm_decomposed):
            value = jost(2, k0, shell)
            assert value.shape == k0.shape and np.all(value == 1.0)

    def test_static_point_raises(self):
        shell = SphericalShell(radius=1.0, omega=1.0)
        with pytest.raises(DegenerateMomentumError):
            jost_te(1, np.array([0.0, 1.0]), shell)

    def test_scan_keeps_weak_coupling_candidate(self):
        # the grid is sampled in one array pass; the one uncertified TM dip
        # at l = 6, Omega R = 0.01 stays where the scalar grid put it
        shell = SphericalShell(radius=1.0, omega=0.01)
        found = scan_real_zeros(6, shell, certify_nonzero=False)
        assert [c.polarization for c in found] == ["tm"]
        assert found[0].k0r_location == pytest.approx(0.17970695743716975,
                                                      abs=1e-9)


def mp_jh_imaginary_axis(n, x):
    """j_n(i x) and h_n(i x) for real x > 0, from mpmath.

    j_n(i x) = i^n sqrt(pi/(2x)) I_(n+1/2)(x) and
    h_n(i x) = -i^-n sqrt(2/(pi x)) K_(n+1/2)(x). mpmath's own hankel1
    loses every digit there, to the cancellation in J + i Y.
    """
    x = mpmath.mpf(x)
    return (1j ** n * mpmath.sqrt(mpmath.pi / (2 * x))
            * mpmath.besseli(n + 0.5, x),
            -(1j ** -n) * mpmath.sqrt(2 / (mpmath.pi * x))
            * mpmath.besselk(n + 0.5, x))


def mp_jost_imaginary_axis(l, kappa_r, omega_r):
    """TE and TM Jost functions at k0 R = i kappa R, R = 1, from mpmath."""
    with mpmath.workdps(40):
        z = mpmath.mpc(0, kappa_r)
        (jm, hm), (jl, hl) = (mp_jh_imaginary_axis(n, kappa_r)
                              for n in (l - 1, l))
        front = 1j * omega_r / z
        return (complex(1 + front * z * z * jl * hl),
                complex(1 + front * (z * jm - l * jl) * (z * hm - l * hl)))


class TestImaginaryAxis:
    """k0 = i kappa, where j_l and y_l grow like e^(kappa R)."""

    SHELL = SphericalShell(radius=1.0, omega=1.0)

    @pytest.mark.parametrize("kappa_r", [20.0, 200.0, 710.0, 800.0, 1000.0])
    def test_all_routes_match_mpmath(self, kappa_r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in (1, 3, 10):
                te, tm = mp_jost_imaginary_axis(l, kappa_r, 1.0)
                k0 = 1j * kappa_r
                for jost, want in ((jost_te, te), (jost_te_riccati, te),
                                   (jost_tm, tm), (jost_tm_decomposed, tm)):
                    got = jost(l, k0, self.SHELL)
                    assert abs(got - want) <= 1e-12 * abs(want), (
                        jost.__name__, l, kappa_r)

    @pytest.mark.parametrize("kappa", [20.0, 200.0, 800.0])
    def test_off_diagonal_propagator_matches_mpmath(self, kappa):
        # j_l(i kappa r) overflows alone; h_l(i kappa r') underflows
        with warnings.catch_warnings(), mpmath.workdps(40):
            warnings.simplefilter("error")
            for l in (1, 3, 10):
                j, _ = mp_jh_imaginary_axis(l, kappa * 1.0)
                _, h = mp_jh_imaginary_axis(l, kappa * 1.1)
                want = complex(1j * mpmath.mpc(0, kappa) * j * h)
                for r, rp in ((1.0, 1.1), (1.1, 1.0)):
                    got = radial_propagator_dl(l, 1j * kappa, r, rp)
                    assert abs(got - want) <= 1e-12 * abs(want), (l, kappa)

    def test_route_pairs_agree_without_warnings(self):
        k0 = 1j * np.geomspace(0.1, 1000.0, 241)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in range(1, 11):
                for first, second in ((jost_te, jost_te_riccati),
                                      (jost_tm, jost_tm_decomposed)):
                    a = first(l, k0, self.SHELL)
                    b = second(l, k0, self.SHELL)
                    gap = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
                    assert np.max(gap) <= PATH_AGREEMENT_TOL, (
                        first.__name__, l)

    def test_complex_array_equals_scalar_calls(self):
        k0 = np.array([0.5j, 3.0 + 2.0j, 250j, 900j])
        for jost in (jost_te, jost_te_riccati, jost_tm, jost_tm_decomposed):
            values = jost(4, k0, self.SHELL)
            for i, point in enumerate(k0.tolist()):
                want = jost(4, point, self.SHELL)
                assert abs(values[i] - want) <= 4e-16 * abs(want)


class TestRealAxisImaginaryPart:
    """Im g from the Jost routes equals its closed form to 1e-12 relative."""

    SHELL = SphericalShell(radius=1.0, omega=2.0)

    @staticmethod
    def _closed_forms(l, z, shell):
        j = special.spherical_jn(l, z)
        rjp = j + z * special.spherical_jn(l, z, derivative=True)
        k0 = z / shell.radius
        return (shell.omega * shell.radius**2 * k0 * j * j,
                (shell.omega / k0) * rjp * rjp)

    @staticmethod
    def _assert_relative(got, want, what):
        # a zero closed form is a squared factor that underflowed
        assert abs(got - want) <= 1e-12 * abs(want), what

    def test_scalar_and_array_k0(self):
        shell = self.SHELL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in (1, 10, 50):
                z = np.geomspace(1e-6, 0.1, 11)
                # below about 4e-5, y_50 or (z y_50)' overflows: there the
                # TM routes raise
                y = special.spherical_yn(l, z)
                clean = np.isfinite(y + z * special.spherical_yn(
                    l, z, derivative=True))
                assert l == 50 or clean.all()
                for point in z[~clean]:
                    with pytest.raises(SheetModelError):
                        jost_tm(l, float(point) / shell.radius, shell)
                z = z[clean]
                k0 = z / shell.radius
                te, tm = jost_te(l, k0, shell), jost_tm(l, k0, shell)
                for i, point in enumerate(z.tolist()):
                    want_te, want_tm = self._closed_forms(l, point, shell)
                    scalar_te = jost_te(l, point / shell.radius, shell)
                    scalar_tm = jost_tm(l, point / shell.radius, shell)
                    for got in (te[i], scalar_te):
                        self._assert_relative(got.imag, want_te, (l, point))
                    for got in (tm[i], scalar_tm):
                        self._assert_relative(got.imag, want_tm, (l, point))


    def test_shell_grid_scalar_and_array(self):
        # from below the first zero of j_l, through the turning point
        # k0 R = l + 1/2, into the oscillatory regime
        shell = SphericalShell(radius=1.4, omega=3.0)
        for l in range(1, 11):
            z = np.array([0.05, 0.4, 1.0, l + 0.5, 3.0 * l, 28.0])
            k0 = z / shell.radius
            te, tm = jost_te(l, k0, shell), jost_tm(l, k0, shell)
            for i, point in enumerate(z.tolist()):
                want_te, want_tm = self._closed_forms(l, point, shell)
                scalar_te = jost_te(l, point / shell.radius, shell)
                scalar_tm = jost_tm(l, point / shell.radius, shell)
                for got in (te[i], scalar_te):
                    self._assert_relative(got.imag, want_te, (l, point))
                for got in (tm[i], scalar_tm):
                    self._assert_relative(got.imag, want_tm, (l, point))


class TestNonFiniteJost:
    """Where j_l underflows and y_l overflows, the Jost functions raise."""

    POINTS = [(50, 1e-6), (120, 1e-2), (300, 1.0)]

    @pytest.mark.parametrize("l, k0r", POINTS)
    def test_every_route_raises(self, l, k0r):
        shell = SphericalShell(radius=1.0, omega=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for jost in (jost_te, jost_te_riccati, jost_tm,
                         jost_tm_decomposed):
                for k0 in (k0r, np.array([2.0 * l, k0r])):
                    with pytest.raises(SheetModelError) as info:
                        jost(l, k0, shell)
                    assert f"l = {l}," in str(info.value)
                    assert f"k0 R = {k0r}" in str(info.value)
