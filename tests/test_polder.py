import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from plasmasheet import polder
from plasmasheet.errors import PathDisagreementError
from plasmasheet.polder import (
    BULK_CONDUCTOR_CP_COEFFICIENT,
    IDEAL_SHEET_CP_COEFFICIENT,
    AtomProperties,
    ReductionFunctions,
    _require_agreement,
    casimir_polder_energies,
    casimir_polder_energy,
    charge_sheet_energies,
    charge_sheet_energy,
    delta1,
    delta1_integral_form,
    electrostatic_shift,
    f_te,
    f_tm,
    g_3,
    g_te,
    g_tm,
    h_3,
    h_parallel,
    image_potential,
    reduction_function_columns,
    reduction_functions,
)
from plasmasheet.sheet import SheetParameters

# mpmath (dps=30) reference values for the shape functions.
F_TE_1 = 0.40365263767680592566
F_TM_1 = 0.54131950288438918279
F_TE_SLOPE = 0.99913659119297872747   # f_TE(1e-4)/1e-4
F_TM_SLOPE = 0.97322170682024017630   # f_TM(1e-4)/(3e-4)
H_PAR_1 = 2.4036526376768059257
H_PAR_5 = 1.3478891185763389909
G_TE_1 = 0.23394210627946765428
G_TM_1 = 0.62143656463454171672
G_3_1 = 0.68033076454263782932


class TestAtomProperties:
    def test_isotropic_factory(self):
        atom = AtomProperties.isotropic(2.5, m=3.0)
        assert atom.alpha1 == atom.alpha2 == atom.alpha3 == 2.5
        assert atom.m == 3.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AtomProperties(m=0.0)
        with pytest.raises(ValueError):
            AtomProperties(alpha2=-1.0)
        with pytest.raises(ValueError):
            AtomProperties(p23=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["e", "m", "alpha1", "alpha2", "alpha3",
                                      "p2par", "p23", "quadrupole"])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AtomProperties(**{name: value})


class TestImagePotential:
    def test_value_at_origin(self):
        # charge at the origin, sheet at height a: mirror charge at 2a
        assert image_potential(0.0, 0.0, 0.0, 1.5, 1.0) == pytest.approx(
            1.0 / (8.0 * math.pi * 1.5), rel=1e-15)

    def test_matches_mirror_coulomb_at_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = float(rng.uniform(0.3, 3.0))
            p = rng.uniform(-4.0, 4.0, size=3)
            mirror = np.array([0.0, 0.0, 2.0 * a])
            expected = 1.0 / (4.0 * math.pi * np.linalg.norm(p - mirror))
            got = image_potential(p[0], p[1], p[2], a, 1.0)
            assert abs(got - expected) <= 1e-12 * expected

    def test_rotation_invariance_in_plane(self):
        r, phi = 1.3, 0.7
        base = image_potential(r, 0.0, 0.4, 1.0, 2.0)
        rotated = image_potential(r * math.cos(phi), r * math.sin(phi),
                                  0.4, 1.0, 2.0)
        assert rotated == pytest.approx(base, rel=1e-14)

    def test_mirror_point_singularity(self):
        with pytest.raises(ValueError):
            image_potential(0.0, 0.0, 2.0, 1.0, 1.0)

    def test_extreme_distances(self):
        # the squared distance under- or overflows; the distance does not
        for a in (1e-200, 1e200):
            assert image_potential(0.0, 0.0, 0.0, a, 1.0) == pytest.approx(
                1.0 / (8.0 * math.pi) / a, rel=1e-15)
        with pytest.raises(ValueError, match="beyond the float range"):
            image_potential(0.0, 0.0, 0.0, 1e-310, 1.0)

    def test_rejects_nan_and_keeps_the_far_sheet_limit(self):
        point = {"x1": 0.0, "x2": 0.0, "x3": 0.0, "a": 1.0, "e": 1.0}
        for name in point:
            with pytest.raises(ValueError, match=f"^{name} must"):
                image_potential(**{**point, name: math.nan})
        assert image_potential(0.0, 0.0, 0.0, math.inf, 1.0) == 0.0


class TestElectrostaticShift:
    def test_monopole_only(self):
        atom = AtomProperties(e=1.0, quadrupole=0.0)
        assert electrostatic_shift(1.0, atom) == pytest.approx(
            1.0 / (8.0 * math.pi), rel=1e-15)

    def test_with_quadrupole(self):
        atom = AtomProperties(e=1.0, quadrupole=1.0)
        expected = (1.0 / (4.0 * math.pi)) * (0.5 + 1.0 / 16.0)
        assert electrostatic_shift(1.0, atom) == pytest.approx(expected, rel=1e-15)

    def test_monopole_dominates_far_away(self):
        atom = AtomProperties(e=1.0, quadrupole=1.0)
        a = 1e6
        assert a * electrostatic_shift(a, atom) == pytest.approx(
            1.0 / (8.0 * math.pi), rel=1e-9)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            electrostatic_shift(0.0, AtomProperties())

    def test_extreme_distances(self):
        atom = AtomProperties(quadrupole=1.0)
        with pytest.raises(ValueError, match="beyond the float range"):
            electrostatic_shift(1e-170, atom)
        # the quadrupole term underflows to 0, the monopole term does not
        far = electrostatic_shift(1e200, atom)
        assert far == pytest.approx(1.0 / (8.0 * math.pi * 1e200), rel=1e-15)


class TestShapeFunctionValues:
    def test_frozen_values_at_one(self):
        assert f_te(1.0) == pytest.approx(F_TE_1, rel=1e-10)
        assert f_tm(1.0) == pytest.approx(F_TM_1, rel=1e-10)
        assert h_parallel(1.0) == pytest.approx(H_PAR_1, rel=1e-10)
        assert g_te(1.0) == pytest.approx(G_TE_1, rel=1e-10)
        assert g_tm(1.0) == pytest.approx(G_TM_1, rel=1e-10)
        assert g_3(1.0) == pytest.approx(G_3_1, rel=1e-10)

    @pytest.mark.parametrize("x", [1e-9, 1e14])
    def test_g_family_at_the_domain_edges(self, x):
        # mpmath, 60 digits, from the closed angular factors; the points lie
        # outside the x in [1e-6, 1e12] that the benchmark covers
        with mpmath.workdps(60):
            xm = mpmath.mpf(x)

            def ratio(b):
                rb = mpmath.sqrt(b)
                return mpmath.atan(rb) / rb

            def weighted(angular):
                points = [mpmath.mpf(p) for p in sorted({0, x, 1, 10, 40})
                          if p < 60] + [mpmath.inf]
                return mpmath.quad(
                    lambda k: k**3 * mpmath.exp(-k) * angular(k / xm), points)

            refs = (
                weighted(lambda b: 1 / (1 + b)) / 6,
                mpmath.mpf(5) / 22 * weighted(
                    lambda b: 2 / (3 * b) - 2 * (1 + b) / b**2
                    + ((b * b + 2 * b + 2) / b**2) * ratio(b)),
                weighted(lambda b: -1 / b + ((1 + b) / b) * ratio(b)) / 4,
            )
        for fn, ref in zip((g_te, g_tm, g_3), refs):
            assert abs(fn(x) - float(ref)) <= 1e-10 * float(ref), fn.__name__

    def test_h3_closed_form(self):
        assert h_3(1.0) == 2.0
        assert h_3(4.0) == 1.25

    def test_weak_coupling_slopes(self):
        assert f_te(1e-4) / 1e-4 == pytest.approx(F_TE_SLOPE, rel=1e-10)
        assert f_tm(1e-4) / 3e-4 == pytest.approx(F_TM_SLOPE, rel=1e-10)

    def test_strong_coupling_limits(self):
        for fn in (f_te, f_tm, h_parallel, g_te, g_tm, g_3):
            assert abs(fn(1e4) - 1.0) < 5e-4

    def test_h_parallel_diverges_at_weak_coupling(self):
        assert h_parallel(1e-3) > 1e3

    def test_monotone_on_log_grid(self):
        grid = np.logspace(-3, 3, 30)
        increasing = [f_te, f_tm, g_te, g_tm, g_3]
        for fn in increasing:
            values = [fn(float(x)) for x in grid]
            for lo, hi in zip(values, values[1:]):
                assert 0.0 < lo < hi < 1.0
        h_values = [h_parallel(float(x)) for x in grid]
        for lo, hi in zip(h_values, h_values[1:]):
            assert lo > hi > 1.0

    def test_rejects_nonpositive_argument(self):
        for fn in (f_te, f_tm, h_parallel, h_3, g_te, g_tm, g_3):
            with pytest.raises(ValueError):
                fn(0.0)

    @pytest.mark.parametrize("fn", [f_te, f_tm, h_parallel, h_3, g_te, g_tm,
                                    g_3, reduction_functions,
                                    ReductionFunctions],
                             ids=lambda fn: fn.__name__)
    def test_rejects_infinite_argument(self, fn):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            fn(math.inf)

    def test_bundle_matches_standalone(self):
        x = 3.7
        rf = reduction_functions(x)
        assert rf.x == x
        assert rf.fTE == f_te(x)
        assert rf.fTM == f_tm(x)
        assert rf.hPar == h_parallel(x)
        assert rf.h3 == h_3(x)
        assert rf.gTE == g_te(x)
        assert rf.gTM == g_tm(x)
        assert rf.g3 == g_3(x)

    def test_bundle_of_named_functions(self):
        rf = reduction_functions(2.0, names=("fTE", "h3"))
        assert rf.fTE == f_te(2.0)
        assert rf.h3 == h_3(2.0)
        assert rf.gTM is None and rf.hPar is None

    def test_bundle_validation(self):
        with pytest.raises(ValueError):
            ReductionFunctions(x=1.0, fTE=0.0, fTM=1.0, hPar=1.0, h3=1.0,
                               gTE=1.0, gTM=1.0, g3=1.0)
        with pytest.raises(ValueError):
            ReductionFunctions(x=-1.0, fTE=1.0, fTM=1.0, hPar=1.0, h3=1.0,
                               gTE=1.0, gTM=1.0, g3=1.0)


class TestDualRoutes:
    def test_angular_reductions_agree_across_grid(self):
        # internal route comparison raises on disagreement beyond 1e-8
        for x in np.logspace(-3, 3, 30):
            g_tm(float(x))
            g_3(float(x))

    def test_routes_agree_tightly_on_lattice(self):
        # x = 10^(k/4) over [1e-6, 1e12], the whole coupling range
        for k in range(-24, 49):
            x = 10.0 ** (k / 4)
            closed, check = polder._g_family(x, 1e-8)
            for label, value, other in zip(("g_tm", "g_3"), closed[1:], check):
                assert abs(value - other) <= 1e-11 * value, (x, label)

    @pytest.mark.parametrize("row, fn", [pytest.param(0, g_tm, id="A_TM-g_tm"),
                                         pytest.param(1, g_3, id="A_3-g_3")])
    def test_perturbed_closed_form_is_caught(self, monkeypatch, row, fn):
        # the check routes never call the closed forms, so a 1e-6 error in
        # one closed angular factor must surface as that route's disagreement
        original = polder._g_angular
        scale = np.ones((2, 1))
        scale[row] += 1e-6
        monkeypatch.setattr(polder, "_g_angular", lambda b: original(b) * scale)
        for x in (1e-3, 1.0, 1e3):
            with pytest.raises(PathDisagreementError,
                               match=f"^{fn.__name__} routes disagree"):
                fn(x)

    def test_shape_functions_never_call_quadpack(self, monkeypatch):
        def quad(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(scipy.integrate, "quad", quad)
        for x in (1e-6, 1e-3, 0.1, 1e12):
            for fn in (f_te, f_tm, h_parallel, g_te, g_tm, g_3):
                value = fn(x)
                assert math.isfinite(value) and value > 0.0
        for fn in (f_te, f_tm, h_parallel, g_te, g_tm, g_3):
            assert fn(1e12) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("fn, exact", [(g_tm, G_TM_1), (g_3, G_3_1)])
    def test_rtol_drives_the_returned_route(self, monkeypatch, fn, exact):
        calls = []
        integrate = polder.integrate_exponential_weight

        def counting(f, spec, *params):
            calls.append(0)

            def counted(k, *rows):
                calls[-1] += 1
                return f(k, *rows)

            return integrate(counted, spec, *params)

        monkeypatch.setattr(polder, "integrate_exponential_weight", counting)
        loose = fn(1.0, 1e-4)
        loose_calls = calls[0]
        calls.clear()
        fn(1.0, 1e-10)
        assert abs(loose - exact) <= 1e-4 * exact
        assert loose_calls < calls[0]

    def test_family_pass_once_per_x_in_floats(self, monkeypatch):
        passes = []
        original = polder._g_family

        def counted(x, rtol):
            passes.append(x)
            return original(x, rtol)

        monkeypatch.setattr(polder, "_g_family", counted)
        bundle = reduction_functions(2.5)
        assert passes == [2.5]
        for name in polder._SHAPE_NAMES:
            assert type(getattr(bundle, name)) is float, name
        passes.clear()
        for atom in (AtomProperties.isotropic(1.0), AtomProperties(alpha1=1.0),
                     AtomProperties(alpha3=1.0)):
            energy = casimir_polder_energy(1.5, SheetParameters(omega=2.0),
                                           atom)
            assert type(energy) is float and energy < 0.0
        assert passes == [3.0, 3.0, 3.0]
        # g_te has one route and runs no check route
        assert g_te(2.5) == bundle.gTE
        assert passes == [3.0, 3.0, 3.0]
        closed, check = original(2.5, 1e-8)
        assert all(type(value) is float for value in closed + check)

    @pytest.mark.parametrize("x", [1e-6, 1.0, 1e12])
    def test_inner_nodes_per_x_are_pinned(self, monkeypatch, x):
        # nodes of the check routes' Gauss-Legendre rule in the angle, gTM
        # and g3 together, pinned exactly: one call on the joined nodes of
        # orders 32 and 64, which agree at every x. The log-k rule runs
        # only for the closed routes, 5 integrand calls at every x.
        nodes, outer_calls = [], []
        original = polder.integrate_legendre
        original_outer = polder.integrate_exponential_weight

        def counted(f, hi, spec, *params):
            def f_counted(t, *rows):
                nodes.append(t.size)
                return f(t, *rows)

            return original(f_counted, hi, spec, *params)

        def outer_counted(f, spec, *params):
            def f_counted(k, *rows):
                outer_calls.append(k.size)
                return f(k, *rows)

            return original_outer(f_counted, spec, *params)

        monkeypatch.setattr(polder, "integrate_legendre", counted)
        monkeypatch.setattr(polder, "integrate_exponential_weight",
                            outer_counted)
        polder._g_family(x, 1e-8)
        assert nodes == [96]
        assert len(outer_calls) == 5

    def test_check_route_calls_no_closed_route_code(self, monkeypatch):
        # neither the arctan forms nor the log-k rule of the closed routes
        def broken(*args, **kwargs):
            raise AssertionError("closed-route code called")

        for name in ("_g_angular", "_atan_ratio",
                     "integrate_exponential_weight"):
            monkeypatch.setattr(polder, name, broken)
        x = np.array([1e-6, 1.0, 1e12])
        tm, g3 = polder._g_check_routes(x)
        assert np.all((0.0 < tm) & (tm < 1.0 + 1e-15))
        assert np.all((0.0 < g3) & (g3 < 1.0 + 1e-15))
        assert polder._g_check_routes(1.0) == pytest.approx(
            (G_TM_1, G_3_1), rel=1e-13)

    def test_agreement_guard_fires(self):
        with pytest.raises(PathDisagreementError):
            _require_agreement("demo", 1.0, 1.0 + 2e-8)

    def test_agreement_guard_tolerates_noise(self):
        _require_agreement("demo", 1.0, 1.0 + 5e-9)
        _require_agreement("demo", 0.0, 0.0)


class TestKMoment:
    """G(c) = Int k^3 e^-k/(1 + k/c) dk = 6 c e^c E_4(c) of the check route,
    taken at v = 1/c."""

    @staticmethod
    def _reference(v):
        with mpmath.workdps(40):
            c = 1 / mpmath.mpf(v)
            return float(6 * c * mpmath.exp(c) * mpmath.expint(4, c))

    def test_matches_mpmath(self):
        # the whole range, and both sides of the switch from the E_1 series
        # to the continued fraction at c = 2
        c = np.concatenate((np.geomspace(1e-8, 1e16, 97),
                            np.linspace(1.5, 2.5, 21),
                            [np.nextafter(2.0, 0.0)]))
        got = polder._k_moment(1.0 / c)
        for value, want in zip(got.tolist(), map(self._reference, 1.0 / c)):
            assert abs(value - want) <= 1e-13 * want, value

    def test_limits(self):
        # G ~ 2c as c -> 0, G -> 3! as c -> inf, and G = 6 at v = 1/c = 0
        small, large, limit = polder._k_moment(np.array([1e12, 1e-18, 0.0]))
        assert small == pytest.approx(2e-12, rel=1e-11)
        assert large == pytest.approx(6.0, rel=1e-16)
        assert limit == 6.0


class TestPinnedBits:
    """repr of (gTE, gTM, g3) at rtol 1e-8. The check routes of gTM and g3
    only guard the closed routes' values, so a change to them moves no
    bit."""

    @pytest.mark.parametrize("x, want", [
        (1e-6, "(3.3333316666682534e-07, 0.001185373864305721, "
               "0.0013040773961215146)"),
        (1e-3, "(0.0003331668322768269, 0.03648691714639333, "
               "0.04028649587100974)"),
        (1.0, "(0.2339421062792956, 0.6214365646343695, "
              "0.6803307645424655)"),
        (1e3, "(0.9960198808331674, 0.9988089010782844, "
              "0.9992017085965708)"),
        (1e6, "(0.9999960000198276, 0.9999988051983557, "
              "0.9999992000015421)"),
        (1e12, "(0.9999999999958277, 0.9999999999986331, "
               "0.9999999999990278)"),
    ])
    def test_g_family(self, x, want):
        assert repr((g_te(x), g_tm(x), g_3(x))) == want


class TestDelta1:
    def test_transparent_sheet(self):
        atom = AtomProperties()
        assert delta1(1.0, SheetParameters(omega=0.0), atom) == 0.0
        assert delta1_integral_form(1.0, SheetParameters(omega=0.0), atom) == 0.0

    def test_ideal_limit(self):
        atom = AtomProperties(e=1.0, m=1.0)
        got = delta1(1.0, SheetParameters(omega=1e6), atom)
        ideal = -(1.0 / (32.0 * math.pi**2)) * (4.0 / 3.0)
        assert got == pytest.approx(ideal, rel=1e-5)

    def test_two_routes_agree(self, monkeypatch):
        def quad(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(scipy.integrate, "quad", quad)
        atom = AtomProperties(e=1.0, m=2.0)
        for x in (1e-6, 0.1, 1.0, 2.0, 10.0, 1e12):
            sheet = SheetParameters(omega=x)
            closed = delta1(1.0, sheet, atom)
            integral = delta1_integral_form(1.0, sheet, atom)
            assert abs(closed - integral) <= 1e-6 * abs(closed)

    def test_scale_collapse(self):
        # a^2 delta1 depends on Omega and a only through x = Omega a
        atom = AtomProperties()
        near = delta1(2.0, SheetParameters(omega=1.0), atom)
        far = delta1(1.0, SheetParameters(omega=2.0), atom)
        assert near * 4.0 == pytest.approx(far, rel=1e-10)

    def test_negative_everywhere(self):
        atom = AtomProperties()
        rng = np.random.default_rng(3)
        for _ in range(8):
            a = float(rng.uniform(0.2, 4.0))
            omega = float(rng.uniform(0.05, 50.0))
            assert delta1(a, SheetParameters(omega=omega), atom) < 0.0

    def test_extreme_distance_raises_beyond_the_float_range(self):
        # x = 1; a * a underflows to 0 at a = 1e-170
        sheet, atom = SheetParameters(omega=1e170), AtomProperties()
        for route in (delta1, delta1_integral_form):
            with pytest.raises(ValueError, match="beyond the float range"):
                route(1e-170, sheet, atom)


class TestChargeSheetEnergy:
    def test_electrostatic_part_pinned(self):
        atom = AtomProperties(e=2.0)
        for omega in (0.5, 5.0, 500.0):
            es, _ = charge_sheet_energy(1.5, SheetParameters(omega=omega), atom)
            assert es == -4.0 / (8.0 * math.pi * 1.5)

    def test_parallel_momentum_shape(self):
        atom = AtomProperties(p2par=2.0, p23=0.0)
        _, kin = charge_sheet_energy(5.0, SheetParameters(omega=1.0), atom)
        expected = -(1.0 / (16.0 * math.pi * 5.0)) * H_PAR_5 * 0.5 * 2.0
        assert kin == pytest.approx(expected, rel=1e-10)

    def test_normal_momentum_shape(self):
        # the integral pins the normal shape to 1 + 1/(2x), not h_3 = 1 + 1/x
        x = 5.0
        atom = AtomProperties(p2par=0.0, p23=3.0)
        _, kin = charge_sheet_energy(x, SheetParameters(omega=1.0), atom)
        prefactor = -(1.0 / (16.0 * math.pi * x))
        assert kin == pytest.approx(prefactor * (1.0 + 1.0 / (2.0 * x)) * 3.0,
                                    rel=1e-12)
        ratio = kin / (prefactor * h_3(x) * 3.0)
        assert ratio == pytest.approx(11.0 / 12.0, rel=1e-10)

    def test_ideal_limit(self):
        atom = AtomProperties(p2par=2.0, p23=3.0, m=2.0)
        _, kin = charge_sheet_energy(1.0, SheetParameters(omega=1e6), atom)
        ideal = -(1.0 / (16.0 * math.pi * 4.0)) * (0.5 * 2.0 + 3.0)
        assert kin == pytest.approx(ideal, rel=1e-5)

    def test_mass_scaling(self):
        heavy = AtomProperties(m=2.0, p2par=1.0, p23=1.0)
        light = AtomProperties(m=1.0, p2par=1.0, p23=1.0)
        sheet = SheetParameters(omega=1.0)
        _, kin_heavy = charge_sheet_energy(1.0, sheet, heavy)
        _, kin_light = charge_sheet_energy(1.0, sheet, light)
        assert kin_heavy == pytest.approx(kin_light / 4.0, rel=1e-12)

    def test_no_momenta_no_kinetic_energy(self):
        _, kin = charge_sheet_energy(1.0, SheetParameters(omega=1.0),
                                     AtomProperties())
        assert kin == 0.0 and math.copysign(1.0, kin) == 1.0  # prints 0

    def test_extreme_distances(self):
        atom = AtomProperties(p2par=1.0, p23=1.0)
        x = np.array([0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="beyond the float range"):
            charge_sheet_energies(1e-310, x, atom)
        # subnormal, not rounded to -0: -e^2/(8 pi a) at a = 1e308
        es, kin = charge_sheet_energies(1e308, x, atom)
        assert np.all(es == -1.0 / (8.0 * math.pi) / 1e308)
        assert np.all(es < 0.0) and np.all(kin < 0.0)
        _, unit = charge_sheet_energies(1.0, x, atom)
        assert kin == pytest.approx(unit / 1e308, rel=1e-5)

    def test_transparent_sheet_rejected(self):
        with pytest.raises(ValueError):
            charge_sheet_energy(1.0, SheetParameters(omega=0.0),
                                AtomProperties(p23=1.0))

    def test_stacked_sweep_matches_single_points(self):
        # one stacked integral over every x: each value still within rtol
        atom = AtomProperties(e=1.5, m=0.7, p2par=0.4, p23=0.9)
        a = 2.0
        x = np.geomspace(1e-3, 1e6, 37)
        for rtol in (1e-8, 1e-5):
            es, kin = charge_sheet_energies(a, x, atom, rtol)
            assert es.shape == kin.shape == x.shape
            for i, value in enumerate(x):
                one = charge_sheet_energy(
                    a, SheetParameters(omega=value / a), atom, rtol)
                assert es[i] == one[0]
                assert kin[i] == pytest.approx(one[1], rel=rtol)

    def test_stacked_sweep_runs_in_chunks(self, monkeypatch):
        calls = []
        original = polder.integrate_exponential_weight

        def counted(f, spec):
            calls.append(f)
            return original(f, spec)

        monkeypatch.setattr(polder, "integrate_exponential_weight", counted)
        monkeypatch.setattr(polder, "_CHARGE_CHUNK", 4)
        atom = AtomProperties(p2par=0.4, p23=0.9)
        x = np.geomspace(1e-2, 1e3, 10)
        _, kin = charge_sheet_energies(1.5, x, atom, 1e-8)
        assert len(calls) == 3
        for value, got in zip(x, kin):
            one = charge_sheet_energy(
                1.5, SheetParameters(omega=value / 1.5), atom, 1e-8)
            assert got == pytest.approx(one[1], rel=1e-8)

    def test_stacked_sweep_rejects_negative_coupling(self):
        with pytest.raises(ValueError,
                           match="omega must be finite and nonnegative"):
            charge_sheet_energies(1.0, np.array([1.0, -0.5]),
                                  AtomProperties(p23=1.0))

    def test_stacked_sweep_rejects_transparent_point(self):
        with pytest.raises(ValueError, match="diverges"):
            charge_sheet_energies(1.0, np.array([1.0, 0.0]),
                                  AtomProperties(p23=1.0))


class TestCasimirPolder:
    def test_ideal_isotropic_coefficient(self):
        atom = AtomProperties.isotropic(1.0)
        a = 1.0
        energy = casimir_polder_energy(a, SheetParameters(omega=1e6), atom)
        braces = -energy * 32.0 * math.pi**2 * a**4
        assert braces == pytest.approx(IDEAL_SHEET_CP_COEFFICIENT, rel=1e-3)
        ratio = braces / BULK_CONDUCTOR_CP_COEFFICIENT
        assert abs(ratio - 13.0 / 15.0) < 0.001

    def test_zero_polarizability(self):
        atom = AtomProperties()
        assert casimir_polder_energy(1.0, SheetParameters(omega=3.0), atom) == 0.0

    def test_transparent_sheet(self):
        atom = AtomProperties.isotropic(1.0)
        assert casimir_polder_energy(1.0, SheetParameters(omega=0.0), atom) == 0.0

    def test_normal_polarizability_only(self):
        atom = AtomProperties(alpha3=2.0)
        a, omega = 1.3, 0.9
        energy = casimir_polder_energy(a, SheetParameters(omega=omega), atom)
        expected = -g_3(omega * a) * 2.0 / (32.0 * math.pi**2 * a**4)
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_in_plane_polarizability_only(self):
        atom = AtomProperties(alpha1=1.0, alpha2=3.0)
        energy = casimir_polder_energy(1.0, SheetParameters(omega=1.0), atom)
        expected = -(g_te(1.0) + 2.2 * g_tm(1.0)) / (32.0 * math.pi**2)
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_attractive_and_deepens_with_coupling(self):
        atom = AtomProperties.isotropic(1.0)
        values = [casimir_polder_energy(1.0, SheetParameters(omega=w), atom)
                  for w in (0.5, 1.0, 2.0, 4.0)]
        assert all(v < 0.0 for v in values)
        for weak, strong in zip(values, values[1:]):
            assert abs(strong) > abs(weak)

    def test_extreme_distance_raises_no_arithmetic_error(self):
        atom = AtomProperties.isotropic(1.0)
        unit = casimir_polder_energy(1.0, SheetParameters(omega=1.0), atom)
        # the same x = 1: the energy scales as a^-4
        far = casimir_polder_energy(1e100, SheetParameters(omega=1e-100), atom)
        assert far == 0.0
        near = casimir_polder_energy(1e-70, SheetParameters(omega=1e70), atom)
        assert near == pytest.approx(unit * 1e280, rel=1e-12)
        with pytest.raises(ValueError, match="beyond the float range"):
            casimir_polder_energy(1e-100, SheetParameters(omega=1e100), atom)

    def test_scale_collapse(self):
        atom = AtomProperties.isotropic(1.0)
        near = casimir_polder_energy(2.0, SheetParameters(omega=1.0), atom)
        far = casimir_polder_energy(1.0, SheetParameters(omega=2.0), atom)
        assert near * 16.0 == pytest.approx(far, rel=1e-8)


@pytest.mark.parametrize("energy", [delta1, delta1_integral_form,
                                    casimir_polder_energy, charge_sheet_energy])
def test_overflowing_coupling_names_x(energy):
    # a and Omega are finite, their product x = Omega a is not
    atom = AtomProperties.isotropic(1.0, p2par=0.4, p23=0.9)
    with pytest.raises(ValueError, match="x = Omega \\* a must be finite"):
        energy(1e200, SheetParameters(omega=1e200), atom)


# x = 10^(k/4) over [1e-6, 1e12], the whole coupling range
LATTICE = np.array([10.0 ** (k / 4) for k in range(-24, 49)])


class TestSweeps:
    def test_columns_have_the_bits_of_float_calls(self):
        # each x is one element of every pass, whatever its neighbours
        columns = reduction_function_columns(LATTICE)
        (closed, check) = polder._g_family(LATTICE, 1e-8)
        for i, x in enumerate(LATTICE.tolist()):
            bundle = reduction_functions(x)
            assert [column[i] for column in columns] == [
                getattr(bundle, name) for name in polder._SHAPE_NAMES], x
            assert polder._g_family(x, 1e-8) == (
                tuple(route[i] for route in closed),
                tuple(route[i] for route in check)), x

    def test_passes_take_one_chunk_each(self, monkeypatch):
        sizes = []
        original = polder._g_family

        def counted(x, rtol):
            sizes.append(len(x))
            return original(x, rtol)

        monkeypatch.setattr(polder, "_g_family", counted)
        monkeypatch.setattr(polder, "_SWEEP_CHUNK", 4)
        reduction_function_columns(LATTICE[:10], names=("gTM",))
        assert sizes == [4, 4, 2]

    @pytest.mark.parametrize("atom", [AtomProperties.isotropic(1.0),
                                      AtomProperties(alpha3=2.0),
                                      AtomProperties()])
    def test_energies_have_the_bits_of_float_calls(self, atom):
        x = np.concatenate(([0.0], LATTICE[::6]))
        energies = casimir_polder_energies(1.5, x, atom)
        assert energies.shape == x.shape
        for value, energy in zip(x.tolist(), energies.tolist()):
            sheet = SheetParameters(omega=value / 1.5)
            assert energy == casimir_polder_energy(1.5, sheet, atom), value

    @pytest.mark.parametrize("x, message", [
        ([1.0, -0.5], "omega must be finite and nonnegative"),
        ([1.0, math.nan], "omega must be finite and nonnegative"),
        ([1.0, math.inf], "x = Omega \\* a must be finite"),
    ])
    def test_energies_reject_bad_couplings(self, x, message):
        with pytest.raises(ValueError, match=message):
            casimir_polder_energies(1.0, np.array(x),
                                    AtomProperties.isotropic(1.0))

    def test_empty_sweeps_give_empty_arrays(self):
        columns = reduction_function_columns(np.array([]))
        assert [column.shape for column in columns] == [(0,)] * 7
        energies = casimir_polder_energies(1.0, np.array([]),
                                           AtomProperties.isotropic(1.0))
        assert energies.shape == (0,)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_columns_reject_bad_couplings(self, x):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            reduction_function_columns(np.array([1.0, x]))
