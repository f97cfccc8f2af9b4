import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from plasmasheet import polder
from plasmasheet.cli import main
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
    """G_n(c) = Int k^n e^-k/(1 + k/c) dk = n! c e^c E_(n+1)(c), taken at
    v = 1/c: G_0 and G_1 for the f and h families, G_3 for the g check
    route."""

    @staticmethod
    def _reference(n, v):
        with mpmath.workdps(40):
            c = 1 / mpmath.mpf(v)
            return float(math.factorial(n) * c * mpmath.exp(c)
                         * mpmath.expint(n + 1, c))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matches_mpmath(self, n):
        # the whole range, and both sides of the switch from the E_1 series
        # to the continued fraction at c = 2
        c = np.concatenate((np.geomspace(1e-8, 1e16, 97),
                            np.linspace(1.5, 2.5, 21),
                            [np.nextafter(2.0, 0.0)]))
        got = polder._k_moment(n, 1.0 / c)
        for value, v in zip(got.tolist(), (1.0 / c).tolist()):
            want = self._reference(n, v)
            assert abs(value - want) <= 1e-13 * want, (n, 1.0 / v)

    def test_limits(self):
        # G_n ~ (n - 1)! c (G_0 ~ c ln(1/c)) as c -> 0, G_n -> n! as
        # c -> inf, and G_n = n! at v = 1/c = 0
        v = np.array([1e12, 1e-18, 0.0])
        small, large, limit = polder._k_moment(0, v)
        assert small == pytest.approx(1e-12 * (math.log(1e12) - np.euler_gamma),
                                      rel=1e-11)
        assert large == pytest.approx(1.0, rel=1e-16) and limit == 1.0
        for n, slope in ((1, 1.0), (3, 2.0)):
            small, large, limit = polder._k_moment(n, v)
            assert small == pytest.approx(slope * 1e-12, rel=1e-11)
            assert large == pytest.approx(math.factorial(n), rel=1e-16)
            assert limit == math.factorial(n)


class TestClosedShapeFunctions:
    """f_TE, h_par and f_TM against mpmath (ROADMAP item 9)."""

    # x = 10^(k/4) over [1e-6, 1e12], the whole coupling range
    LATTICE = 10.0 ** (np.arange(-24, 49) / 4)

    def test_f_te_and_h_parallel_match_the_e_n_forms(self):
        te, h_par = f_te(self.LATTICE), h_parallel(self.LATTICE)
        with mpmath.workdps(40):
            for x, got_te, got_h in zip(self.LATTICE.tolist(), te.tolist(),
                                        h_par.tolist()):
                xm = mpmath.mpf(x)
                scaled = xm * mpmath.exp(xm)
                want_te = float(scaled * mpmath.expint(2, xm))
                want_h = float(2 + 1 / xm - scaled * mpmath.e1(xm))
                assert abs(got_te - want_te) <= 1e-13 * want_te, x
                assert abs(got_h - want_h) <= 1e-13 * want_h, x

    def test_f_tm_matches_the_k_integral(self):
        # 3x Int e^-k (1 - arctan(sqrt b)/sqrt b) dk, b = k/x, by mpmath
        # quadrature: the angle in closed form, the k integral numerically
        xs = 10.0 ** (1.5 * np.arange(-4, 9))
        got = f_tm(xs)
        with mpmath.workdps(30):
            for x, value in zip(xs.tolist(), got.tolist()):
                xm = mpmath.mpf(x)

                def integrand(k):
                    rb = mpmath.sqrt(k / xm)
                    return mpmath.exp(-k) * (1 - mpmath.atan(rb) / rb)

                points = [mpmath.mpf(p) for p in sorted({0, x, 1, 10, 40})
                          if p < 60] + [mpmath.inf]
                want = float(3 * xm * mpmath.quad(integrand, points))
                assert abs(value - want) <= 1e-13 * want, x

    def test_f_and_h_take_no_log_k_rule(self, monkeypatch):
        # f_te, h_parallel and the charge energies make no quadrature call;
        # f_tm makes one Gauss-Legendre call and no log-k call
        def broken(*args, **kwargs):
            raise AssertionError("quadrature called")

        legendre = polder.integrate_legendre
        calls = []

        def counted(*args):
            calls.append(args)
            return legendre(*args)

        monkeypatch.setattr(polder, "integrate_exponential_weight", broken)
        monkeypatch.setattr(polder, "integrate_legendre", broken)
        x = np.array([1e-6, 1.0, 1e12])
        assert np.all(f_te(x) > 0.0) and np.all(h_parallel(x) > 1.0)
        assert f_te(1.0) > 0.0 and h_parallel(1.0) > 1.0
        atom = AtomProperties(p2par=1.0, p23=1.0)
        _, kinetic = charge_sheet_energies(1.0, x, atom)
        assert np.all(kinetic < 0.0)
        monkeypatch.setattr(polder, "integrate_legendre", counted)
        f_tm(x)
        assert len(calls) == 1

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 5.5e-309])
    def test_below_the_reciprocal_range(self, x):
        # 1/x is beyond the float range: f takes its limit, h raises
        assert f_te(x) == x and f_tm(x) == 3.0 * x
        assert f_te(np.array([x, 1.0]))[0] == x
        assert f_tm(np.array([x, 1.0]))[0] == 3.0 * x
        for fn in (h_parallel, h_3):
            with pytest.raises(ValueError, match="beyond the float range"):
                fn(x)
            with pytest.raises(ValueError, match="beyond the float range"):
                fn(np.array([1.0, x]))

    @pytest.mark.parametrize("x", [1e-300, 6e-309, 1e300, 1.7e308])
    def test_extreme_coupling_gives_a_value(self, x):
        assert f_te(x) == pytest.approx(x if x < 1.0 else 1.0, rel=1e-13)
        assert f_tm(x) == pytest.approx(3.0 * x if x < 1.0 else 1.0,
                                        rel=1e-8)
        assert h_parallel(x) == pytest.approx(1.0 / x if x < 1.0 else 1.0,
                                              rel=1e-13)
        assert h_3(x) == 1.0 + 1.0 / x

    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-160])
    def test_g_below_the_square_range(self, x):
        # b = k/x reaches 800/x, whose square overflows below x = 6e-152;
        # the closed angular factors, formed in v = 1/b, stay finite. gTE ~
        # x/3, and gTM and g3 ~ sqrt(x) times their values at x = 1e-150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            te, tm, g3 = g_te(x), g_tm(x), g_3(x)
        scale = math.sqrt(x / 1e-150)
        assert te == pytest.approx(x / 3.0, rel=1e-12)
        assert tm == pytest.approx(g_tm(1e-150) * scale, rel=1e-13)
        assert g3 == pytest.approx(g_3(1e-150) * scale, rel=1e-13)

    def test_g_angular_matches_the_eps_integrals(self):
        # A_TM = 2 F_2 - 2 F_1 + F_0 and A_3 = F_0 - F_1, with
        # F_n = Int_0^1 eps^2n/(1 + eps^2 b) deps = 2F1(1, n + 1/2;
        # n + 3/2; -b)/(2n + 1) (DLMF 15.6.1), on both sides of the switch
        # to the power series at b = 0.5 and up to b = 1e300
        b = np.concatenate((np.geomspace(1e-6, 1e300, 61),
                            [0.4, 0.49, np.nextafter(0.5, 0.0), 0.5,
                             np.nextafter(0.5, 1.0), 0.51, 0.6]))
        got = polder._g_angular(b)
        with mpmath.workdps(40):
            for i, value in enumerate(b.tolist()):
                f0, f1, f2 = (mpmath.hyp2f1(1, n + 0.5, n + 1.5, -value)
                              / (2 * n + 1) for n in range(3))
                for row, want in enumerate((float(2 * f2 - 2 * f1 + f0),
                                            float(f0 - f1))):
                    assert abs(got[row, i] - want) <= 4e-15 * want, (value, row)

    def test_g_te_matches_the_e_4_form(self):
        # g_TE = G_3(x)/6 = x e^x E_4(x)
        got = g_te(self.LATTICE)
        with mpmath.workdps(40):
            for x, value in zip(self.LATTICE.tolist(), got.tolist()):
                xm = mpmath.mpf(x)
                want = float(xm * mpmath.exp(xm) * mpmath.expint(4, xm))
                assert abs(value - want) <= 2e-12 * want, x

    def test_g_tm_and_g_3_match_the_k_integral(self):
        # (5/22) Int k^3 e^-k A_TM(b) dk and (1/4) Int k^3 e^-k A_3(b) dk,
        # b = k/x, by mpmath quadrature of the arctan forms in v = 1/b; the
        # working precision covers their cancellation at small b
        xs = 10.0 ** (1.5 * np.arange(-4, 9))
        _, tm, g3 = polder._g_family(xs, 1e-8)[0]
        with mpmath.workdps(50):
            for x, got_tm, got_3 in zip(xs.tolist(), tm.tolist(), g3.tolist()):
                xm = mpmath.mpf(x)

                def factors(k):
                    v = xm / k
                    ratio = mpmath.atan(mpmath.sqrt(k / xm)) * mpmath.sqrt(v)
                    return ((1 + 2 * v * (1 + v)) * ratio
                            - v * (mpmath.mpf(4) / 3 + 2 * v),
                            (1 + v) * ratio - v)

                points = [mpmath.mpf(p) for p in sorted({0, x, 1, 10, 40})
                          if p < 60] + [mpmath.inf]
                for row, scale, value in ((0, mpmath.mpf(5) / 22, got_tm),
                                          (1, mpmath.mpf(1) / 4, got_3)):
                    want = float(scale * mpmath.quad(
                        lambda k: k**3 * mpmath.exp(-k) * factors(k)[row],
                        points))
                    assert abs(value - want) <= 2e-12 * want, (x, row)

    @pytest.mark.parametrize("x", [1e-307, 1e-310, 5e-324])
    def test_g_below_the_log_k_range_raises(self, monkeypatch, x):
        # k/x overflows at k = 800: one ValueError before any quadrature,
        # for a float x and for an array that holds it
        def broken(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(polder, "integrate_exponential_weight", broken)
        monkeypatch.setattr(polder, "integrate_legendre", broken)
        pair = np.array([1.0, x])
        calls = [lambda: g_te(x), lambda: g_tm(x), lambda: g_3(x),
                 lambda: reduction_functions(x), lambda: g_te(pair),
                 lambda: g_tm(pair), lambda: reduction_function_columns(pair),
                 lambda: casimir_polder_energies(
                     1.0, pair, AtomProperties.isotropic(1.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="is below 800/DBL_MAX"):
                    call()


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

    @pytest.mark.parametrize("x", [1e-200, 1e-250, 1e-300, 1e-305])
    def test_routes_agree_down_to_the_log_k_floor(self, x):
        # c = k/x passes 1e205 on the nodes, where c sqrt(c) overflows
        sheet, atom = SheetParameters(omega=x), AtomProperties()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = delta1(1.0, sheet, atom)
            integral = delta1_integral_form(1.0, sheet, atom)
        assert abs(closed - integral) <= 1e-10 * abs(closed)

    def test_integral_form_refuses_x_below_the_log_k_floor(self):
        with pytest.raises(ValueError, match="below 800/DBL_MAX"):
            delta1_integral_form(1.0, SheetParameters(omega=1e-306),
                                 AtomProperties())


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
        # each x is evaluated alone: every cell has the bits of its point
        atom = AtomProperties(e=1.5, m=0.7, p2par=0.4, p23=0.9)
        a = 2.0
        x = np.geomspace(1e-3, 1e6, 37)
        es, kin = charge_sheet_energies(a, x, atom)
        assert es.shape == kin.shape == x.shape
        for i, value in enumerate(x):
            one = charge_sheet_energy(a, SheetParameters(omega=value / a),
                                      atom)
            assert es[i] == one[0]
            assert kin[i] == one[1]

    def test_stacked_sweep_rejects_negative_coupling(self):
        with pytest.raises(ValueError,
                           match="omega must be finite and nonnegative"):
            charge_sheet_energies(1.0, np.array([1.0, -0.5]),
                                  AtomProperties(p23=1.0))

    def test_stacked_sweep_rejects_transparent_point(self):
        with pytest.raises(ValueError, match="diverges"):
            charge_sheet_energies(1.0, np.array([1.0, 0.0]),
                                  AtomProperties(p23=1.0))

    def test_kinetic_of_a_tiny_mass_raises(self):
        # m^2 underflows at m = 1e-200: divide_by_power names the kinetic
        # energy before its division by m^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="e-201\\*\\*2 is beyond the float range"):
                charge_sheet_energies(1.0, np.array([1.0]),
                                      AtomProperties(p2par=1.0, m=1e-200))
        # where m^2 underflows but the energy is a float, it is exact for
        # powers of two: 1/(a m^2) = 2^800 at a = 2^400, m = 2^-600
        _, unit = charge_sheet_energies(1.0, np.array([1.0]),
                                        AtomProperties(p2par=1.0))
        _, light = charge_sheet_energies(2.0**400, np.array([1.0]),
                                         AtomProperties(p2par=1.0, m=2**-600))
        assert light[0] == unit[0] * 2.0**800

    def test_uncharged_kinetic_is_zero_where_the_momenta_overflow(self):
        # e = 0 with p2par h_par beyond the float range: +0.0, not 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, kinetic = charge_sheet_energies(
                1.0, np.array([1e-300, 1.0]), AtomProperties(e=0.0, p2par=1e10))
        assert kinetic.tolist() == [0.0, 0.0]
        assert np.all(np.copysign(1.0, kinetic) == 1.0)

    @pytest.mark.parametrize("e, p2par", [(1e-200, 1e10), (1e-150, 1e-200)])
    def test_kinetic_where_e_squared_underflows(self, e, p2par):
        # e^2 underflows while p2par h_par overflows, or while p2par does:
        # the kinetic energy is still the float it is, not 0 * inf or 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (kinetic,) = charge_sheet_energies(
                1.0, np.array([1e-300]), AtomProperties(e=e, p2par=p2par))
        with mpmath.workdps(40):
            x = mpmath.mpf(1e-300)
            h_par = 2 + 1 / x - x * mpmath.exp(x) * mpmath.e1(x)
            want = float(-mpmath.mpf(e)**2 * mpmath.mpf(p2par) / 2 * h_par
                         / (16 * mpmath.pi))
        assert kinetic == pytest.approx(want, rel=1e-14)

    def test_kinetic_beyond_the_float_range_raises(self, capsys):
        # p2par h_par/(16 pi), about 1e309, overflows at x = 1e-300:
        # divide_by_power names the kinetic energy times m^2, -inf, and no
        # numpy warning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="-inf / 1\\*\\*2 is beyond"):
                charge_sheet_energies(1.0, np.array([1.0, 1e-300]),
                                      AtomProperties(p2par=1e11))
            status = main(["charge", "--omega-a", "1e-300", "--p2par", "1e11"])
        out, err = capsys.readouterr()
        assert status == 1 and err == ""
        assert out.splitlines()[-1] == (
            "1e-300,nan,nan,ValueError: -inf / 1**2 is beyond the float range")


    def test_charge_whose_square_overflows_raises(self, capsys):
        # at e = 1e200 and a = 1 the energies, about 1e398, are beyond the
        # float range: a ValueError names the electrostatic energy where
        # the momenta are 0 (no 0 * inf is formed), and the kinetic energy
        # times m^2 where they are not, not an OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for atom, message in ((AtomProperties(e=1e200), "-inf / 1\\*\\*1"),
                                  (AtomProperties(e=1e200, p23=1.0),
                                   "-inf / 1\\*\\*2")):
                with pytest.raises(ValueError, match=message):
                    charge_sheet_energies(1.0, np.array([1.0]), atom)
            for route in (delta1, delta1_integral_form):
                with pytest.raises(ValueError, match="beyond the float range"):
                    route(1.0, SheetParameters(1.0), AtomProperties(e=1e200))
            with pytest.raises(ValueError, match="beyond the float range"):
                electrostatic_shift(1.0, AtomProperties(e=1e200))
            status = main(["charge", "--omega-a", "1", "--e", "1e200"])
        out, err = capsys.readouterr()
        assert status == 1 and err == ""
        assert out.splitlines()[-1] == (
            "1,nan,nan,ValueError: -inf / 1**1 is beyond the float range")

    def test_kinetic_energy_near_the_top_of_the_float_range(self, capsys):
        status = main(["charge", "--omega-a", "1", "--e", "10", "--p23",
                       "3.3e307"])
        out, _ = capsys.readouterr()
        assert status == 0
        assert out.splitlines()[-1] == (
            "1,-3.9788735772973833,-9.8477121038110245e+307,")


class TestChargeSquaredOutsideTheFloatRange:
    """Energies that go like e^2, at e = 1e-200 and 1e200, where e^2 leaves
    the float range and the energy does not: each is the float of its
    mpmath value, with e's power of two in divide_by_power's last step."""

    @staticmethod
    def close(got, want, rel):
        with mpmath.workdps(30):
            assert abs(mpmath.mpf(got) / want - 1) <= rel, (got, want)

    @pytest.mark.parametrize("e", [1e-200, 1e200])
    def test_electrostatic_shift_and_image_potential(self, e):
        # at a = e the shift is e/(8 pi); the mirror charge of a sheet at
        # a = e/2 is e away from the origin, so the potential is e/(4 pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift = electrostatic_shift(e, AtomProperties(e=e))
            image = image_potential(0.0, 0.0, 0.0, 0.5 * e, e)
        with mpmath.workdps(30):
            self.close(shift, mpmath.mpf(e) / (8 * mpmath.pi), 1e-15)
            self.close(image, mpmath.mpf(e) / (4 * mpmath.pi), 1e-15)

    @pytest.mark.parametrize("e", [1e-200, 1e200])
    @pytest.mark.parametrize("route", [delta1, delta1_integral_form])
    def test_delta1_routes(self, route, e):
        # m = e and Omega = a = 1: -(e^2/m)(f_TE(1) + f_TM(1)/3)/(32 pi^2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = route(1.0, SheetParameters(1.0), AtomProperties(e=e, m=e),
                        1e-12)
        with mpmath.workdps(30):
            braces = mpmath.mpf(F_TE_1) + mpmath.mpf(F_TM_1) / 3
            want = -mpmath.mpf(e) * braces / (32 * mpmath.pi**2)
            self.close(got, want, 1e-11)

    @pytest.mark.parametrize("e", [1e-200, 1e200])
    def test_charge_energies_and_command(self, e, capsys):
        # a = e, Omega a = 1, p2par = 1: the electrostatic part is
        # -e/(8 pi) and the kinetic part -e h_par(1)/(32 pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = charge_sheet_energy(e, SheetParameters(1.0 / e),
                                           AtomProperties(e=e, p2par=1.0))
            status = main(["charge", "--omega-a", "1", "--e", repr(e),
                           "--a", repr(e), "--p2par", "1"])
        out, err = capsys.readouterr()
        assert status == 0 and err == ""
        row = out.splitlines()[-1].split(",")
        assert row[-1] == ""
        with mpmath.workdps(30):
            wants = (-mpmath.mpf(e) / (8 * mpmath.pi),
                     -mpmath.mpf(e) * mpmath.mpf(H_PAR_1) / (32 * mpmath.pi))
            for got, cell, want in zip(energies, row[1:3], wants):
                self.close(got, want, 1e-15)
                self.close(float(cell), want, 1e-15)

    @pytest.mark.parametrize("x, atom", [
        (1.0, AtomProperties(e=1e-200, m=1e-200, p2par=1.0)),
        (1e-300, AtomProperties(m=1e10, p2par=1e11)),
    ])
    def test_kinetic_energy_whose_division_by_m_squared_brings_it_back(
            self, x, atom):
        # at a = 1, e^2 p2par h_par/(16 pi) under- or overflows, and the
        # kinetic energy, that over m^2, is a float all the same
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (kinetic,) = charge_sheet_energies(1.0, np.array([x]), atom)
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            h_par = 2 + 1 / xm - xm * mpmath.exp(xm) * mpmath.e1(xm)
            want = (-(mpmath.mpf(atom.e) / mpmath.mpf(atom.m))**2
                    * mpmath.mpf(atom.p2par) / 2 * h_par / (16 * mpmath.pi))
            self.close(kinetic, want, 1e-14)


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

    @pytest.mark.parametrize("alphas, a", [
        ((1e308, 1e308, 1e308), 1.0),       # alpha1 + alpha2 overflows
        ((1.7e308, 1.7e308, 0.0), 3.0),
        ((0.0, 0.0, 1.7e308), 0.7),
        ((1e300, 1e300, 1e-300), 1.0),      # parts 2^1993 apart
        ((3e-320, 3e-320, 3e-320), 1e-78),  # subnormal parts
        ((0.0, 5e-324, 0.0), 1e-80),
    ])
    def test_polarizabilities_on_the_float_range_match_mpmath(self, alphas, a):
        # the braces in mpmath from the package's own g values, so the test
        # reads the assembly of the energy alone
        atom = AtomProperties(alpha1=alphas[0],
                              alpha2=alphas[1], alpha3=alphas[2])
        sheet = SheetParameters(omega=1.0 / a)
        got = casimir_polder_energy(a, sheet, atom)
        x = sheet.omega * a
        with mpmath.workdps(40):
            te, tm, normal = (mpmath.mpf(g(x)) for g in (g_te, g_tm, g_3))
            a1, a2, a3 = (mpmath.mpf(alpha) for alpha in alphas)
            braces = (te + mpmath.mpf(11) / 5 * tm) * (a1 + a2) / 4 + normal * a3
            want = -braces / (32 * mpmath.pi**2 * mpmath.mpf(a)**4)
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_polarizability_energy_beyond_the_float_range(self):
        atom = AtomProperties.isotropic(1e308)
        with pytest.raises(ValueError, match="beyond the float range"):
            casimir_polder_energy(1e-3, SheetParameters(omega=1e3), atom)

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
