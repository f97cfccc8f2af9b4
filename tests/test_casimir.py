import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from plasmasheet import casimir, numerics
from plasmasheet.casimir import (
    IDEAL_REDUCED_ENERGY,
    IDEAL_REDUCED_PRESSURE,
    CasimirResult,
    casimir_result,
    lifshitz_energy_per_area,
    lifshitz_pressure,
    polarization_convention_equivalence,
    reduced_energy_and_pressure,
    reduced_energy_and_pressure_nested,
    reduced_energy_parts,
)
from plasmasheet.cli import main
from plasmasheet.errors import ToleranceNotMet
from plasmasheet.sheet import SheetParameters

# mpmath (dps=30) reference values for the reduced energy a^3 E/A at
# x = Omega a, split into TE and TM parts.
F1_TE = -0.000701448362361
F1_TM = -0.00317060360731
F1 = -0.00387205196967554
F10_TE = -0.00423830346117
F10_TM = -0.00582174605864
F10 = -0.0100600495198088
# C of the x -> 0 limit a^3 E_TM/A -> -C sqrt(x) (weak_coupling_constant)
WEAK_C = 0.00354375523383440856
# the linear coefficient of the small-x TE factor, and Euler's gamma
TE_LINEAR = (8.0 * math.log(2.0) - 2.0) / 3.0
EULER_GAMMA = 0.57721566490153286
# x = 10^(k/4), k in [-24, 48]: the x-lattice of the value ledger
LATTICE = np.array([10.0 ** (k / 4) for k in range(-24, 49)])

# mpmath (dps=30) reference values for the reduced pressure a^4 P at
# x = 1e-3, 1 and 1e6 (perfbench/refs.json, casimir k = -12, 0, 24).
P_FROZEN = {
    1e-3: -0.0002801605560774194,
    1.0: -0.009545207689747358,
    1e6: -0.04112313234812315,
}


def stencil_pressure(a, sheet, step_fraction=1e-3):
    """-dE/da by a five-point central difference, an oracle for the slope."""
    h = a * step_fraction
    em2, em1, ep1, ep2 = (lifshitz_energy_per_area(a + j * h, sheet)
                          for j in (-2, -1, 1, 2))
    return -(-ep2 + 8.0 * ep1 - 8.0 * em1 + em2) / (12.0 * h)


def count_kernel_passes(monkeypatch):
    passes = []
    kernel = casimir._energy_and_slope

    def counting(*args, **kwargs):
        passes.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(casimir, "_energy_and_slope", counting)
    return passes


class TestReducedEnergy:
    def test_frozen_value_x1(self):
        te, tm = reduced_energy_parts(1.0)
        assert abs(te - F1_TE) < 1e-6 * abs(F1_TE)
        assert abs(tm - F1_TM) < 1e-6 * abs(F1_TM)
        assert abs((te + tm) - F1) < 1e-6 * abs(F1)

    def test_frozen_value_x10(self):
        te, tm = reduced_energy_parts(10.0)
        assert abs(te - F10_TE) < 1e-6 * abs(F10_TE)
        assert abs(tm - F10_TM) < 1e-6 * abs(F10_TM)
        assert abs((te + tm) - F10) < 1e-6 * abs(F10)

    def test_strong_coupling_reaches_ideal_conductor(self):
        total = sum(reduced_energy_parts(1e5))
        assert abs(total - IDEAL_REDUCED_ENERGY) < 0.01 * abs(IDEAL_REDUCED_ENERGY)

    def test_monotone_in_coupling(self):
        # stronger sheets bind harder, but never beyond the ideal conductor
        values = [sum(reduced_energy_parts(x)) for x in (0.1, 1.0, 10.0, 100.0)]
        for weaker, stronger in zip(values, values[1:]):
            assert stronger < weaker < 0.0
        assert values[-1] > IDEAL_REDUCED_ENERGY

    def test_vanishes_as_coupling_goes_away(self):
        # the TM part dies off as sqrt(x), so a decade in x is a factor sqrt(10)
        small = sum(reduced_energy_parts(1e-3))
        larger = sum(reduced_energy_parts(1e-2))
        assert abs(small) < 0.01 * abs(IDEAL_REDUCED_ENERGY)
        assert larger / small == pytest.approx(math.sqrt(10.0), rel=0.01)

    def test_tm_dominates_at_weak_coupling(self):
        te, tm = reduced_energy_parts(1e-3)
        assert tm / (te + tm) > 0.9

    def test_looser_tolerance_stays_close(self):
        loose = sum(reduced_energy_parts(1.0, rtol=1e-6))
        assert abs(loose - F1) < 1e-5 * abs(F1)

    def test_rtol_drives_the_work(self, monkeypatch):
        calls = []
        log_terms = casimir._log_terms

        def counting(*args):
            calls.append(0)
            return log_terms(*args)

        monkeypatch.setattr(casimir, "_log_terms", counting)
        loose = casimir_result(1.0, SheetParameters(omega=1.0), rtol=1e-4)
        loose_calls = len(calls)
        calls.clear()
        casimir_result(1.0, SheetParameters(omega=1.0), rtol=1e-10)
        assert abs(loose.energy_per_area - F1) <= 1e-4 * abs(F1)
        assert abs(loose.pressure - P_FROZEN[1.0]) <= 1e-4 * abs(P_FROZEN[1.0])
        assert loose_calls < len(calls)

    def test_extreme_couplings_finite_negative_monotone(self, monkeypatch):
        def quad(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(scipy.integrate, "quad", quad)
        xs = [10.0 ** (k / 4) for k in range(-24, 49)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [casimir_result(1.0, SheetParameters(omega=x)) for x in xs]
        energies = np.array([r.energy_per_area for r in results])
        pressures = np.array([r.pressure for r in results])
        assert np.all(np.isfinite(energies)) and np.all(np.isfinite(pressures))
        assert np.all(energies < 0.0) and np.all(pressures < 0.0)
        assert np.all(np.diff(energies) < 0.0) and np.all(np.diff(pressures) < 0.0)

    @pytest.mark.parametrize("x", [1e-3, 1.0, 1e3, 1e6])
    def test_log_k_nodes_per_x_are_pinned(self, monkeypatch, x):
        # the 1-d pass: nodes and integrand calls of its one log-k rule,
        # pinned exactly, and no Gauss-Legendre rule at all
        total = {1e-3: 139, 1.0: 118, 1e3: 111, 1e6: 111}[x]
        calls = []
        original = casimir.integrate_exponential_weight

        def counted(f, spec, *params, nodes=None):
            def f_counted(k, *rows):
                calls.append(k.size)
                return f(k, *rows)

            return original(f_counted, spec, *params, nodes=nodes)

        def no_inner_rule(*args, **kwargs):
            raise AssertionError("Gauss-Legendre rule called")

        monkeypatch.setattr(casimir, "integrate_exponential_weight", counted)
        monkeypatch.setattr(casimir, "integrate_legendre", no_inner_rule)
        casimir._energy_and_slope(x, 1e-8)
        assert (sum(calls), len(calls)) == (total, 4)

    @pytest.mark.parametrize("x", [1e-3, 1.0, 1e3, 1e6])
    def test_inner_nodes_per_x_are_pinned(self, monkeypatch, x):
        # the check route: nodes of the inner TM Gauss-Legendre rule over
        # all outer nodes, pinned exactly; deterministic, and 35,952, 16,368
        # and 15,408 when every level of the outer rule spanned all of k in
        # [1e-20, 800]. The integrand calls are pinned exactly too: 4 of the
        # log-k rule at every x, and those of the inner rule per x below,
        # whose first call takes its first two orders together.
        total = {1e-3: 15568, 1.0: 5792, 1e3: 5328, 1e6: 5328}[x]
        inner_calls = {1e-3: 8, 1.0: 5, 1e3: 4, 1e6: 4}[x]
        nodes, outer_calls = [], []
        original = casimir.integrate_legendre
        original_outer = casimir.integrate_exponential_weight

        def counted(f, hi, spec, *params):
            def f_counted(t, *rows):
                nodes.append(t.size)
                return f(t, *rows)

            return original(f_counted, hi, spec, *params)

        def outer_counted(f, spec, *params, nodes=None):
            def f_counted(k, *rows):
                outer_calls.append(k.size)
                return f(k, *rows)

            return original_outer(f_counted, spec, *params, nodes=nodes)

        monkeypatch.setattr(casimir, "integrate_legendre", counted)
        monkeypatch.setattr(casimir, "integrate_exponential_weight",
                            outer_counted)
        casimir._nested_energy_and_slope(x, 1e-8)
        assert sum(nodes) == total
        assert (len(outer_calls), len(nodes)) == (4, inner_calls)
        first = sum(nodes)
        nodes.clear()
        casimir._nested_energy_and_slope(x, 1e-8)
        assert sum(nodes) == first

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="x = Omega \\* a must be"):
            reduced_energy_and_pressure(x)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            reduced_energy_parts(0.0)
        with pytest.raises(ValueError):
            reduced_energy_parts(-1.0)

    def test_both_coefficients_come_from_c(self, monkeypatch):
        # on the check route, TE (k a row of nodes) and TM (k a column, one
        # per inner element) both get r = 1/(1 + c) of the c they are
        # handed, to the bit
        seen = {"te": 0, "tm": 0}
        log_terms = casimir._log_terms

        def checked(k, c, r, out):
            assert np.array_equal(r, 1.0 / (1.0 + c))
            seen["tm" if k.shape[-1] == 1 else "te"] += 1
            return log_terms(k, c, r, out)

        monkeypatch.setattr(casimir, "_log_terms", checked)
        reduced_energy_and_pressure_nested(np.array([1e-3, 1.0, 1e6]))
        assert seen["te"] > 0 and seen["tm"] > 0

    def test_log_terms_where_c_r_rounds_to_one(self):
        # c r rounds to 1 at c = 1e17 and 1e300: ln r is -log1p(c) there,
        # not log1p(-1) = -inf
        k = np.array([1.0, 1.0, 1.0])
        c = np.array([1e10, 1e17, 1e300])
        r = 1.0 / (1.0 + c)
        out = np.empty((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            casimir._log_terms(k, c, r, out)
        energy, slope = out
        # w = r^2 e^-k is tiny, so e^k ln(1 - w) = -r^2 (1 + w/2) and the
        # slope is -2 r^2 (1 - r)/(1 - w)
        assert energy.tolist() == pytest.approx((-r * r).tolist(), rel=1e-15)
        assert slope.tolist() == pytest.approx((-2.0 * r * r).tolist(),
                                               rel=1e-9)

    @pytest.mark.parametrize("x", ["1e-14", "1e-20", "1e-300"])
    def test_tiny_coupling_gives_its_row_without_a_warning(self, capsys, x):
        # below about 1e-13, where the check route's inner rule cannot
        # reach its tolerance, the row is the weak-coupling limit: F is
        # -C sqrt(x), and the TE share is at most x^(3/2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["casimir", "--omega-a", x])
        out, err = capsys.readouterr()
        assert status == 0 and err == ""
        cells = out.splitlines()[-1].split(",")
        energy, te_share, tm_share = (float(cell) for cell in cells[1:4])
        assert cells[4] == ""
        assert energy == pytest.approx(-WEAK_C * math.sqrt(float(x)),
                                       rel=1e-11)
        assert 0.0 <= te_share <= float(x) ** 1.5 and tm_share == 1.0

    def test_check_route_misses_its_tolerance_at_tiny_coupling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceNotMet, match="Gauss-Legendre"):
                reduced_energy_and_pressure_nested(1e-14)

    @pytest.mark.parametrize("x", [1e-307, 1e-310, 5e-324])
    def test_below_the_log_k_range_raises(self, monkeypatch, x):
        # c = k/x overflows at k = 800: one ValueError before any
        # quadrature, for a float x and for an array that holds it
        def broken(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(casimir, "integrate_exponential_weight", broken)
        monkeypatch.setattr(casimir, "integrate_legendre", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (x, np.array([1.0, x])):
                with pytest.raises(ValueError, match="is below 800/DBL_MAX"):
                    reduced_energy_and_pressure(arg)
            # a subnormal Omega is refused, so x = Omega a is reached by
            # a normal Omega and a distance scaled by the same power of 2
            with pytest.raises(ValueError, match="is below 800/DBL_MAX"):
                casimir_result(x * 2.0**60, SheetParameters(omega=2.0**-60))

class TestSweeps:
    def test_array_has_the_bits_of_float_calls(self):
        # x = 10^(k/4) over [1e-3, 1e6]; each x is one element of its pass
        x = np.array([10.0 ** (k / 4) for k in range(-12, 25)])
        columns = reduced_energy_and_pressure(x)
        for i, value in enumerate(x.tolist()):
            assert tuple(column[i] for column in columns) == (
                reduced_energy_and_pressure(value)), value

    def test_empty_array_gives_empty_arrays(self):
        te, tm, pressure = reduced_energy_and_pressure(np.array([]))
        assert te.shape == tm.shape == pressure.shape == (0,)

    @pytest.mark.parametrize("x, message", [
        ([1.0, 0.0], "must be positive"), ([1.0, -2.0], "must be positive"),
        ([1.0, math.nan], "must be positive"), ([1.0, math.inf], "finite")])
    def test_array_rejects_bad_couplings(self, x, message):
        with pytest.raises(ValueError, match=message):
            reduced_energy_and_pressure(np.array(x))


class TestCheckRoute:
    """The 1-d pass against the nested pass, on the lattice at rtol 1e-13."""

    def test_routes_agree(self):
        one = np.array(reduced_energy_and_pressure(LATTICE, 1e-13))
        nested = np.array(reduced_energy_and_pressure_nested(LATTICE, 1e-13))
        assert np.all(np.abs(one - nested) <= 1e-11 * np.abs(nested))

    def test_tm_slope_is_half_of_tm_minus_te(self):
        # x TM' = (TM - TE)/2 against the check route's integrated slope
        # x F', less the TE slope integrated on its own. x TM' itself falls
        # like 1/x while TM - TE cancels, so the gap is bounded by |TM|.
        def te_slope(k, x):
            c = k / x
            out = np.empty((2,) + c.shape)
            casimir._log_terms(k, c, 1.0 / (1.0 + c), out)
            return out[1] * (k * k)

        te, tm, slope = casimir._nested_energy_and_slope(LATTICE, 1e-13)
        tm_slope = slope - casimir._pass(te_slope, LATTICE, 1e-13)
        assert np.all(np.abs(tm_slope - 0.5 * (tm - te)) <= 1e-13 * np.abs(tm))

    @pytest.mark.parametrize("x", [1e304, 1e305, 1.7e308])
    def test_routes_agree_near_the_top_of_the_float_range(self, x):
        # c = k/x underflows to 0 at the smallest nodes, where the check
        # route's TM node is its TE node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nested = reduced_energy_and_pressure_nested(x)
            gap = polarization_convention_equivalence(
                1.0, SheetParameters(x))
        one = reduced_energy_and_pressure(x)
        assert all(abs(a - b) <= 1e-11 * abs(b) for a, b in zip(nested, one))
        assert gap <= 1e-13


class TestNodeTables:
    """The k-only factors of the 1-d pass, built once per log-k level."""

    def test_cold_and_warm_tables_give_the_same_bits(self):
        numerics._node_table.cache_clear()
        cold = repr(casimir._energy_and_slope(LATTICE, 1e-8))
        assert repr(casimir._energy_and_slope(LATTICE, 1e-8)) == cold
        for x in LATTICE.tolist():
            numerics._node_table.cache_clear()
            cold = repr(casimir._energy_and_slope(x, 1e-8))
            assert repr(casimir._energy_and_slope(x, 1e-8)) == cold, x

    def test_factors_of_a_slice_are_the_slice_of_the_table(self):
        # each column depends on its node alone, so no value depends on
        # which pass built a table
        for level in range(4):
            k = numerics._log_k_level(40, level)[0]
            table = numerics._node_table(casimir._node_factors, 40, level)
            for a, b in ((0, k.size), (3, k.size - 5), (k.size - 9, k.size)):
                assert np.array_equal(casimir._node_factors(k[a:b]),
                                      table[:, a:b])

    def test_one_table_per_level_reached_and_no_miss_on_a_second_pass(self):
        # x = 1 takes 4 integrand calls, levels 0 to 3
        numerics._node_table.cache_clear()
        casimir._energy_and_slope(1.0, 1e-8)
        first = numerics._node_table.cache_info()
        assert first.misses == first.currsize == 4
        casimir._energy_and_slope(1.0, 1e-8)
        assert numerics._node_table.cache_info().misses == first.misses


class TestEnergyPerArea:
    def test_scaling_collapses_to_single_curve(self):
        # a^3 E depends on Omega and a only through the product Omega a
        e_one = lifshitz_energy_per_area(2.0, SheetParameters(omega=1.0))
        e_two = lifshitz_energy_per_area(1.0, SheetParameters(omega=2.0))
        assert abs(e_one * 8.0 - e_two) < 1e-12 * abs(e_two)

    def test_scaling_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = float(rng.uniform(0.2, 20.0))
            a1 = float(rng.uniform(0.1, 5.0))
            a2 = float(rng.uniform(0.1, 5.0))
            e1 = lifshitz_energy_per_area(a1, SheetParameters(omega=x / a1))
            e2 = lifshitz_energy_per_area(a2, SheetParameters(omega=x / a2))
            assert abs(e1 * a1**3 - e2 * a2**3) < 1e-10 * abs(e2 * a2**3)

    def test_transparent_sheet_costs_nothing(self):
        assert lifshitz_energy_per_area(1.0, SheetParameters(omega=0.0)) == 0.0

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            lifshitz_energy_per_area(0.0, SheetParameters(omega=1.0))

    @pytest.mark.parametrize("quantity", [
        casimir_result, lifshitz_energy_per_area, lifshitz_pressure,
        polarization_convention_equivalence])
    def test_nan_distance_is_named(self, quantity):
        with pytest.raises(ValueError, match="distance must be positive"):
            quantity(math.nan, SheetParameters(omega=1.0))

    def test_below_the_float_range_raises(self):
        # x = 1 at a = 1e120: E a^3 is ordinary, E underflows
        sheet = SheetParameters(omega=1e-120)
        for quantity in (lifshitz_energy_per_area, lifshitz_pressure):
            with pytest.raises(ValueError, match="below the float range"):
                quantity(1e120, sheet)


class TestPressure:
    def test_matches_secant_slope(self):
        sheet = SheetParameters(omega=10.0)
        a = 1.0
        p = lifshitz_pressure(a, sheet)
        h = 1e-4
        secant = -(lifshitz_energy_per_area(a + h, sheet)
                   - lifshitz_energy_per_area(a - h, sheet)) / (2.0 * h)
        assert abs(p - secant) < 1e-4 * abs(p)

    def test_ideal_conductor_value(self):
        p = lifshitz_pressure(1.0, SheetParameters(omega=1e5))
        assert abs(p - IDEAL_REDUCED_PRESSURE) < 0.01 * abs(IDEAL_REDUCED_PRESSURE)

    def test_attractive_and_stronger_when_closer(self):
        sheet = SheetParameters(omega=3.0)
        near = lifshitz_pressure(0.5, sheet)
        far = lifshitz_pressure(1.0, sheet)
        assert near < far < 0.0

    def test_transparent_sheet(self):
        assert lifshitz_pressure(2.0, SheetParameters(omega=0.0)) == 0.0

    @pytest.mark.parametrize("x", sorted(P_FROZEN))
    def test_frozen_mpmath_values(self, x):
        p = lifshitz_pressure(1.0, SheetParameters(omega=x))
        assert abs(p - P_FROZEN[x]) <= 1e-10 * abs(P_FROZEN[x])

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 1e3])
    def test_matches_five_point_stencil(self, x):
        sheet = SheetParameters(omega=x)
        p = lifshitz_pressure(1.0, sheet)
        assert abs(p - stencil_pressure(1.0, sheet)) <= 1e-8 * abs(p)


@pytest.fixture(scope="module")
def weak_coupling_constant():
    """C of the x -> 0 limit a^3 E_TM/A -> -C sqrt(x), summed by mpmath.

    From ln(1 - w) = -sum_n w^n/n and Int_0^inf (1 + u^2)^(-m) du
    = sqrt(pi) Gamma(m - 1/2)/(2 Gamma(m)):
    C = Gamma(5/2) (sqrt(pi)/2)/(32 pi^2) sum_n n^(-7/2) Gamma(2n - 1/2)/Gamma(2n).
    """
    with mpmath.workdps(20):
        total = mpmath.nsum(lambda n: n ** mpmath.mpf(-3.5)
                            * mpmath.gamma(2 * n - 0.5) / mpmath.gamma(2 * n),
                            [1, mpmath.inf])
        return float(mpmath.gamma(2.5) * mpmath.sqrt(mpmath.pi)
                     / (64 * mpmath.pi**2) * total)


class TestAsymptotes:
    """Both ends of x against closed leading terms, at rtol 1e-10, and the
    next small-x terms of the casimir module docstring at rtol 1e-13.

    Each bound states the size of the next term.
    """

    def test_weak_coupling_constant(self, weak_coupling_constant):
        assert weak_coupling_constant == pytest.approx(0.0035437552338344084,
                                                       rel=1e-15)

    @pytest.mark.parametrize("x", [1e-6, 1e-5])
    def test_tm_goes_like_root_x(self, weak_coupling_constant, x):
        # next term O(x^(3/2)) relative: -3.0e-10 at 1e-6, -9.4e-9 at 1e-5
        _, tm, _ = reduced_energy_and_pressure(x, 1e-10)
        gap = tm / (-weak_coupling_constant * math.sqrt(x)) - 1.0
        assert abs(gap) <= 0.5 * x**1.5

    def test_te_goes_like_x_squared(self):
        # next term -2x (ln(1/x) - Euler gamma) relative, from
        # Int e^-k (k/(k + x))^2 dk: -2.5e-5 at x = 1e-6
        x = 1e-6
        te, _, _ = reduced_energy_and_pressure(x, 1e-10)
        gap = te / (-x * x / (32.0 * math.pi**2)) - 1.0
        assert abs(gap) <= 3.0 * x * math.log(1.0 / x)

    @pytest.mark.parametrize("x", [1e-5, 1e-6])
    def test_tm_second_term(self, weak_coupling_constant, x):
        # TM + C sqrt(x) = x^2/(96 pi^2) (1 + t) with
        # t = (3x/5)(2 gamma + (8 ln 2 - 2)/3 - 4/5 - 2 ln(1/x)) + O(x^2 ln^2 x):
        # 1 + t is 0.99987 at 1e-5 and 0.999985 at 1e-6, where one ulp of
        # TM is 4e-7 of x^2/(96 pi^2)
        _, tm, _ = reduced_energy_and_pressure(x, 1e-13)
        t = (tm + weak_coupling_constant * math.sqrt(x)) \
            / (x * x / (96.0 * math.pi**2)) - 1.0
        want = 0.6 * x * (2.0 * EULER_GAMMA + TE_LINEAR - 0.8
                          - 2.0 * math.log(1.0 / x))
        assert abs(t) <= 2.0 * x * math.log(1.0 / x)
        assert abs(t - want) <= 0.1 * abs(want)

    @pytest.mark.parametrize("x", [1e-5, 1e-6])
    def test_te_linear_term(self, x):
        # TE = -(x^2/32 pi^2)(1 - 2x (ln(1/x) - gamma) + (8 ln 2 - 2) x/3
        # + O(x^2 ln^2 x)): the linear coefficient comes out 1.18128 at
        # 1e-5 and 1.18167 at 1e-6, against 1.181726
        te, _, _ = reduced_energy_and_pressure(x, 1e-13)
        factor = te / (-x * x / (32.0 * math.pi**2))
        linear = (factor - 1.0 + 2.0 * x * (math.log(1.0 / x) - EULER_GAMMA)) / x
        assert abs(linear - TE_LINEAR) <= x * math.log(1.0 / x) ** 2

    def test_pressure_to_energy_ratio_tends_to_five_halves(self):
        # a^4 P = 3F - xF' is 5/2 of the TM part and 1 of the TE part, whose
        # share of F is about x^(3/2): 2.4999999991 at x = 1e-6
        x = 1e-6
        te, tm, pressure = reduced_energy_and_pressure(x, 1e-10)
        assert abs(pressure / (te + tm) - 2.5) <= 2.0 * x**1.5

    @pytest.mark.parametrize("x", [1e6, 1e7, 1e8])
    def test_strong_coupling_first_correction(self, x):
        # F = -pi^2/720 + pi^2/(180 x) + O(x^-2): the gap is -5.3e-6,
        # -5.3e-7 and -3.3e-8 at x = 1e6, 1e7 and 1e8
        te, tm, _ = reduced_energy_and_pressure(x, 1e-10)
        gap = (te + tm - IDEAL_REDUCED_ENERGY) * 180.0 * x / math.pi**2 - 1.0
        assert abs(gap) <= 10.0 / x


class TestCasimirResult:
    def test_bundles_consistent_fields(self):
        sheet = SheetParameters(omega=10.0)
        res = casimir_result(1.0, sheet)
        assert res.energy_per_area == pytest.approx(
            lifshitz_energy_per_area(1.0, sheet), rel=1e-12)
        assert res.pressure == pytest.approx(
            lifshitz_pressure(1.0, sheet), rel=1e-12)
        assert res.energy_per_area < 0.0
        assert res.pressure < 0.0

    def test_shares_sum_to_one_and_tm_wins(self):
        for x in (0.1, 1.0, 10.0, 100.0):
            res = casimir_result(1.0, SheetParameters(omega=x))
            assert res.te_share + res.tm_share == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < res.te_share < res.tm_share < 1.0

    def test_one_kernel_pass(self, monkeypatch):
        passes = count_kernel_passes(monkeypatch)
        casimir_result(0.5, SheetParameters(omega=3.0))
        assert len(passes) == 1

    @pytest.mark.parametrize("extra", [[], ["--raw-units"]])
    @pytest.mark.parametrize("chunk, sizes", [(None, [7]), (3, [3, 3, 1])])
    def test_cli_makes_one_kernel_pass_per_chunk(self, monkeypatch, capsys,
                                                 extra, chunk, sizes):
        # one kernel call for the sweep, which makes one outer log-k pass
        # per chunk of couplings
        passes = count_kernel_passes(monkeypatch)
        chunks = []
        original = casimir.integrate_exponential_weight

        def counted(f, spec, *params, nodes=None):
            chunks.append(len(params[0]))
            return original(f, spec, *params, nodes=nodes)

        monkeypatch.setattr(casimir, "integrate_exponential_weight", counted)
        if chunk is not None:
            monkeypatch.setattr(casimir, "_SWEEP_CHUNK", chunk)
        status = main(["casimir", "--omega-a-min", "0.1", "--omega-a-max", "100",
                       "--count", "7", "--scale", "log", "--a", "2"] + extra)
        assert status == 0
        assert len(passes) == 1
        assert chunks == sizes
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 8

    def test_cli_raw_row_matches_casimir_result(self, capsys):
        status = main(["casimir", "--omega-a-min", "0.1", "--omega-a-max", "100",
                       "--count", "3", "--scale", "log", "--a", "2",
                       "--raw-units"])
        assert status == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line and not line.startswith("#")]
        for line in lines[1:]:
            x, a3_energy, te_share, tm_share, energy, pressure = (
                float(cell) for cell in line.split(",")[:6])
            res = casimir_result(2.0, SheetParameters(omega=x / 2.0))
            assert a3_energy == pytest.approx(res.energy_per_area * 8.0, rel=1e-12)
            assert (te_share, tm_share) == pytest.approx(
                (res.te_share, res.tm_share), rel=1e-12)
            assert energy == pytest.approx(res.energy_per_area, rel=1e-12)
            assert pressure == pytest.approx(res.pressure, rel=1e-12)

    def test_reduced_energy_and_pressure_matches_parts(self):
        te, tm, pressure = reduced_energy_and_pressure(10.0)
        assert (te, tm) == reduced_energy_parts(10.0)
        assert pressure == lifshitz_pressure(1.0, SheetParameters(omega=10.0))

    @pytest.mark.parametrize("extra", [[], ["--raw-units"]])
    def test_cli_zero_coupling_row_is_an_error(self, capsys, extra):
        status = main(["casimir", "--omega-a-min", "0", "--omega-a-max", "1",
                       "--count", "2"] + extra)
        assert status == 1
        assert "x = Omega * a must be positive" in capsys.readouterr().out

    def test_beyond_the_float_range_raises(self):
        # x = 1 at a = 1e-300: a**3 alone would underflow to 0
        with pytest.raises(ValueError, match="beyond the float range"):
            casimir_result(1e-300, SheetParameters(omega=1e300))

    def test_overflowing_coupling_names_x(self):
        # a and Omega are finite, their product is not
        with pytest.raises(ValueError, match="x = Omega \\* a must be finite"):
            casimir_result(1e200, SheetParameters(omega=1e200))

    def test_extreme_distance_inside_the_float_range(self):
        res = casimir_result(1e-70, SheetParameters(omega=1e70))
        unit = casimir_result(1.0, SheetParameters(omega=1.0))
        assert res.energy_per_area == pytest.approx(
            unit.energy_per_area * 1e210, rel=1e-14)
        assert res.pressure == pytest.approx(unit.pressure * 1e280, rel=1e-14)
        assert res.te_share == unit.te_share

    def test_transparent_sheet_convention(self):
        res = casimir_result(1.0, SheetParameters(omega=0.0))
        assert res.energy_per_area == 0.0
        assert res.pressure == 0.0
        assert (res.te_share, res.tm_share) == (0.0, 1.0)

    def test_validation_rejects_repulsive(self):
        with pytest.raises(ValueError):
            CasimirResult(distance=1.0, omega=1.0, energy_per_area=0.1,
                          pressure=-0.1, te_share=0.4, tm_share=0.6)

    def test_validation_rejects_bad_shares(self):
        with pytest.raises(ValueError):
            CasimirResult(distance=1.0, omega=1.0, energy_per_area=-0.1,
                          pressure=-0.1, te_share=0.4, tm_share=0.7)


class TestPinnedBits:
    """repr of the outputs at rtol 1e-8. The TE parts have kept their bits
    since the inner rule went to blocks and the kernel to in-place
    arithmetic. TM and the pressure moved by at most 1.7e-15 when the TM
    angle went to its closed form and the TM slope to x TM' = (TM - TE)/2,
    and by at most 1e-15 when that closed form replaced the series in e^-k
    above k = 2; the check route, reduced_energy_and_pressure_nested, keeps
    the bits they had before either (the value ledger holds both routes on
    the x-lattice). mpmath gives the pressures as P_FROZEN."""

    @pytest.mark.parametrize("x, want", [
        (1e-3, "(-3.129858068780507e-09, -0.000112062332449815, "
               "-0.00028016055607741925)"),
        (0.1, "(-2.1699049640518638e-05, -0.0011124620387074943, "
              "-0.0028191242198661393)"),
        (1.0, "(-0.0007014483623611077, -0.0031706036073140317, "
              "-0.00954520768974619)"),
        (10.0, "(-0.00423830346117283, -0.005821746058635548, "
               "-0.02770889038104688)"),
        (1e3, "(-0.0068130103016865815, -0.00684023259298254, "
              "-0.04090547603230186)"),
        (1e6, "(-0.006853850822082819, -0.006853878237455971, "
              "-0.0411231323480647)"),
    ])
    def test_energy_and_pressure(self, x, want):
        assert repr(reduced_energy_and_pressure(x)) == want

    def test_convention_equivalence(self):
        got = polarization_convention_equivalence(1.0, SheetParameters(1.0))
        assert repr(got) == "1.1200285336836204e-16"


# 60-digit mpmath values of TM and a^4 P at x = Omega a, the TM part as the
# 1-d k-integral of the closed angle. With N = 1/(32 pi^2), c = k/x,
# r = 1/(1 + c), w = e^-k r^2, L = ln(1 - w), S = sqrt(c) and
# b+- = sqrt(1 +- e^(-k/2)):
#   TE = N Int k^2 L dk,  x TE' = N Int k^2 (-2 w (1 - r)/(1 - w)) dk,
#   TM = N Int k^2 (L + (2/S) (b+ atan(S/b+) + b- atan(S/b-) - 2 atan S)) dk,
#   P = 3 (TE + TM) - x TE' - (TM - TE)/2,
# with L = log1p(-w) for w < 1/2 and ln((-expm1(-k) + c (2 + c))/(1 + c)^2)
# above, each by mpmath.quad over k in [0, 300] (the rest is below e^-290),
# split at x/100, x/10, x, 10x, 100x (those below 400) and 0.5, 1, 2, 4, ...,
# 128, 200, 300. At dps 80 and at dps 100 (maxdegree 10 and 12) the values
# agree to 62 digits.
TM_AND_P_60 = {
    1e-3: ("-1.12062332449815049818437065546842614505732417584722557669740e-4",
          "-2.80160556077419395493071853703928003323520944177396903733229e-4"),
    0.1: ("-1.11246203870749856810838710458141102154851476279086412516279e-3",
          "-2.81912421986616104792301183058118789658170603279585268100294e-3"),
    1.0: ("-3.17060360731423644273027539436053157596614110809511194917617e-3",
          "-9.54520768974735844248939099591046845881030721175109362103715e-3"),
    10.0: ("-5.82174605863576006511988875063671884903737968440678823782559e-3",
          "-2.77088903810481389244417073624054845928155696969803234786907e-2"),
    1e3: ("-6.84023259299228129974140439969088093226108231755163367061912e-3",
          "-4.09054760323602961418364264659251732206271788296889310668314e-2"),
    1e6: ("-6.85387823746571094916730122005472697186567210731866429327555e-3",
          "-4.11231323481231463554469431689498225394857491939090518161598e-2"),
}


@pytest.mark.parametrize("x", sorted(TM_AND_P_60))
def test_tm_and_pressure_at_the_tolerance_floor(x):
    # at rtol 1e-14 the 1-d pass is within 2e-15 of mpmath, a few eps: on
    # a numpy whose SIMD arctan or exp is less accurate this may fail, and
    # CI prints numpy.show_runtime() to name it
    _, tm, p = reduced_energy_and_pressure(x, 1e-14)
    for got, want in zip((tm, p), TM_AND_P_60[x]):
        assert abs(got - float(want)) <= 2e-15 * abs(float(want))


class TestConventionEquivalence:
    def test_rewritten_coefficients_change_nothing(self):
        for a, omega in ((1.0, 1.0), (0.5, 20.0), (2.0, 0.3)):
            diff = polarization_convention_equivalence(a, SheetParameters(omega=omega))
            assert diff <= 1e-12

    def test_transparent_sheet(self):
        assert polarization_convention_equivalence(1.0, SheetParameters(omega=0.0)) == 0.0
