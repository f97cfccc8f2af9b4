import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from plasmasheet import casimir
from plasmasheet.casimir import (
    IDEAL_REDUCED_ENERGY,
    IDEAL_REDUCED_PRESSURE,
    CasimirResult,
    casimir_result,
    lifshitz_energy_per_area,
    lifshitz_pressure,
    polarization_convention_equivalence,
    reduced_energy_and_pressure,
    reduced_energy_parts,
)
from plasmasheet.cli import main
from plasmasheet.sheet import SheetParameters

# mpmath (dps=30) reference values for the reduced energy a^3 E/A at
# x = Omega a, split into TE and TM parts.
F1_TE = -0.000701448362361
F1_TM = -0.00317060360731
F1 = -0.00387205196967554
F10_TE = -0.00423830346117
F10_TM = -0.00582174605864
F10 = -0.0100600495198088

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
    def test_inner_nodes_per_x_are_pinned(self, monkeypatch, x):
        # nodes of the inner TM Gauss-Legendre rule over all outer nodes,
        # pinned exactly; deterministic, and 35,952, 16,368 and 15,408 when
        # every level of the outer rule spanned all of k in [1e-20, 800].
        # The integrand calls are pinned exactly too: 4 of the log-k rule at
        # every x, and those of the inner rule per x below, whose first call
        # takes its first two orders together.
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

        def outer_counted(f, spec, *params):
            def f_counted(k, *rows):
                outer_calls.append(k.size)
                return f(k, *rows)

            return original_outer(f_counted, spec, *params)

        monkeypatch.setattr(casimir, "integrate_legendre", counted)
        monkeypatch.setattr(casimir, "integrate_exponential_weight",
                            outer_counted)
        casimir._energy_and_slope(x, 1e-8)
        assert sum(nodes) == total
        assert (len(outer_calls), len(nodes)) == (4, inner_calls)
        first = sum(nodes)
        nodes.clear()
        casimir._energy_and_slope(x, 1e-8)
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
    """Both ends of x against closed leading terms, at rtol 1e-10.

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

        def counted(f, spec, *params):
            chunks.append(len(params[0]))
            return original(f, spec, *params)

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
    """repr of the outputs at rtol 1e-8, as they were before the inner rule
    went to blocks and the kernel to in-place arithmetic: same bits."""

    @pytest.mark.parametrize("x, want", [
        (1e-3, "(-3.129858068780507e-09, -0.00011206233244981518, "
               "-0.0002801605560774197)"),
        (0.1, "(-2.1699049640518638e-05, -0.0011124620387074934, "
              "-0.002819124219866137)"),
        (1.0, "(-0.0007014483623611077, -0.0031706036073140295, "
              "-0.009545207689746184)"),
        (10.0, "(-0.00423830346117283, -0.005821746058635544, "
               "-0.02770889038104687)"),
        (1e3, "(-0.0068130103016865815, -0.0068402325929825415, "
              "-0.04090547603230186)"),
        (1e6, "(-0.006853850822082819, -0.006853878237455969, "
              "-0.041123132348064695)"),
    ])
    def test_energy_and_pressure(self, x, want):
        assert repr(reduced_energy_and_pressure(x)) == want

    def test_convention_equivalence(self):
        got = polarization_convention_equivalence(1.0, SheetParameters(1.0))
        assert repr(got) == "1.1200285336836204e-16"


class TestConventionEquivalence:
    def test_rewritten_coefficients_change_nothing(self):
        for a, omega in ((1.0, 1.0), (0.5, 20.0), (2.0, 0.3)):
            diff = polarization_convention_equivalence(a, SheetParameters(omega=omega))
            assert diff <= 1e-12

    def test_transparent_sheet(self):
        assert polarization_convention_equivalence(1.0, SheetParameters(omega=0.0)) == 0.0
