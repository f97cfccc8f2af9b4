"""Quadrature, root finding and Bessel functions against independent oracles."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from plasmasheet import numerics
from plasmasheet.errors import BracketError, IterationLimitError, ToleranceNotMet

# Enough headroom that h = j + i y survives the e^(2|Im z|) cancellation for
# every argument probed below.
mpmath.mp.dps = 120

TIGHT = numerics.QuadratureSpec(kind="exponential-weight", rtol=1e-10)


def mp_spherical_j(l, z):
    z = mpmath.mpc(z)
    return complex(mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(l + mpmath.mpf(1) / 2, z))


def mp_spherical_h1(l, z):
    z = mpmath.mpc(z)
    front = mpmath.sqrt(mpmath.pi / (2 * z))
    jj = mpmath.besselj(l + mpmath.mpf(1) / 2, z)
    yy = mpmath.bessely(l + mpmath.mpf(1) / 2, z)
    return complex(front * (jj + 1j * yy))


class TestExponentialWeight:
    def test_moments_are_factorials(self):
        for n in range(9):
            val = numerics.integrate_exponential_weight(lambda k, n=n: k**n)
            assert abs(val - math.factorial(n)) <= 1e-10 * math.factorial(n)

    def test_rational_integrand_frozen_oracle(self):
        # mpmath, 30 digits: 0.40365263767680592566
        val = numerics.integrate_exponential_weight(lambda k: k / (1.0 + k), TIGHT)
        assert abs(val - 0.40365263767680593) < 1e-12

    def test_pole_near_origin(self):
        # pole at k = -x with x = 1e-4, close to the origin on the scale of
        # the e^-k weight. Oracle: x*(1 - x e^x E1(x)).
        x = 1e-4
        val = numerics.integrate_exponential_weight(lambda k: k / (1.0 + k / x), TIGHT)
        exact = float(x * (1 - x * mpmath.e**x * mpmath.e1(x)))
        assert abs(val - exact) < 1e-10 * exact

    def test_sqrt_behavior_at_origin(self):
        val = numerics.integrate_exponential_weight(np.sqrt, TIGHT)
        assert abs(val - math.sqrt(math.pi) / 2) < 1e-9

    def test_one_array_call_per_level_on_new_nodes(self):
        seen = []

        def f(k):
            seen.append(np.array(k))
            return k / (1.0 + k)

        numerics.integrate_exponential_weight(f, TIGHT)
        nodes = np.concatenate(seen)
        assert len(seen) >= 3
        assert all(k.ndim == 1 for k in seen)
        assert len(seen[1]) == TIGHT.order
        assert all(len(b) == 2 * len(a) for a, b in zip(seen[1:], seen[2:]))
        assert len(np.unique(nodes)) == len(nodes)

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 1e3, 1e12])
    def test_pole_near_origin_at_every_scale(self, x):
        # the rule must not depend on where the pole at k = -x sits
        val = numerics.integrate_exponential_weight(lambda k: k / (1.0 + k / x), TIGHT)
        with mpmath.workdps(40):
            exact = float(x * (1 - x * mpmath.e**x * mpmath.e1(x)))
        assert abs(val - exact) < 1e-10 * exact

    def test_stacked_integrands_share_nodes(self):
        calls = []

        def f(k):
            calls.append(0)
            return np.stack((k / (1.0 + k), k**3))

        both = numerics.integrate_exponential_weight(f, TIGHT)
        assert both.shape == (2,)
        assert abs(both[0] - 0.40365263767680593) < 1e-12
        assert abs(both[1] - 6.0) <= 1e-10 * 6.0
        assert len(calls) >= 3

    def test_levels_that_never_agree_raise(self):
        # a step in the integrand limits the trapezoid rule to O(h)
        with pytest.raises(ToleranceNotMet) as info:
            numerics.integrate_exponential_weight(
                lambda k: np.where(k > 1.0, 1.0, 0.0), TIGHT)
        assert abs(info.value.estimate - math.exp(-1.0)) < 1e-2
        assert info.value.error_bound > 1e-10 * math.exp(-1.0)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            numerics.QuadratureSpec(kind="nope")
        with pytest.raises(ValueError):
            numerics.QuadratureSpec(order=1)
        with pytest.raises(ValueError):
            numerics.QuadratureSpec(rtol=1e-2)
        with pytest.raises(ValueError):
            numerics.QuadratureSpec(rtol=0.0)


class TestLegendre:
    def test_array_of_upper_limits(self):
        hi = np.array([1e-12, 0.3, 2.0, 11.0])
        val = numerics.integrate_legendre(np.cos, hi)
        assert np.all(np.abs(val - np.sin(hi)) <= 1e-14 * np.abs(np.sin(hi)) + 1e-16)

    def test_order_doubles_until_agreement(self):
        orders = []

        def f(t):
            orders.append(t.shape[-1])
            return np.exp(-t) / (1.0 + t * t)

        spec = numerics.QuadratureSpec(kind="gauss-legendre", order=4, rtol=1e-12)
        numerics.integrate_legendre(f, 3.0, spec)
        assert orders[:3] == [4, 8, 16]
        assert all(b == 2 * a for a, b in zip(orders, orders[1:]))

    def test_kink_never_agrees(self):
        spec = numerics.QuadratureSpec(kind="gauss-legendre", rtol=1e-12)
        with pytest.raises(ToleranceNotMet):
            numerics.integrate_legendre(lambda t: np.abs(t - 0.5), 1.0, spec)


class TestAdaptive:
    def test_polynomial(self):
        assert abs(numerics.integrate_adaptive(lambda x: x * x, 0.0, 1.0) - 1 / 3) < 1e-12

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            numerics.integrate_adaptive(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            numerics.integrate_adaptive(lambda x: x, 0.0, math.inf)

    def test_full_result_reports_subdivisions(self):
        val, err, nsub = numerics.integrate_adaptive(
            lambda x: math.sin(40 * x), 0.0, 3.0, full_result=True)
        exact = (1 - math.cos(120.0)) / 40.0
        assert abs(val - exact) < 1e-10
        assert err < 1e-8
        assert 1 <= nsub <= 250

    def test_tightening_tolerance_never_hurts(self):
        # against a 10x tighter reference, per the module contract
        f = lambda x: math.sqrt(x) * math.sin(20 * x)
        ref = numerics.integrate_adaptive(
            f, 0.0, 2.0, numerics.QuadratureSpec(rtol=1e-12))
        last = None
        for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            err = abs(numerics.integrate_adaptive(
                f, 0.0, 2.0, numerics.QuadratureSpec(rtol=rtol)) - ref)
            if last is not None:
                assert err <= last + 1e-15
            last = err


class TestSemiInfinite:
    def test_exponential(self):
        val = numerics.integrate_semi_infinite(lambda k: math.exp(-k))
        assert abs(val - 1.0) < 1e-10

    def test_scaled_gaussian(self):
        val = numerics.integrate_semi_infinite(lambda k: k * math.exp(-k * k), scale=1.0)
        assert abs(val - 0.5) < 1e-10

    def test_slow_decay_with_scale(self):
        # Int_0^inf dk / (1+k)^3 = 1/2
        val = numerics.integrate_semi_infinite(lambda k: (1.0 + k) ** -3, scale=2.0)
        assert abs(val - 0.5) < 1e-10


class TestRootFinding:
    def test_sqrt3(self):
        root = numerics.find_root_bracketed(lambda x: x * x - 3.0, 0.0, 2.0)
        assert abs(root - math.sqrt(3)) < 1e-14

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            numerics.find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert numerics.find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            numerics.find_root_bracketed(lambda x: x, 1.0, -1.0)

    def test_array_brackets_with_endpoint_roots(self):
        targets = np.array([0.0, 3.0, 4.0])
        root = numerics.find_root_bracketed(lambda x: x * x - targets,
                                            np.zeros(3), 2.0)
        assert isinstance(root, np.ndarray) and root.shape == (3,)
        assert root[0] == 0.0 and root[2] == 2.0
        assert abs(root[1] - math.sqrt(3)) < 1e-14

    def test_array_element_without_sign_change(self):
        targets = np.array([3.0, -1.0])
        with pytest.raises(BracketError, match=r"\[0\.0, 2\.0\]"):
            numerics.find_root_bracketed(lambda x: x * x - targets,
                                         np.zeros(2), 2.0)

    def test_iteration_limit(self):
        with pytest.raises(IterationLimitError, match="3 iterations"):
            numerics.find_root_bracketed(lambda x: x * x - 3.0, 0.0, 2.0,
                                         maxiter=3)

    def test_residual_contract(self):
        # dispersion-style equation with disparate scales
        omega, kpar = 1.0, 1e3
        f = lambda k0: k0 * k0 - 0.5 * omega * math.sqrt(kpar * kpar - k0 * k0)
        root = numerics.find_root_bracketed(f, 0.0, kpar)
        assert abs(f(root)) <= 1e-10 * omega * kpar


class TestSphericalBessel:
    def test_j0_at_pi(self):
        assert abs(numerics.spherical_bessel_j(0, math.pi)) < 1e-14

    def test_real_argument_gives_float(self):
        val = numerics.spherical_bessel_j(3, 2.7)
        assert isinstance(val, float)
        assert abs(val - mp_spherical_j(3, 2.7).real) < 1e-14

    def test_h0_closed_form(self):
        z = 1.0
        expect = -1j * cmath.exp(1j * z) / z
        assert abs(numerics.spherical_hankel1(0, z) - expect) < 1e-15

    def test_j_against_series_oracle(self):
        for l in (0, 1, 2, 5, 10, 23, 50):
            for z in (0.1, 1.0, 5.3, 20.0, 49.5, 3 + 4j, 0.1 + 0.1j, 25j, 2 + 40j):
                got = complex(numerics.spherical_bessel_j(l, z))
                want = mp_spherical_j(l, z)
                scale = max(abs(want), 1e-280)
                assert abs(got - want) / scale < 1e-12, (l, z)

    def test_h_against_series_oracle(self):
        for l in (0, 1, 2, 5, 10, 23, 50):
            for z in (0.1, 1.0, 5.3, 20.0, 49.5, 3 + 4j, 0.1 + 0.1j, 25j, 2 + 40j):
                got = numerics.spherical_hankel1(l, z)
                want = mp_spherical_h1(l, z)
                assert abs(got - want) / abs(want) < 1e-12, (l, z)

    def test_wronskian_identity(self):
        # rj * rhp - rjp * rh = i across the stability domain
        rng = [0.1, 0.7, 2.7, 5.0, 13.0, 27.0, 50.0]
        args = [0.0, 0.3, 0.8, 1.3, math.pi / 2]
        for l in range(11):
            for r in rng:
                for th in args:
                    z = r * cmath.exp(1j * th)
                    if th == 0.0:
                        z = r  # exercise the real-argument path too
                    rj, rjp, rh, rhp = numerics.riccati_bessel(l, z)
                    assert abs(rj * rhp - rjp * rh - 1j) < 1e-10, (l, z)

    def test_riccati_at_example_point(self):
        rj, rjp, rh, rhp = numerics.riccati_bessel(3, 2.7)
        assert abs(rj - 2.7 * mp_spherical_j(3, 2.7)) < 1e-13
        assert abs(rh - 2.7 * mp_spherical_h1(3, 2.7)) < 1e-13

    def test_regular_origin(self):
        assert numerics.spherical_bessel_j(0, 0.0) == 1.0
        assert numerics.spherical_bessel_j(4, 0.0) == 0.0

    def test_singular_origin(self):
        with pytest.raises(ValueError):
            numerics.spherical_hankel1(0, 0.0)
        with pytest.raises(ValueError):
            numerics.riccati_bessel(2, 0.0)

    def test_l_limits(self):
        with pytest.raises(ValueError):
            numerics.spherical_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            numerics.spherical_bessel_j(1.5, 1.0)
        # no upper limit on the order
        val = numerics.spherical_bessel_j(60, 30.0)
        assert abs(val - mp_spherical_j(60, 30.0).real) < 1e-13


class TestSphericalBesselArrays:
    """Real ndarray arguments go to scipy.special in one call."""

    Z = np.array([0.1, 1.0, 5.3, 20.0, 49.5])

    def test_against_series_oracle(self):
        for l in (0, 1, 2, 5, 10, 23, 50):
            j = numerics.spherical_bessel_j(l, self.Z)
            h = numerics.spherical_hankel1(l, self.Z)
            rj, _, rh, _ = numerics.riccati_bessel(l, self.Z)
            for i, z in enumerate(self.Z):
                want_j, want_h = mp_spherical_j(l, z), mp_spherical_h1(l, z)
                assert abs(j[i] - want_j) <= 1e-13 * abs(want_j), (l, z)
                assert abs(h[i] - want_h) <= 1e-13 * abs(want_h), (l, z)
                assert abs(rh[i] - z * want_h) <= 1e-13 * abs(z * want_h)
                assert abs(rj[i] - z * want_j) <= 1e-13 * abs(z * want_j)

    def test_wronskian_and_scalar_route(self):
        z = np.geomspace(0.05, 50.0, 40)
        for l in (0, 1, 3, 12, 40):
            rj, rjp, rh, rhp = numerics.riccati_bessel(l, z)
            assert np.all(np.abs(rj * rhp - rjp * rh - 1j) < 1e-10), l
            for i in range(0, len(z), 7):
                scalar = numerics.riccati_bessel(l, float(z[i]))
                for got, want in zip((rj, rjp, rh, rhp), scalar):
                    assert abs(got[i] - want) <= 1e-12 * max(abs(want), 1.0)

    def test_regular_and_singular_origin(self):
        z = np.array([0.0, 1.0])
        assert numerics.spherical_bessel_j(0, z)[0] == 1.0
        assert numerics.spherical_bessel_j(3, z)[0] == 0.0
        zc = np.array([0j, 1.0 + 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in (0, 3):
                j = numerics.spherical_bessel_j(l, zc)
                assert j[0] == (1.0 if l == 0 else 0.0)
                assert j[1] == numerics.spherical_bessel_j(l, zc[1:])[0]
        with pytest.raises(ValueError):
            numerics.spherical_hankel1(1, z)
        with pytest.raises(ValueError):
            numerics.riccati_bessel(1, z)

    def test_complex_array_matches_scalar_calls(self):
        # same formulas; numpy's exp may round an array and a scalar apart
        # in the last bit
        z = np.array([1.0 + 1j, 2.0 + 0j, -3.0 + 0.5j, 25j, 2 + 40j, 0.1 - 0.2j])
        for l in (0, 1, 4, 23):
            arrays = ((numerics.spherical_bessel_j(l, z),)
                      + (numerics.spherical_hankel1(l, z),)
                      + numerics.riccati_bessel(l, z))
            for i, point in enumerate(z.tolist()):
                scalars = ((numerics.spherical_bessel_j(l, point),)
                           + (numerics.spherical_hankel1(l, point),)
                           + numerics.riccati_bessel(l, point))
                for array, scalar in zip(arrays, scalars):
                    assert abs(array[i] - scalar) <= 4e-16 * abs(scalar), (l, point)
