"""Quadrature, root finding and Bessel functions against independent oracles."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from plasmasheet import numerics
from plasmasheet.errors import BracketError, ToleranceNotMet

# Enough headroom that h = j + i y survives the e^(2|Im z|) cancellation for
# every argument probed below.
mpmath.mp.dps = 120

TIGHT = numerics.QuadratureSpec(rtol=1e-10)


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
        assert len(seen) >= 3
        assert all(k.ndim == 1 for k in seen)
        # level 0 samples the whole range
        k0, w0 = numerics._log_k_level(TIGHT.order, 0)
        assert np.array_equal(seen[0], k0)
        # level 1: the level-0 midpoints (in ln k) of one run of steps
        mid = np.sqrt(k0[:-1] * k0[1:])
        lo = int(np.argmin(np.abs(mid - seen[1][0])))
        hi = lo + len(seen[1])
        np.testing.assert_allclose(seen[1], mid[lo:hi], rtol=1e-14)
        assert 0 < lo and hi < TIGHT.order
        assert all(len(b) == 2 * len(a) for a, b in zip(seen[1:], seen[2:]))
        nodes = np.concatenate(seen)
        assert len(np.unique(nodes)) == len(nodes)
        # every later node lies inside the support [k0[lo], k0[hi]]
        assert nodes[len(k0):].min() > k0[lo]
        assert nodes[len(k0):].max() < k0[hi]
        # the level-0 nodes outside it are negligible
        terms = w0 * k0 / (1.0 + k0)
        outside = np.r_[terms[:lo], terms[hi + 1:]]
        assert np.all(np.abs(outside) <= numerics._TAIL_FRACTION * TIGHT.rtol
                      * abs(terms.sum()))

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 1.0, 1e3, 1e12])
    @pytest.mark.parametrize("n", range(9))
    def test_rational_moments_against_mpmath(self, n, x):
        # Int_0^inf e^-k k^n/(1 + k/x) dk = x n! x^n e^x Gamma(-n, x)
        val = numerics.integrate_exponential_weight(
            lambda k: k**n / (1.0 + k / x), TIGHT)
        xm = mpmath.mpf(x)
        exact = float(xm * mpmath.factorial(n) * xm**n * mpmath.e**xm
                      * mpmath.gammainc(-n, xm))
        assert abs(val - exact) <= TIGHT.rtol * exact

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
            numerics.QuadratureSpec(order=1)
        with pytest.raises(ValueError):
            numerics.QuadratureSpec(rtol=1e-2)
        with pytest.raises(ValueError):
            numerics.QuadratureSpec(rtol=0.0)


# Elements (x, c) of the log-k rule: the pole at k = -x sets the support,
# the oscillation cos(c k) the stopping level.
ELEMENTS = [(1e-6, 0.0), (1.0, 1.0), (1e3, 10.0), (1e12, 0.0)]
ELEMENT_PARAMS = tuple(np.array(ELEMENTS).T[:, :, None])


def oscillating_pair(k, x, c):
    """Two integrands on the same nodes, for a float or a column of (x, c)."""
    wave = np.cos(c * k) / (1.0 + k / x)
    return np.stack((k * wave, np.sqrt(k) * wave))


def solo_log_k(x, c):
    """The log-k rule on the element (x, c) alone, and the nodes of each call."""
    seen = []

    def f(k):
        seen.append(k.copy())
        return oscillating_pair(k, x, c)

    return numerics.integrate_exponential_weight(f, TIGHT), seen


class TestExponentialWeightElements:
    def test_each_element_equals_its_solo_call(self):
        got = numerics.integrate_exponential_weight(oscillating_pair, TIGHT,
                                                    *ELEMENT_PARAMS)
        assert got.shape == (2, len(ELEMENTS))
        solos = [solo_log_k(*element) for element in ELEMENTS]
        for i, (want, _) in enumerate(solos):
            assert got[:, i].tobytes() == want.tobytes(), ELEMENTS[i]
        # the neighbours refine different supports to different levels
        assert len({len(seen) for _, seen in solos}) > 1
        assert len({(seen[1][0], seen[1][-1]) for _, seen in solos}) > 1

    def test_f_gets_only_the_elements_still_refining(self):
        calls = []

        def f(k, x, c):
            calls.append((k.copy(), list(zip(x[:, 0].tolist(),
                                             c[:, 0].tolist()))))
            return oscillating_pair(k, x, c)

        numerics.integrate_exponential_weight(f, TIGHT, *ELEMENT_PARAMS)
        solos = [solo_log_k(*element)[1] for element in ELEMENTS]
        assert len(calls) == max(map(len, solos))
        for level, (k, rows) in enumerate(calls):
            refining = [seen[level] for seen in solos if len(seen) > level]
            assert rows == [element for element, seen in zip(ELEMENTS, solos)
                            if len(seen) > level]
            # one call on the new midpoints of the refining supports
            assert np.array_equal(k, np.unique(np.concatenate(refining)))

    def test_estimate_carries_every_element(self):
        # element 1 has a step, which the trapezoid rule resolves to O(h)
        def step(k):
            return np.where(k > 1.0, 1.0, 0.0)

        def f(k, stepped):
            return np.where(stepped, step(k), k / (1.0 + k))

        with pytest.raises(ToleranceNotMet) as info:
            numerics.integrate_exponential_weight(
                f, TIGHT, np.array([[False], [True], [False]]))
        with pytest.raises(ToleranceNotMet) as alone:
            numerics.integrate_exponential_weight(step, TIGHT)
        smooth = numerics.integrate_exponential_weight(
            lambda k: k / (1.0 + k), TIGHT)
        estimate = info.value.estimate
        assert estimate.shape == (3,)
        assert estimate.tolist() == [smooth, alone.value.estimate, smooth]
        assert info.value.error_bound == alone.value.error_bound


def legendre_reference(f, hi, spec, *params):
    """integrate_legendre one element at a time, one integrand call per order.

    Returns (values, error_bound): error_bound is None when every element
    converged, else the largest last gap of those that did not, and values
    then holds each element's latest value.
    """
    values, gaps = [], []
    for i in range(hi.size):
        lim, rows = hi[i:i + 1], [param[i:i + 1] for param in params]
        prev, gap, order = None, math.inf, spec.order
        while order <= numerics._LEGENDRE_MAX_ORDER:
            nodes, weights = numerics._legendre_rule(order)
            cur = np.sum(weights * f(lim[:, None] * nodes, *rows),
                         axis=-1) * lim
            if prev is not None:
                diff = np.abs(cur - prev)
                if np.all(diff <= spec.rtol * np.abs(cur) + numerics._ABS_FLOOR):
                    values.append(cur)
                    break
                gap = float(np.max(diff))
            prev = cur
            order *= 2
        else:
            values.append(prev)
            gaps.append(gap)
    return np.concatenate(values, axis=-1), max(gaps) if gaps else None


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

        # the first call takes orders 4 and 8 together on 12 nodes
        spec = numerics.QuadratureSpec(order=4, rtol=1e-12)
        numerics.integrate_legendre(f, 3.0, spec)
        assert orders == [12, 16, 32, 64]

    def test_kink_never_agrees(self):
        spec = numerics.QuadratureSpec(rtol=1e-12)
        with pytest.raises(ToleranceNotMet) as info:
            numerics.integrate_legendre(lambda t: np.abs(t - 0.5), 1.0, spec)
        assert abs(info.value.estimate - 0.25) < 1e-4
        assert 0.0 < info.value.error_bound < 1e-4

    def test_kinked_element_keeps_the_converged_ones_in_its_estimate(self):
        # element 0 is smooth, element 1 has a kink at t = 0.5
        spec = numerics.QuadratureSpec(rtol=1e-12)
        with pytest.raises(ToleranceNotMet) as info:
            numerics.integrate_legendre(
                lambda t, kink: np.where(kink, np.abs(t - 0.5), np.cos(t)),
                np.array([1.0, 1.0]), spec, np.array([[False], [True]]))
        estimate = info.value.estimate
        assert estimate.shape == (2,)
        assert abs(estimate[0] - math.sin(1.0)) < 1e-15
        assert abs(estimate[1] - 0.25) < 1e-4
        assert 0.0 < info.value.error_bound < 1e-4

    def test_converged_element_keeps_its_first_agreeing_pair(self):
        # a cubic is exact at order 4, so element 0 is final at orders
        # (4, 8) while element 1 refines on
        spec = numerics.QuadratureSpec(order=4, rtol=1e-12)
        hi = np.array([2.0, 30.0])
        val = numerics.integrate_legendre(
            lambda t, cubic: np.where(cubic, t**3, np.cos(t)), hi, spec,
            np.array([[True], [False]]))
        nodes, weights = numerics._legendre_rule(8)
        assert val[0] == np.sum(weights * (2.0 * nodes) ** 3) * 2.0
        assert abs(val[0] - 4.0) < 1e-14
        assert abs(val[1] - math.sin(30.0)) < 1e-12

    def test_f_gets_only_the_rows_still_refining(self):
        seen = []

        def f(t, rows, scale):
            seen.append((t.shape, rows[:, 0].tolist()))
            assert scale.shape == (len(rows), 1)
            return np.cos(scale * t)

        # the oscillation grows with the row, and so does the order it needs
        scale = np.array([[0.5], [1.0], [20.0], [100.0]])
        hi = np.full(4, 1.0)
        rows = np.arange(4)[:, None]
        spec = numerics.QuadratureSpec(order=8, rtol=1e-12)
        val = numerics.integrate_legendre(f, hi, spec, rows, scale)
        assert np.all(np.abs(val - np.sin(scale[:, 0]) / scale[:, 0]) < 1e-13)
        assert seen == [((4, 24), [0, 1, 2, 3]), ((2, 32), [2, 3]),
                        ((2, 64), [2, 3]), ((1, 128), [3]), ((1, 256), [3])]

    @pytest.mark.parametrize("f, hi, order, params", [
        # per-element parameters: each element needs its own order
        (lambda t, scale: np.cos(scale * t), [1.0, 0.5, 2.0, 1.0], 8,
         [[[0.5], [1.0], [20.0], [100.0]]]),
        # stacked integrands on the same nodes
        (lambda t, scale: np.stack((np.exp(-t), np.cos(scale * t), t**3)),
         [0.3, 1.0, 3.0], 4, [[[1.0], [30.0], [5.0]]]),
        # element 1 has a kink and never converges
        (lambda t, kink: np.where(kink, np.abs(t - 0.5), np.cos(t)),
         [1.0, 1.0, 2.0], 16, [[[False], [True], [False]]]),
        # the last starting order: one pair, 256 and 512
        (np.cos, [1.0, 2.0], 256, []),
    ], ids=["params", "stacked", "kink", "last-pair"])
    def test_matches_order_by_order_reference(self, f, hi, order, params):
        hi = np.array(hi)
        params = [np.array(param) for param in params]
        spec = numerics.QuadratureSpec(order=order, rtol=1e-12)
        want, bound = legendre_reference(f, hi, spec, *params)
        if bound is None:
            got = numerics.integrate_legendre(f, hi, spec, *params)
        else:
            with pytest.raises(ToleranceNotMet) as info:
                numerics.integrate_legendre(f, hi, spec, *params)
            got = info.value.estimate
            assert info.value.error_bound == bound
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_starting_order_above_256_is_refused_before_f(self):
        def f(t):
            raise AssertionError("f was called")

        spec = numerics.QuadratureSpec(order=300, rtol=1e-12)
        with pytest.raises(ValueError, match="starting order 300 is above 256"):
            numerics.integrate_legendre(f, np.array([1.0, 2.0]), spec)

    def test_stacked_integrands_converge_together(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.stack((np.ones_like(t), np.cos(40.0 * t)))

        spec = numerics.QuadratureSpec(order=4, rtol=1e-12)
        both = numerics.integrate_legendre(f, np.array([1.0]), spec)
        assert both.shape == (2, 1)
        assert both[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert abs(both[1, 0] - math.sin(40.0) / 40.0) < 1e-13
        assert len(calls) > 2


class TestLegendreBlocks:
    """The rows go to f in blocks of at most _BLOCK_NODES nodes."""

    @staticmethod
    def many(count):
        # upper limits and oscillation rates that retire the elements at
        # different orders; every 7th has a kink and never converges
        rng = np.random.default_rng(25)
        hi = rng.uniform(0.2, 3.0, count)
        scale = rng.uniform(0.1, 30.0, (count, 1))
        kink = (np.arange(count) % 7 == 3)[:, None]
        return hi, scale, kink

    @staticmethod
    def f(t, scale, kink):
        return np.stack((2.0 + np.cos(scale * t),
                         np.where(kink, np.abs(t - 0.5), np.exp(-t))))

    def test_no_call_sees_more_than_a_block(self):
        hi, scale, kink = self.many(1200)
        widths = []

        def f(t, scale, kink):
            widths.append(t.shape)
            return self.f(t, scale, kink)

        spec = numerics.QuadratureSpec(order=16, rtol=1e-12)
        with pytest.raises(ToleranceNotMet):
            numerics.integrate_legendre(f, hi, spec, scale, kink)
        assert max(rows * width for rows, width in widths) <= (
            numerics._BLOCK_NODES)
        # the first pair is 48 nodes wide and takes 8 blocks of 170 rows;
        # the later orders take blocks too
        first = [rows for rows, width in widths if width == 48]
        assert first == [170] * 7 + [10]
        assert sum(1 for _, width in widths if width == 64) >= 3
        assert {width for _, width in widths} == {48, 64, 128, 256, 512}

    def test_blocks_give_the_bits_of_solo_calls(self):
        # 600 elements span 4 blocks at the first pair, 3 at order 64 and 5
        # at order 512
        hi, scale, kink = self.many(600)
        spec = numerics.QuadratureSpec(order=16, rtol=1e-12)
        want, bound = legendre_reference(self.f, hi, spec, scale, kink)
        with pytest.raises(ToleranceNotMet) as info:
            numerics.integrate_legendre(self.f, hi, spec, scale, kink)
        got = info.value.estimate
        assert got.shape == want.shape == (2, 600)
        assert got.tobytes() == want.tobytes()
        assert info.value.error_bound == bound
        # the converging elements alone, and each of them on its own
        smooth = np.flatnonzero(~kink[:, 0])
        values = numerics.integrate_legendre(self.f, hi[smooth], spec,
                                             scale[smooth], kink[smooth])
        assert values.tobytes() == got[:, smooth].tobytes()
        for i in smooth[::5].tolist():
            solo = numerics.integrate_legendre(self.f, hi[i:i + 1], spec,
                                               scale[i:i + 1], kink[i:i + 1])
            assert solo.tobytes() == got[:, i:i + 1].tobytes()

    def test_one_block_makes_one_call_per_order(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.cos(30.0 * t)

        spec = numerics.QuadratureSpec(order=16, rtol=1e-12)
        numerics.integrate_legendre(f, np.full(128, 1.0), spec)
        assert calls == [(128, 48), (128, 64)]

    @pytest.mark.parametrize("params", [[], [np.empty((0, 1))]])
    def test_empty_hi_gives_an_empty_array(self, params):
        def f(t, *rows):
            return np.stack((np.cos(t), np.sin(t)))

        got = numerics.integrate_legendre(f, np.array([]), None, *params)
        assert got.shape == (2, 0)
        assert numerics.integrate_legendre(np.cos, np.array([])).shape == (0,)


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


class TestDivideByPower:
    def test_array_value_matches_scalar_calls(self):
        value = np.array([-3.5e-3, 1.0, 2.5e300, -0.0, 7e-320])
        got = numerics.divide_by_power(value, 1.7e-3, 2)
        assert got.shape == value.shape
        want = [numerics.divide_by_power(float(v), 1.7e-3, 2) for v in value]
        assert got.tolist() == want
        assert math.copysign(1.0, got[3]) == -1.0
        assert isinstance(want[0], float)

    def test_array_beyond_the_float_range_names_its_value(self):
        with pytest.raises(ValueError, match=r"^-2\.5 / 1e-300\*\*2 is beyond"):
            numerics.divide_by_power(np.array([0.0, -2.5, 3.0]), 1e-300, 2)


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

    @pytest.mark.parametrize("x", [-0.3, -2.0, -25.0])
    def test_negative_real_scalar_matches_array_and_parity(self, x):
        orders = tuple(range(6))
        sign_j = (-1.0) ** np.arange(6)
        # a real scalar gives lists, one value per order
        j, h, jp, hp = map(np.array, numerics._sph_jh(orders, x)[:2]
                           + numerics._sph_jh(orders, -x)[:2])
        ja, ha, _ = numerics._sph_jh(orders, np.array([x]))
        assert h.real.tolist() == j.tolist()
        # j_n(-x) = (-1)^n j_n(x), y_n(-x) = (-1)^(n+1) y_n(x)
        assert j.tolist() == (sign_j * jp).tolist()
        assert h.imag.tolist() == (-sign_j * hp.imag).tolist()
        for got, want in ((ja[:, 0], j), (ha[:, 0], h)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), x

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
