"""Quadrature, root finding and spherical Bessel machinery.

Plain numerics, no sheet physics. Two fixed rules that take array-valued
integrands (a trapezoidal rule in ln k for e^-k weighted integrals, and
Gauss-Legendre) and bisection sit behind small contracts that fail loudly
instead of returning silently inaccurate numbers. Both rules refine each
element on its own, in one loop: an element is final at its first pair of
agreeing levels or orders and leaves, and the integrand sees only the
elements still refining, with their rows of any per-element parameter
arrays. An element's value therefore does not depend on the elements that
share its calls.

The log-k rule's elements are the rows of its parameter arrays (without
them, one element whose integrands refine together), and it refines each
only on the support its level 0 finds. The Gauss-Legendre elements are the
upper limits, handed to f in blocks of at most 8192 nodes. The docstrings
of ``integrate_exponential_weight`` and ``integrate_legendre`` give each
rule in full. The QUADPACK wrappers ``integrate_adaptive`` and
``integrate_semi_infinite`` keep the same contract, but no package code
calls them: they stay only because the benchmark tracer in
``perfbench/tracing.py`` wraps them by name.

The spherical Bessel functions come from one primitive, ``_sph_jh``, with
one route per kind of argument:

- a real ndarray goes to ``spherical_jn``/``spherical_yn``, one call each
  over all requested orders: the fastest over a whole array;
- a real scalar, a Python float or an ``np.float64`` alike (``minimize_scalar``
  passes the latter), goes to the ``jv``/``yv`` ufuncs at n + 1/2, one call
  of each per order, and the rest runs on Python floats: no arrays of
  orders, and no wrapper's per-call cost. The Jost functions keep such a
  call on floats from end to end;
- a complex argument, scalar or ndarray, goes to the exponentially scaled
  ``jve``/``hankel1e``: on the imaginary axis z = i kappa, j and y grow like
  e^kappa while h = j + i y falls like e^-kappa, so the scaled pair keeps
  products such as j h finite where the functions themselves overflow.

On both real routes Re h = j exactly, since h is assembled from j and y
part by part.

scipy is imported on first use: importing it takes longer than the rest of
the package together.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BracketError, IterationLimitError, ToleranceNotMet

__all__ = [
    "MAX_RTOL",
    "MIN_RTOL",
    "QuadratureSpec",
    "integrate_exponential_weight",
    "integrate_legendre",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "by_chunks",
    "divide_by_power",
    "find_root_bracketed",
    "spherical_bessel_j",
    "spherical_hankel1",
    "riccati_bessel",
]

# Largest relative tolerance a quadrature accepts.
MAX_RTOL = 1e-3
# Smallest relative tolerance a run may ask for. The nested rules refine
# their inner integral to a tenth of it, and at 1e-14 the Casimir inner
# Gauss-Legendre rule never meets 1e-15. QuadratureSpec does not apply it,
# since those inner specs sit below it.
MIN_RTOL = 1e-13
# Absolute tolerance floor protecting near-zero results.
_ABS_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget of the integration helpers.

    The integrator a caller picks is the method; the spec sets only its
    starting order and tolerances.

    Parameters
    ----------
    order : int
        Starting step count of the log-k trapezoid rule
        (``integrate_exponential_weight``), starting Gauss-Legendre order
        (``integrate_legendre``), or subdivision budget scale of the QUADPACK
        routines. At least 2.
    rtol : float
        Relative tolerance, in (0, MAX_RTOL]. Defaults to 1e-8.
    """

    order: int = 32
    rtol: float = 1e-8

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be at least 2")
        if not 0.0 < self.rtol <= MAX_RTOL:
            raise ValueError(f"rtol must be in (0, {MAX_RTOL:g}]")


# The exponential-weight rule works in u = ln k on a fixed range: the part
# of the integral below _K_MIN is at most 1e-20 times sup |f| there, and
# above _K_MAX the weight e^-k underflows to zero.
_K_MIN = 1e-20
_K_MAX = 800.0
# Refinement stops after this many halvings of the starting step.
_MAX_HALVINGS = 10
# A level-0 node of the log-k rule whose terms are all at most this times
# rtol times their totals is negligible (see integrate_exponential_weight).
_TAIL_FRACTION = 1e-3
# leggauss builds a rule by an eigenvalue solve that grows as order^3.
_LEGENDRE_MAX_ORDER = 512
# Most nodes one call of a Gauss-Legendre integrand sees. An integrand
# makes tens of whole-array temporaries; at this size they stay in cache.
_BLOCK_NODES = 8192
# Residual bound of find_root_bracketed, relative to |f| at the ends.
_ROOT_RESIDUAL = 1e-12


def _frozen(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _log_k_level(panels, level):
    """Nodes k and weights h e^-k k of one level of the log-k trapezoid rule.

    Level 0 is the whole rule with `panels` steps; level n > 0 holds only
    the midpoints that the n-th halving of the step adds.
    """
    lo, hi = math.log(_K_MIN), math.log(_K_MAX)
    if level == 0:
        u = np.linspace(lo, hi, panels + 1)
        h = (hi - lo) / panels
        ends = np.ones_like(u)
        ends[[0, -1]] = 0.5
    else:
        count = panels * 2 ** (level - 1)
        h = (hi - lo) / (2 * count)
        u = lo + h * (2 * np.arange(count) + 1)
        ends = 1.0
    k = np.exp(u)
    return _frozen(k, h * ends * np.exp(u - k))


@functools.lru_cache(maxsize=None)
def _legendre_rule(order):
    """Gauss-Legendre nodes mapped to [0, 1] and their weights."""
    nodes, weights = leggauss(order)
    return _frozen(0.5 * (nodes + 1.0), 0.5 * weights)


@functools.lru_cache(maxsize=None)
def _legendre_pair(order):
    """Joined nodes of the order and 2*order rules, and their two weights."""
    nodes, weights = _legendre_rule(order)
    nodes2, weights2 = _legendre_rule(2 * order)
    return _frozen(np.concatenate((nodes, nodes2)))[0], weights, weights2


def integrate_exponential_weight(f, spec=None, *params):
    """Integrals of e^(-k) f(k) over k in [0, inf), one per element.

    Trapezoidal rule in u = ln k, starting with ``spec.order`` steps of
    h0 = ln(800/1e-20)/order; each node's term is w f(k) with
    w = h e^(-k) k. With ``params``, each row of the params arrays is one
    element with integrands of its own; without, there is one element.
    Each element refines alone. Level 0 samples the whole range
    k in [1e-20, 800] and fixes the element's support: a level-0 node is
    negligible when each of the element's integrands has a term there of
    at most _TAIL_FRACTION * rtol * |its level-0 total|, and the support
    runs from the last node of the leading run of negligible nodes to the
    first node of the trailing run. Negligible nodes inside it stay. Each
    refinement halves the step and adds the midpoints inside the support.
    Every level, level 0 included, sums over the support alone, so all
    levels refine one node set; the element is final at the first level
    that agrees with the one before to ``spec.rtol``, and leaves. Each
    level calls f once, on the new midpoints from the first support start
    to the last support end of the elements still refining, and each
    element sums over its own nodes alone, in the order it would alone: its
    value, support and level do not depend on the other elements. When all
    supports coincide, one sum serves every element.

    The rule converges geometrically for integrands e^-k k^n R(k/x),
    n >= 0, with R analytic off (-inf, -1], whatever the scale x: in u they
    are analytic in a strip of width pi about the real axis. Such an f is
    bounded as k -> 0, so below the support the terms fall at least by
    e^(h0) per level-0 step, and the dropped left side is at most
    _TAIL_FRACTION/h0 * rtol of the total. Above the support they fall like
    e^-k, and the dropped right side is smaller still where the support
    ends beyond k = max(2, 2n). Both are below rtol/100 for any order up
    to 500.

    Parameters
    ----------
    f : callable
        Called as ``f(k, *rows)`` with a 1-d array of nodes k. Without
        params it returns an array shaped like k, or (..., len(k)) for
        several integrands on the same nodes, which the one element refines
        together. With params, rows are the rows of the ``params`` arrays
        for the m elements still refining, and f returns (..., m, len(k)).
        When f acts on each node and row alone, as elementwise numpy does,
        an element's value does not depend on which elements share its
        calls.
    spec : QuadratureSpec, optional
        Tolerances and starting step count.
    *params : arrays
        Per-element parameters, one row per element along axis 0.

    Returns
    -------
    Without params, a float, or an array of floats for several integrands;
    with params, an array of shape (..., m) over the m elements.

    Raises
    ------
    ToleranceNotMet
        When some element's levels still disagree after the last halving.
        Its ``estimate`` holds every element's latest value, and
        ``error_bound`` the largest gap of the elements that did not
        converge.
    """
    if spec is None:
        spec = QuadratureSpec()

    # a single element refines without the element axis, on floats where
    # it has one integrand
    single = len(params[0]) == 1 if params else True
    squeeze = (..., 0, slice(None)) if params and single else ...

    k, w = _log_k_level(spec.order, 0)
    terms = w * f(k, *params)[squeeze]
    supports = _supports(terms[..., None, :] if single else terms, spec.rtol)
    lo, hi, offsets = _span(supports)
    prev = _support_sums(terms[..., lo:hi + 1], offsets, 1, 1)
    # index: the element of each refining row; result: every element's
    # latest value once some elements have left
    index, rows, result = np.arange(len(supports)), params, None
    for level in range(1, _MAX_HALVINGS + 1):
        k, w = _log_k_level(spec.order, level)
        per_step = 2 ** (level - 1)  # new midpoints per level-0 step
        new = slice(lo * per_step, hi * per_step)
        cur = 0.5 * prev + _support_sums(w[new] * f(k[new], *rows)[squeeze],
                                         offsets, per_step, 0)
        diff = np.abs(cur - prev)
        agree = diff <= spec.rtol * np.abs(cur) + _ABS_FLOOR
        if agree.all():
            break
        # elements whose integrands all agree leave; one never leaves alone
        done = () if single else agree.reshape(-1, index.size).all(axis=0)
        if any(done):
            if result is None:
                result = np.empty(cur.shape[:-1] + (len(params[0]),))
            result[..., index[done]] = cur[..., done]
            keep = ~done
            index, cur, diff = index[keep], cur[..., keep], diff[..., keep]
            rows = [row[keep] for row in rows]
            supports = [s for s, kept in zip(supports, keep) if kept]
            lo, hi, offsets = _span(supports)
        prev = cur
    if result is not None:
        result[..., index] = cur
        cur = result
    if squeeze is not ...:
        cur = cur[..., None]
    if agree.all():
        return float(cur) if cur.ndim == 0 else cur
    raise ToleranceNotMet(
        f"log-k trapezoid refinement did not reach rtol {spec.rtol:g}",
        estimate=cur, error_bound=float(np.max(diff)))


def _supports(terms, rtol):
    """First and last level-0 node of each element's support, as int pairs.

    terms has the nodes on its last axis and the elements on the one before;
    the rule is in integrate_exponential_weight. An element with no node
    above the threshold keeps every node.
    """
    bound = _TAIL_FRACTION * rtol * np.abs(np.sum(terms, axis=-1))[..., None]
    above = (np.abs(terms) > bound).any(axis=tuple(range(terms.ndim - 2)))
    last = terms.shape[-1] - 1
    first = above.argmax(axis=1).tolist()
    final = (last - above[:, ::-1].argmax(axis=1)).tolist()
    return [(max(a - 1, 0), min(b + 1, last)) for a, b in zip(first, final)]


def _span(supports):
    """(lo, hi, offsets): the first and last node of all the supports, and
    each support's ends counted from lo, or None when all supports are one.
    """
    lo = min((a for a, _ in supports), default=0)
    hi = max((b for _, b in supports), default=0)
    if all(support == (lo, hi) for support in supports):
        return lo, hi, None
    return lo, hi, [(a - lo, b - lo) for a, b in supports]


def _support_sums(values, offsets, per_step, end):
    """Sum over each element's own nodes of values on a span of nodes.

    values has the span's nodes on its last axis and the elements on the one
    before. Element i sums nodes a * per_step to b * per_step + end - 1 for
    its offsets (a, b); offsets None sums every node in one call.
    """
    # the sum method: np.sum adds about 2 us of dispatch per call
    if offsets is None:
        return values.sum(axis=-1)
    return np.stack([values[..., i, a * per_step:b * per_step + end].sum(
        axis=-1) for i, (a, b) in enumerate(offsets)], axis=-1)


def integrate_legendre(f, hi, spec=None, *params):
    """Integrals of f(t) over t in [0, hi] for a float or 1-d array of hi.

    Each element, one upper limit, refines on its own: Gauss-Legendre rules
    start at ``spec.order`` nodes and double the order until two successive
    orders agree to ``spec.rtol``. An element is final at its first pair of
    agreeing orders and keeps the higher order's value; only the elements
    that have not converged are evaluated at the next order. The first
    pair, orders n = ``spec.order`` and 2n, is evaluated on their joined
    nodes. Each order, the first pair included, takes one call of f per
    block of at most _BLOCK_NODES = 8192 nodes: the elements go to f in
    consecutive blocks of rows, so a call that fits in one block is one call
    of f on all of them. Orders stop at 512, so n must be at most 256.

    Parameters
    ----------
    f : callable
        Called as ``f(t, *rows)``. t has shape (m, order): the nodes of a
        block of m elements still refining; at the first pair, shape
        (m, 3 n): the n nodes of order n, then the 2n of order 2n. rows are
        the rows of the ``params`` arrays for those elements. Returns an
        array of shape (..., m, t.shape[1]); the leading axes hold several
        integrands on the same nodes, and an element is final when all of
        them agree. When f acts on each node alone, as elementwise numpy
        does, its values do not depend on how the nodes are grouped into
        calls or blocks.
    hi : float or 1-d array
        Upper limits, one per element.
    spec : QuadratureSpec, optional
        Tolerances and starting order.
    *params : arrays
        Per-element parameters, one row per element of hi along axis 0.

    Returns
    -------
    Array of shape (...,) + hi.shape; a float for a float hi and a single
    integrand.

    Raises
    ------
    ValueError
        When ``spec.order`` is above 256, before f is called.
    ToleranceNotMet
        When some element's orders up to 512 never agree. Its ``estimate``
        holds every element's latest value, and ``error_bound`` the largest
        gap of the elements that did not converge.
    """
    if spec is None:
        spec = QuadratureSpec()
    order = spec.order
    if 2 * order > _LEGENDRE_MAX_ORDER:
        raise ValueError(f"starting order {order} is above "
                         f"{_LEGENDRE_MAX_ORDER // 2}")
    shape = np.shape(hi)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    # one call per block for the first pair of orders, on their joined nodes
    nodes, weights, weights2 = _legendre_pair(order)
    prev, cur = _legendre_sums(f, hi, params, nodes,
                               ((weights, 0), (weights2, order)))
    order *= 2
    # index: the element of each row of lim, rows and cur still refining;
    # result holds the final values once some elements have left
    index, lim, rows, result = np.arange(hi.size), hi, params, None
    while True:
        diff = np.abs(cur - prev)
        agree = diff <= spec.rtol * np.abs(cur) + _ABS_FLOOR
        if agree.all():
            break
        done = agree.reshape(-1, index.size).all(axis=0)
        if done.any():
            if result is None:
                result = np.empty(cur.shape[:-1] + hi.shape)
            result[..., index[done]] = cur[..., done]
            keep = ~done
            index, lim, cur, diff = (index[keep], lim[keep], cur[..., keep],
                                     diff[..., keep])
            rows = [row[keep] for row in rows]
        order *= 2
        if order > _LEGENDRE_MAX_ORDER:
            break
        nodes, weights = _legendre_rule(order)
        prev, (cur,) = cur, _legendre_sums(f, lim, rows, nodes,
                                           ((weights, 0),))
    if result is not None:
        result[..., index] = cur
        cur = result
    cur = cur.reshape(cur.shape[:-1] + shape)
    if agree.all():
        return float(cur) if cur.ndim == 0 else cur
    raise ToleranceNotMet(
        f"Gauss-Legendre order doubling did not reach rtol {spec.rtol:g}",
        estimate=cur, error_bound=float(np.max(diff)))


def _legendre_sums(f, lim, rows, nodes, parts):
    """Weighted sums of f on the nodes scaled to each upper limit in lim.

    parts holds (weights, start) pairs; each gives the sum over
    nodes[start:start + len(weights)] of the weights times f, times lim. f
    is called on consecutive blocks of rows of at most _BLOCK_NODES nodes,
    and each block's sums are formed right after its call.
    """
    per_block = _BLOCK_NODES // nodes.size

    def sums(lim, rows):
        values = f(lim[:, None] * nodes, *rows)
        # the sum method: np.sum adds about 2 us of dispatch per call
        return [(w * values[..., a:a + w.size]).sum(axis=-1) * lim
                for w, a in parts]

    if lim.size <= per_block:
        return sums(lim, rows)
    blocks = [sums(lim[a:a + per_block], [row[a:a + per_block] for row in rows])
              for a in range(0, lim.size, per_block)]
    return [np.concatenate(column, axis=-1) for column in zip(*blocks)]


def integrate_adaptive(f, lo, hi, spec=None, full_result=False):
    """Adaptive integral of f over the finite interval [lo, hi].

    Parameters
    ----------
    f : callable
    lo, hi : float
        Finite bounds with lo < hi.
    spec : QuadratureSpec, optional
    full_result : bool
        When true, return (value, error_bound, subdivisions) instead of the
        bare value.

    Returns
    -------
    float, or (float, float, int)
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    # Imported on first use: no package code calls QUADPACK any more, and
    # scipy.integrate adds about 0.15 s to the package import.
    from scipy import integrate

    limit = max(50, 4 * spec.order)
    out = integrate.quad(f, lo, hi, epsabs=_ABS_FLOOR, epsrel=spec.rtol,
                         limit=limit, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3:
        raise ToleranceNotMet(
            f"adaptive quadrature failed on [{lo}, {hi}]: {out[3]}",
            estimate=value, error_bound=abserr)
    if full_result:
        return value, abserr, info["last"]
    return value


def integrate_semi_infinite(f, spec=None, scale=1.0):
    """Adaptive integral of f over [0, inf) via the map k = scale t/(1-t).

    The integrand must decay fast enough that f(k)/(1-t)^2 stays bounded;
    exponential tails qualify. ``scale`` should match the decay length so the
    transformed integrand is well resolved.
    """
    if spec is None:
        spec = QuadratureSpec()
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def transformed(t):
        if t >= 1.0:
            return 0.0
        u = 1.0 - t
        fk = f(scale * t / u)
        if fk == 0.0:
            return 0.0
        return fk * scale / (u * u)

    return integrate_adaptive(transformed, 0.0, 1.0, spec)


def by_chunks(f, x, size):
    """f on each run of size elements of a 1-d array x, joined on the last axis.

    The runs bound the memory of a pass over a long array. An empty x is
    one empty run.
    """
    return np.concatenate([f(x[start:start + size])
                           for start in range(0, max(x.size, 1), size)],
                          axis=-1)


def divide_by_power(value, base, n):
    """value / base**n for a positive float base, without forming base**n.

    base**n alone over- or underflows where the quotient may still be a
    float. With base = m 2^e (m in [0.5, 1)), the quotient is
    (value / m**n) 2^(-n e); the last step is exact for a normal quotient.
    value is a float, giving a float, or an array, giving an array. A
    quotient below the float range comes back as 0 or subnormal; one above
    it raises ValueError naming the first such value.
    """
    mantissa, exponent = math.frexp(base)
    with np.errstate(over="ignore"):
        quotient = np.ldexp(np.divide(value, mantissa**n), -n * exponent)
    beyond = np.isinf(quotient)
    if beyond.any():
        first = np.ravel(value)[np.ravel(beyond)][0]
        raise ValueError(f"{first:.17g} / {base:.17g}**{n} is beyond the "
                         "float range")
    return quotient if np.ndim(value) else float(quotient)


def find_root_bracketed(f, lo, hi):
    """Root of f inside [lo, hi], bisected until every bracket has closed on
    neighbouring floats; there is no step limit.

    Residual contract: |f(root)| <= 1e-12 * max(|f(lo)|, |f(hi)|).

    Parameters
    ----------
    f : callable
        Continuous on each bracket with a sign change across it. Called once
        per step on all midpoints: with floats for scalar lo and hi, else
        with arrays of their broadcast shape.
    lo, hi : float or array

    Returns
    -------
    float, or an array of that shape

    Raises
    ------
    BracketError
        When f has no sign change over a bracket.
    IterationLimitError
        When a root breaks the residual contract.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    call = (lambda x: f(float(x))) if scalar else f
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    bad = np.flatnonzero(~(lo < hi))
    if bad.size:
        raise ValueError(f"invalid bracket [{lo.flat[bad[0]]}, {hi.flat[bad[0]]}]")
    flo, fhi = call(lo), call(hi)
    scale = np.maximum(np.abs(flo), np.abs(fhi))
    sign_lo, sign_hi = np.sign(flo), np.sign(fhi)
    bad = np.flatnonzero(~(sign_lo * sign_hi <= 0))
    if bad.size:
        raise BracketError(f"no sign change over [{lo.flat[bad[0]]}, {hi.flat[bad[0]]}]")
    # an endpoint root closes its bracket, on lo when both ends are roots
    lo = np.where((sign_hi == 0) & (sign_lo != 0), hi, lo)
    hi = np.where(sign_lo == 0, lo, hi)
    # each step moves lo or hi of an open bracket to a float strictly inside
    # it and halves its width: from the widest float bracket to neighbouring
    # subnormals, about 2,100 steps
    while True:
        mid = 0.5 * lo + 0.5 * hi
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        sign_mid = np.sign(call(mid))
        # a zero or NaN at the midpoint closes the bracket there
        lo = np.where(inside & (sign_mid != sign_hi), mid, lo)
        hi = np.where(inside & (sign_mid != sign_lo), mid, hi)
    residual = np.abs(call(mid))
    bad = np.flatnonzero(~(residual <= _ROOT_RESIDUAL * scale))
    if bad.size:
        raise IterationLimitError(
            f"residual {residual.flat[bad[0]]:.3e} above {_ROOT_RESIDUAL:.1e} "
            f"* bracket scale {scale.flat[bad[0]]:.3e}")
    return float(mid) if scalar else mid


def _check_l(l):
    if not isinstance(l, (int, np.integer)):
        raise ValueError("l must be an integer")
    if l < 0:
        raise ValueError("l must be nonnegative")


def _sph_jh(orders, z):
    """Spherical Bessel j_n(z) and Hankel h_n(z) = j_n + i y_n for n in orders.

    Returns (j, h, phase): for an ndarray or a complex z, arrays of shape
    (len(orders),) + shape(z); for a real scalar z, lists of floats and
    of complex numbers, one per order. phase is the factor with
    j_n(z) h_n(z) = phase * j * h. The module docstring gives the route of
    each z. For a real z, j and h are the functions themselves and
    phase = 1 (order -1 is j_-1 = -y_0, y_-1 = j_0; a negative real scalar
    uses j_n(-x) = (-1)^n j_n(x), y_n(-x) = (-1)^(n+1) y_n(x)). For a
    complex z, j = j_n e^-|Im z| and h = h_n e^-iz (``jve``, ``hankel1e``).
    """
    from scipy import special

    if not isinstance(z, (np.ndarray, complex)):
        x = abs(z)
        front = math.sqrt(math.pi / (2 * x))
        j, h = [], []
        for n in orders:
            jn = front * float(special.jv(n + 0.5, x))
            yn = front * float(special.yv(n + 0.5, x))
            if z < 0:
                jn, yn = (-1.0) ** n * jn, (-1.0) ** (n + 1) * yn
            j.append(jn)
            # from its parts: jn + 1j * yn would turn an infinite yn into a
            # NaN real part
            h.append(complex(jn, yn))
        return j, h, 1.0
    n = np.array(orders)
    if isinstance(z, np.ndarray):
        n = n.reshape((-1,) + (1,) * z.ndim)
    if _is_complex(z):
        front = math.sqrt(math.pi / 2) / np.sqrt(z)
        return (front * special.jve(n + 0.5, z),
                front * special.hankel1e(n + 0.5, z), _jh_phase(z, z))
    j = special.spherical_jn(np.maximum(n, 0), z)
    y = special.spherical_yn(np.maximum(n, 0), z)
    if n[0] < 0:
        j[0], y[0] = -y[1], j[1]
    # set the parts one by one, as for a scalar
    h = np.empty(j.shape, dtype=complex)
    h.real, h.imag = j, y
    return j, h, 1.0


def _jh_phase(z_in, z_out):
    """Factor with j_n(z_in) h_n(z_out) = factor * j * h.

    j and h are what _sph_jh returns at z_in and at z_out. For complex
    arguments the factor is e^(|Im z_in| + i z_out), of modulus at most 1
    when 0 <= Im z_in <= Im z_out.
    """
    if _is_complex(z_out):
        return np.exp(np.abs(np.imag(z_in)) + 1j * z_out)
    return 1.0


def _is_complex(z):
    return isinstance(z, complex) or (
        isinstance(z, np.ndarray) and z.dtype.kind == "c")


def _unscaled(z, j, h):
    """j_n(z) and h_n(z) from the (j, h) that _sph_jh returns."""
    if _is_complex(z):
        return j * np.exp(np.abs(z.imag)), h * np.exp(1j * z)
    return j, h


def _riccati_scaled(l, z):
    """(rj, rjp, rh, rhp, phase): riccati_bessel in the scaling of _sph_jh.

    The derivatives come from the downward identity
    d/dz [z f_l] = z f_(l-1) - l f_l.
    """
    (jm, jl), (hm, hl), phase = _sph_jh((l - 1, l), z)
    return z * jl, z * jm - l * jl, z * hl, z * hm - l * hl, phase


def _require_nonzero(z, message):
    if (z == 0).any() if isinstance(z, np.ndarray) else z == 0:
        raise ValueError(message)


def spherical_bessel_j(l, z):
    """Spherical Bessel function j_l(z) for real or complex z.

    Real input gives a real result, an ndarray an ndarray. z=0 is the
    regular point j_l(0) = [l == 0].
    """
    _check_l(l)
    if not isinstance(z, np.ndarray) and z == 0:
        return 1.0 if l == 0 else 0.0
    if isinstance(z, np.ndarray) and _is_complex(z) and (z == 0).any():
        # the scaled complex route divides by sqrt(z)
        j = spherical_bessel_j(l, np.where(z == 0, 1.0, z))
        j[z == 0] = 1.0 if l == 0 else 0.0
        return j
    (j,), (h,), _ = _sph_jh((l,), z)
    j, _ = _unscaled(z, j, h)
    if isinstance(z, (np.ndarray, complex)):
        return j
    return float(j)


def spherical_hankel1(l, z):
    """Spherical Hankel function of the first kind, h_l(z) = j_l(z) + i y_l(z).

    Always complex; z must be nonzero (irregular point).
    """
    _check_l(l)
    _require_nonzero(z, "spherical Hankel function is singular at z=0")
    (j,), (h,), _ = _sph_jh((l,), z)
    return _unscaled(z, j, h)[1]


def riccati_bessel(l, z):
    """Riccati-Bessel pair (z j_l, z h_l) and their derivatives.

    Returns
    -------
    (rj, rjp, rh, rhp) : tuple of scalars, or of arrays shaped like z
        rj = z j_l(z), rjp = d/dz [z j_l(z)], same for the Hankel pair.
        These satisfy the Wronskian identity rj * rhp - rjp * rh = i. The
        derivatives come from the downward identity
        d/dz [z f_l] = z f_(l-1) - l f_l.

    For a scalar z, a NaN part, as where y_l leaves the float range at
    small |z| and z times an infinite h_l is formed, raises ValueError.
    """
    _check_l(l)
    _require_nonzero(z, "Riccati-Bessel functions need z != 0")
    rj, rjp, rh, rhp, _ = _riccati_scaled(l, z)
    rj, rh = _unscaled(z, rj, rh)
    rjp, rhp = _unscaled(z, rjp, rhp)
    pair = rj, rjp, rh, rhp
    if not isinstance(z, np.ndarray) and any(map(cmath.isnan, pair)):
        raise ValueError(
            f"Riccati-Bessel functions leave the float range at l = {l}, z = {z}")
    return pair
