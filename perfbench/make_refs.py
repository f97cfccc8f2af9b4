"""Regenerate perfbench/refs.json: mpmath references on the benchmark lattice.

The shape-functions and casimir workloads draw every x = Omega a from the
lattice x_k = 10**(k/4). This script evaluates, at 50 significant digits and
independently of the plasmasheet code, the shape functions for
k in [-24, 48] (x in [1e-6, 1e12]) and the reduced Casimir energy parts and
pressure for k in [-12, 24] (x in [1e-3, 1e6]). It takes a few minutes and
needs only mpmath:

    python3 perfbench/make_refs.py

Every value is computed twice, at 50 and 60 digits; the script stops if the
two differ by more than 1e-20 relative.
"""

import json
import os

import mpmath as mp

SHAPE_K = range(-24, 49)
CASIMIR_K = range(-12, 25)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def lattice(k):
    return mp.mpf(10) ** (mp.mpf(k) / 4)


def _series(coeff, b):
    total, term_b, m = mp.mpf(0), mp.mpf(1), 0
    while True:
        term = (-1) ** m * coeff(m) * term_b
        total += term
        if m > 2 and abs(term) < mp.eps * abs(total):
            return total
        term_b *= b
        m += 1


def _atan_ratio(b):
    rb = mp.sqrt(b)
    return mp.atan(rb) / rb


def one_minus_atan_ratio(b):
    if b < mp.mpf("0.1"):
        return b * _series(lambda m: mp.mpf(1) / (2 * m + 3), b)
    return 1 - _atan_ratio(b)


def tm_angular(b):
    """Int_0^1 (eps^4 + (1 - eps^2)^2)/(1 + eps^2 b) deps."""
    if b < mp.mpf("0.1"):
        return _series(lambda m: mp.mpf(2) / (2 * m + 5) - mp.mpf(2) / (2 * m + 3)
                       + mp.mpf(1) / (2 * m + 1), b)
    return (mp.mpf(2) / (3 * b) - 2 * (1 + b) / b**2
            + ((b * b + 2 * b + 2) / b**2) * _atan_ratio(b))


def transverse_angular(b):
    """Int_0^1 (1 - eps^2)/(1 + eps^2 b) deps."""
    if b < mp.mpf("0.1"):
        return _series(lambda m: mp.mpf(1) / (2 * m + 1) - mp.mpf(1) / (2 * m + 3), b)
    return -1 / b + ((1 + b) / b) * _atan_ratio(b)


def weighted(f, x):
    """Int_0^inf e^-k f(k) dk, split where the integrand changes scale."""
    points = sorted({mp.mpf(0), x, mp.mpf(1), mp.mpf(10), mp.mpf(40)}) + [mp.inf]
    points = [p for p in points if p == 0 or p == mp.inf or p < 60]
    return mp.quad(lambda k: mp.exp(-k) * f(k), points)


def shape_functions(x):
    return {
        "fTE": weighted(lambda k: k / (1 + k / x), x),
        "fTM": 3 * x * weighted(lambda k: one_minus_atan_ratio(k / x), x),
        # h_par = Int e^-k (-1/(1 + k/x) + k/2 + 3/2 + k/x) = 2 + 1/x - x e^x E1(x)
        "hPar": 2 + 1 / x - x * mp.exp(x) * mp.e1(x),
        "gTE": weighted(lambda k: k**3 / (1 + k / x), x) / 6,
        "gTM": mp.mpf(5) / 22 * weighted(lambda k: k**3 * tm_angular(k / x), x),
        "g3": weighted(lambda k: k**3 * transverse_angular(k / x), x) / 4,
    }


def _log_eps_integral(a, b):
    """Int_0^1 ln(a + b eps^2) deps without the constant -2 (it cancels)."""
    return mp.log(a + b) + 2 * mp.sqrt(a / b) * mp.atan(mp.sqrt(b / a))


def casimir_parts(x):
    """(TE, TM) parts of a^3 E/A = F(x); the TM angular integral is closed."""
    norm = 1 / (4 * mp.pi**2)

    def te(g):
        if g == 0:
            return mp.mpf(0)
        return g * g * mp.log(1 - mp.exp(-2 * g) / (1 + 2 * g / x) ** 2)

    def tm(g):
        if g == 0:
            return mp.mpf(0)
        s = mp.exp(-g)
        # ln(1 - r^2 s^2) = ln(x(1-s) + c) + ln(x(1+s) + c) - 2 ln(x + c), c = 2 g eps^2
        inner = (_log_eps_integral(x * (1 - s), 2 * g)
                 + _log_eps_integral(x * (1 + s), 2 * g)
                 - 2 * _log_eps_integral(x, 2 * g))
        return g * g * inner

    points = [mp.mpf(0), mp.mpf("0.5"), mp.mpf(2), mp.mpf(8), mp.mpf(30), mp.inf]
    return norm * mp.quad(te, points), norm * mp.quad(tm, points)


def casimir_refs(x):
    te, tm = casimir_parts(x)
    total = lambda xx: sum(casimir_parts(xx))
    # P a^4 = -d(F(Omega a)/a^3)/da * a^4 = 3 F(x) - x F'(x)
    pressure = 3 * (te + tm) - x * mp.diff(total, x)
    return {"te": te, "tm": tm, "energy": te + tm, "pressure": pressure}


def _at(dps, fn, k):
    with mp.workdps(dps):
        return fn(lattice(k))


def _checked(fn, k):
    low, high = _at(50, fn, k), _at(60, fn, k)
    out = {}
    for name, value in low.items():
        gap = abs(value - high[name]) / abs(high[name])
        if gap > mp.mpf("1e-20"):
            raise SystemExit(f"{name} at k={k}: precision gap {mp.nstr(gap, 3)}")
        out[name] = float(high[name])
    return out


def main():
    refs = {
        "lattice": "x_k = 10**(k/4)",
        "shape": {str(k): _checked(shape_functions, k) for k in SHAPE_K},
        "casimir": {str(k): _checked(casimir_refs, k) for k in CASIMIR_K},
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
