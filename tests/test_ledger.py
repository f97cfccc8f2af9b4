"""Every cell of the README's command lines and of the Casimir lattice
against the value ledger.

The ledger (readme_ledger.json, rewritten by ledger.py) records the cells
each README line printed, and each Casimir route gave on the x-lattice,
when it was last written. A cell may move by rounding, up to a relative
1e-13; the closed-vs-root `residual` of `dispersion` is rounding noise
around 0, so it gets an absolute 1e-15.
"""

import pytest

import ledger

RTOL = 1e-13
ATOL = {"residual": 1e-15}


def _close(x, y, atol):
    """Whether two JSON cells agree: text exactly, numbers to RTOL."""
    if isinstance(x, str) or x is None:
        return x == y
    x, y = (complex(*v) if isinstance(v, list) else v for v in (x, y))
    return abs(x - y) <= RTOL * abs(x) + atol


def test_ledger_holds_each_readme_line():
    assert list(ledger.load()) == ledger.names()


def _check(name):
    want = ledger.load()[name]
    got = ledger.compute(name)
    assert got["columns"] == want["columns"]
    assert len(got["rows"]) == len(want["rows"])
    moved = [(i, column, x, y)
             for i, column, x, y in ledger.changed_cells(want, got)
             if not _close(x, y, ATOL.get(column, 0.0))]
    assert not moved, moved[:5]


@pytest.mark.parametrize("command", ledger.readme_commands())
def test_readme_line_matches_the_ledger(command):
    _check(command)


@pytest.mark.parametrize("route", list(ledger.LATTICE_ROUTES))
def test_casimir_lattice_matches_the_ledger(route):
    _check(route)
