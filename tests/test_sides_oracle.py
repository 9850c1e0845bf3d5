"""Each side of every catalog entry with an n axis, at integer points,
against the same side written over the benchmark's integer oracle.

A fault shared by both sides of an identity cancels in the identity check
itself: with every triangle-sum weight doubled, EQ4, ID1, ID4 and ID5 still
pass at every default point.  Here each side is compared on its own, so
such a fault shows.  ``perfbench/oracle.py`` counts tilings by row
recurrences on plain ints and never imports tribpoly; it is loaded by path,
as in ``tests/test_far_values.py``.  Each side below is the identity's
statement over the oracle's families, with no ``Polynomial``: two
polynomials of bounded degree that agree at every point of the default
grid at y = 2 and y = 3 differ, if at all, by a multiple of (y - 2)(y - 3)
(Schwartz 1980; Zippel 1979).
"""

import importlib.util
from math import comb
from pathlib import Path

import pytest

from tribpoly import identities
from tribpoly import tribonacci as trib

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("tribpoly_sides_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

T = oracle.tribonacci_poly
inc = oracle.incomplete_tribonacci_poly
fib = oracle.incomplete_fibonacci_poly


def _eq4(x, n, s):
    rhs = x**2 * inc(n + 2, s, x) + x * inc(n + 1, s, x) + inc(n, s, x)
    return inc(n + 3, s, x), rhs - oracle.overshoot_poly(n - 2 * s + 2, s, x)


def _id1(x, n, s, h):
    window = sum(x ** (2 * (h - i - 1)) * inc(n + i, s, x) for i in range(h))
    rhs = (
        inc(n + h + 2, s + 1, x)
        - x ** (2 * h) * inc(n + 2, s + 1, x)
        + x ** (2 * h + 1) * inc(n, s, x)
        - x * inc(n + h, s, x)
    )
    return (1 + x**3) * window, rhs


def _all_levels(x, n):
    return sum(inc(n + 1, s, x) for s in range(n // 2 + 1))


def _id2(x, n):
    correction = sum(i * oracle.triangle_poly(n - i, i, x) for i in range(n // 2 + 1))
    return _all_levels(x, n), (n // 2 + 1) * T(n + 1, x) - correction


def _id3(x, n):
    conv = sum((x * T(j, x) + T(j - 1, x)) * T(n - j, x) for j in range(1, n))
    return _all_levels(x, n), (n // 2 + 1) * T(n + 1, x) - conv


def _id4(x, n, s):
    rhs = sum(
        x ** (i + 2) * inc(n - 2 * i, s - i, x) + x**i * inc(n - 2 * i - 2, s - i - 1, x)
        for i in range(s + 1)
    )
    return inc(n + 1, s, x), rhs


def _id5(x, n, s):
    rhs = sum(
        comb(s, i) * comb(s - i, j) * x ** (2 * s - i - 2 * j) * inc(n - s - i - 2 * j, s - i - j, x)
        for i in range(s + 1)
        for j in range(s - i + 1)
    )
    return inc(n, s, x), rhs


def _id6(y, n, s):
    # at x = y^2, with the Fibonacci members at y^3; the level-j step of
    # the index-m member is inc(m, j) - inc(m, j - 1)
    x = y * y
    steps = sum(
        y ** (i - 1) * (inc(n - i - 1, j, x) - inc(n - i - 1, j - 1, x)) * fib(i, s - j - 1, y**3)
        for i in range(1, n - 1)
        for j in range(s)
    )
    return inc(n + 1, s, x), y**n * fib(n + 1, s, y**3) + steps


def _eq12(x, n, s):
    conv = sum(oracle.overshoot_poly(i, s, x) * T(n - 2 * s - i, x) for i in range(n - 2 * s))
    return inc(n, s, x), T(n, x) - conv


def _eq13(x, n, s):
    # a tiling meets the cut after cell 2s with no piece across it, with a
    # piece ending one cell past it, or with a tromino ending two past it
    head = [T(2 * s + 1, x), T(2 * s - 1, x) + x * T(2 * s, x), T(2 * s, x)]
    return T(n, x), sum(h * T(n - 2 * s - j, x) for j, h in enumerate(head))


SIDES = {
    "EQ4": _eq4,
    "ID1": _id1,
    "ID2": _id2,
    "ID3": _id3,
    "ID4": _id4,
    "ID5": _id5,
    "ID6": _id6,
    "EQ12": _eq12,
    "EQ13": _eq13,
}

# the judged points of the default grid, per entry
POINTS = {ident: [] for ident in SIDES}
for _report in identities.run_grid(identities.GridConfig(), list(SIDES)):
    if _report.status != identities.FILTERED:
        POINTS[_report.identity_id].append(tuple(_report.params.values()))


def _mismatches(ident):
    """The (point, y) at which a side of the package's check differs from the oracle's."""
    sides = identities.CATALOG[ident].check.__wrapped__
    out = []
    for point in POINTS[ident]:
        package = sides(*point)
        for y in (2, 3):
            if [side.evaluate(y) for side in package] != list(SIDES[ident](y, *point)):
                out.append((point, y))
    return out


def test_every_entry_with_an_n_axis_is_covered():
    with_n = [i for i, entry in identities.CATALOG.items() if "n" in entry.params]
    assert sorted(SIDES) == sorted(set(with_n) - {"THM1"})
    assert all(POINTS.values())


@pytest.mark.parametrize("ident", SIDES)
def test_each_side_matches_the_oracle(ident):
    assert _mismatches(ident) == []


# the entries whose sides read a triangle entry; EQ4, ID1, ID4 and ID5 are
# the ones whose identity check passes the whole default grid regardless
READ_TRIANGLES = ("EQ4", "ID1", "ID2", "ID3", "ID4", "ID5", "ID6", "EQ12")


@pytest.mark.parametrize("ident", READ_TRIANGLES)
def test_a_doubled_triangle_weight_fails_each_side_check(monkeypatch, ident):
    summed = trib._triangle_sum

    def doubled(parts):
        return summed((n, i, 2 * weight, shift) for n, i, weight, shift in parts)

    monkeypatch.setattr(trib, "_triangle_sum", doubled)
    assert _mismatches(ident)
