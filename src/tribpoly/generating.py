"""Generating functions of the level-s incomplete family, as truncated series in z.

At a fixed restriction level s, the incomplete tribonacci polynomials have
the ordinary generating function

    sum_n T_n^(s)(x) z^n = z^(2s+1) (head(z) - overshoot(z)) / D(z),

with D = 1 - x^2 z - x z^2 - z^3, head the z-quadratic of the split of a
tiling at the cut after cell 2s (``_split_head``, which EQ13 also reads),
and overshoot = z^2 ((x + z) / (1 - x^2 z))^(s+1), the weight of the
tilings that first go over the budget of s longer pieces.

:func:`closed_form_generating_series` expands that rational form and
:func:`direct_generating_series` sums the family from its defining
formulas; THM2 compares the two symbolically and COR2 at x = 1.  This
module needs only ``poly``, ``tribonacci`` and ``series``, so ``tribpoly
gf`` loads neither the identity catalog nor the tilings.
"""

from __future__ import annotations

from typing import Sequence

from . import tribonacci as trib
from .poly import Polynomial, X, ZERO, _require_int
from .series import TruncatedSeries, rational_expand


def _series(terms: Sequence, order: int) -> TruncatedSeries:
    """A series from its leading terms, cut or padded with zeros to the order."""
    return TruncatedSeries(terms[: order + 1], order)


def _split_head(s: int) -> list[Polynomial]:
    """Weights of the first 2s + j cells, j = 0, 1, 2, as a tiling meets the cut after
    cell 2s: no piece across it, a piece ending one past it, a tromino ending two past it."""
    tp = trib.tribonacci_poly
    return [tp(2 * s + 1), tp(2 * s - 1) + tp(2 * s).times_monomial(1, 1), tp(2 * s)]


def _overshoot_series(x, s: int, order: int) -> TruncatedSeries:
    """z^2 * ((x + z) / (1 - x^2 z))^(s+1), for x the symbol X or the number 1.
    Both powers have z-degree s + 1: each is taken at that order, then cut or padded."""
    num, den = ((_series(f, s + 1) ** (s + 1)).coeffs for f in ([x, 1], [1, -(x * x)]))
    return rational_expand(_series(num, order), _series(den, order)).shifted(2)


def overshoot_generating_series(s: int, order: int) -> TruncatedSeries:
    """z^2 * ((x + z) / (1 - x^2 z))^(s+1); its z^n coefficient is
    ``overshoot_poly(n, s)``."""
    _require_int(s, "overshoot level", 0)
    return _overshoot_series(X, s, order)


def direct_generating_series(s: int, order: int, *, x1: bool = False) -> TruncatedSeries:
    """Sum of the level-s incomplete family over all admissible indices,
    straight from the defining formulas; coefficients are numbers when x1."""
    _require_int(s, "restriction level", 0)
    family = trib.incomplete_tribonacci_number if x1 else trib.incomplete_tribonacci_poly
    start = 2 * s + 1  # the lowest index with a level-s member
    return _series([ZERO] * start + [family(k, s) for k in range(start, order + 1)], order)


def closed_form_generating_series(s: int, order: int, *, x1: bool = False) -> TruncatedSeries:
    """Rational closed form of the level-s generating function, expanded.

    The paper's form is z^(2s+1) (head(z) - overshoot(z)) / D(z): head is the
    z-quadratic of EQ13's split (``_split_head``), overshoot is
    ``_overshoot_series`` and D = 1 - x^2 z - x z^2 - z^3.  An expansion costs
    the denominator's nonzero z-terms, so the one by D stays cheap however
    dense the numerator is.
    """
    _require_int(s, "restriction level", 0)
    x = 1 if x1 else X
    denominator = _series([1, -(x * x), -x, -1], order)
    if x1:
        tn = trib.tribonacci_number
        head = [tn(2 * s + 1), tn(2 * s - 1) + tn(2 * s), tn(2 * s)]
        overshoot = _overshoot_series(1, s, order)
    else:
        head = _split_head(s)
        overshoot = overshoot_generating_series(s, order)
    return rational_expand(_series(head, order) - overshoot, denominator).shifted(2 * s + 1)
