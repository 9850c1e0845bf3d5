"""Tribonacci numbers and polynomials, their incomplete (restricted) variants,
the tribonacci-triangle entries, and the overshoot weights.

Index conventions, used consistently across the package:

* ``tribonacci_number(0) == 0`` and the next two values are 1; index -1 is
  admitted and equals 0 so that boundary terms of the identities read
  uniformly.
* ``tribonacci_poly(1) == 1`` and ``tribonacci_poly(2) == x**2``; evaluating
  any member at x = 1 gives the number of the same index.
* ``incomplete_tribonacci_poly(m, s)`` is the index-m family member whose
  expansion is cut after outer summation level s.  Level -1 gives the zero
  polynomial; levels beyond floor((m-1)/2) are clamped, so the top level
  reproduces the full polynomial.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

from .poly import ONE, Polynomial, ZERO

_X_SQUARED = Polynomial((0, 0, 1))


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


# ----------------------------------------------------------------------
# memoized recurrences; the lock keeps cache extension safe under threads

_cache_lock = threading.Lock()
_numbers: list[int] = [0, 1, 1]
_polys: list[Polynomial] = [ZERO, ONE, _X_SQUARED]


def tribonacci_number(n: int) -> int:
    """n-th tribonacci number: each term is the sum of the previous three."""
    if n == -1:
        return 0
    if n < -1:
        raise ValueError(f"tribonacci index must be >= -1, got {n}")
    with _cache_lock:
        while len(_numbers) <= n:
            _numbers.append(_numbers[-1] + _numbers[-2] + _numbers[-3])
        return _numbers[n]


def tribonacci_poly(n: int) -> Polynomial:
    """n-th tribonacci polynomial via the x^2/x/1 weighted recurrence."""
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError(f"tribonacci index must be >= -1, got {n}")
    with _cache_lock:
        while len(_polys) <= n:
            nxt = (
                _polys[-1].times_monomial(1, 2)
                + _polys[-2].times_monomial(1, 1)
                + _polys[-3]
            )
            _polys.append(nxt)
        return _polys[n]


def level_sum(n: int, weights: Iterable[int]) -> Polynomial:
    """Levels i = 0, 1, ... of the index-(n+1) double sum, level i weighted
    by ``weights[i]``; level i is sum_j binom(i, j) binom(n-i-j, i) x^(2n-3(i+j))."""
    terms: dict[int, int] = {}
    for i, weight in enumerate(weights):
        for j in range(i + 1):
            c = math.comb(i, j) * binom(n - i - j, i)  # 0 <= j <= i: no range check
            if c:
                e = 2 * n - 3 * (i + j)
                terms[e] = terms.get(e, 0) + weight * c
    return Polynomial.from_terms(terms)


def tribonacci_poly_explicit(n: int) -> Polynomial:
    """Index-(n+1) tribonacci polynomial from the closed double sum.

    Independent of the recurrence on purpose: agreement of the two routes
    is one of the package's cross-checks.
    """
    if n < 0:
        raise ValueError(f"explicit form needs n >= 0, got {n}")
    return level_sum(n, [1] * (n // 2 + 1))


def triangle_poly(n: int, i: int) -> Polynomial:
    """Polynomial refinement of the tribonacci-triangle entry at row n, column i.

    Out-of-range (n, i) give the zero polynomial via the binomial conventions;
    evaluating at x = 1 gives the plain triangle entry.
    """
    terms: dict[int, int] = {}
    for j in range(max(i, -1) + 1):
        c = binom(i, j) * binom(n - j, i)
        if c:
            e = 2 * n - i - 3 * j
            terms[e] = terms.get(e, 0) + c
    return Polynomial.from_terms(terms)


def incomplete_tribonacci_poly(m: int, s: int) -> Polynomial:
    """Incomplete tribonacci polynomial of index m, cut at outer level s.

    s = -1 gives the zero polynomial; s beyond floor((m-1)/2) is clamped,
    so the top level equals ``tribonacci_poly(m)``.
    """
    if s == -1:
        return ZERO
    if s < -1:
        raise ValueError(f"restriction level must be >= -1, got {s}")
    if m < 1:
        raise ValueError(f"incomplete family index must be >= 1, got {m}")
    return level_sum(m - 1, [1] * (min(s, (m - 1) // 2) + 1))


def incomplete_tribonacci_number(m: int, s: int) -> int:
    """Incomplete tribonacci number: the index-m, level-s polynomial at x = 1."""
    return incomplete_tribonacci_poly(m, s).evaluate(1)


def incomplete_fibonacci_poly(n: int, s: int) -> Polynomial:
    """Incomplete Fibonacci polynomial of index n, cut after term s.

    Same conventions as the tribonacci variant: s = -1 is zero, larger s
    clamps to floor((n-1)/2).
    """
    if s == -1:
        return ZERO
    if s < -1:
        raise ValueError(f"restriction level must be >= -1, got {s}")
    if n < 1:
        raise ValueError(f"incomplete family index must be >= 1, got {n}")
    s = min(s, (n - 1) // 2)
    terms: dict[int, int] = {}
    for r in range(s + 1):
        c = binom(n - r - 1, r)
        if c:
            e = n - 2 * r - 1
            terms[e] = terms.get(e, 0) + c
    return Polynomial.from_terms(terms)


def overshoot_poly(n: int, s: int) -> Polynomial:
    """Weight of length-(n + 2s) tilings with exactly s + 1 longer pieces that
    end in a longer piece: the minimal ways a tiling first exceeds a budget
    of s longer pieces.

    These are the subtraction kernel relating the full polynomials to the
    incomplete ones; their generating series in z is
    z^2 * ((x + z) / (1 - x^2 z))^(s+1).
    """
    if n < 0:
        raise ValueError(f"overshoot index must be >= 0, got {n}")
    if s < 0:
        raise ValueError(f"overshoot level must be >= 0, got {s}")
    if n <= 1:
        return ZERO
    if n == 2:
        return Polynomial.monomial(1, s + 1)
    terms: dict[int, int] = {}
    for j in range(s + 1):
        c = binom(s, j) * binom(n + s - j - 2, s)
        if c:
            e = 2 * n + s - 3 * j - 3
            terms[e] = terms.get(e, 0) + c
        c = binom(s, j) * binom(n + s - j - 3, s)
        if c:
            e = 2 * n + s - 3 * j - 6
            terms[e] = terms.get(e, 0) + c
    return Polynomial.from_terms(terms)
