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
from itertools import zip_longest
from typing import Iterable

from .poly import ONE, Polynomial, ZERO, _require_int

_X_SQUARED = Polynomial((0, 0, 1))


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


# ----------------------------------------------------------------------
# the polynomials are memoised up to MEMO_BOUND; a farther member is walked
# by a three-member window, from the memo's end or from one of the last two
# walks' windows, whichever is nearest.  The walked window is kept with its
# start, or, when the two overlap, with the other kept window, so that a
# sweep reading two places per point walks each place forward a step.  The
# lock is held only to extend the memo, whose length is checked again under
# it, so racing threads never append past the bound.  Computed members are
# read without it, and windows are walked outside it and published by one
# tuple assignment.  Every exponent of T(k) is 2k + 1 mod 3, so both walk
# x^3-compressed lists and expand a member once, when memoised or returned:
# a cold T(1400) takes about 75 ms against 167 ms dense (BENCH_25.json).

# index of the last memoised member; the memo holds about 3.8 MB
MEMO_BOUND = 400

_cache_lock = threading.Lock()
_polys: list[Polynomial] = [ZERO, ONE, _X_SQUARED]
# windows (k, T(k - 2), T(k - 1), T(k)), compressed, past the memo, the last walk's first
_window: tuple[tuple[int, list[int], list[int], list[int]], ...] | None = None


def tribonacci_number(n: int) -> int:
    """n-th tribonacci number: each term is the sum of the previous three."""
    _require_int(n, "tribonacci index", -1)
    a, b, c = 0, 1, 1  # the numbers of index k, k + 1, k + 2, from k = 0
    for _ in range(n):
        a, b, c = b, c, a + b + c
    return a


def _residue(k: int) -> int:
    """r with T(k) = x^r P(x^3); T(k)'s compressed list holds P's coefficients."""
    return (2 * k + 1) % 3


def _pad(k: int, degree: int, comp: list[int]) -> list[int]:
    """x^degree T(k) on the compressed slots of r(k) + degree mod 3."""
    return [0] * ((_residue(k) + degree) // 3) + comp


def _compress(k: int) -> list[int]:
    """T(k)'s compressed list, from the memo."""
    return list(tribonacci_poly(k).coeffs[_residue(k) :: 3])


def _expand(k: int, comp: list[int]) -> Polynomial:
    """T(k) from its compressed list.  8 spare slots, stripped by ``_trusted``,
    let the freed buffer take the next member's tuple, 2 coefficients longer:
    with a tight one, a big-index benchmark pass peaked 0.7 MB higher."""
    r = _residue(k)
    out = [0] * (r + 3 * len(comp) + 6)
    out[r : r + 3 * len(comp) : 3] = comp
    return Polynomial._trusted(out)


def _next_poly(k: int, a: list[int], b: list[int], c: list[int]) -> list[int]:
    """T(k + 1) from T(k - 2), T(k - 1), T(k), all compressed:
    x^2 T(k) + x T(k-1) + T(k-2), summed slot by slot."""
    shifted = zip_longest(_pad(k, 2, c), _pad(k - 1, 1, b), a, fillvalue=0)
    return [p + q + r for p, q, r in shifted]


def _prev_poly(k: int, a: list[int], b: list[int], c: list[int]) -> list[int]:
    """T(k - 3) from compressed T(k - 2), T(k - 1), T(k): the same step solved
    for its last term, T(k) - x^2 T(k-1) - x T(k-2), cancelled top slots stripped."""
    shifted = zip_longest(c, _pad(k - 1, 2, b), _pad(k - 2, 1, a), fillvalue=0)
    out = [p - q - r for p, q, r in shifted]
    while out and not out[-1]:
        out.pop()
    return out


def tribonacci_poly(n: int) -> Polynomial:
    """n-th tribonacci polynomial via the x^2/x/1 weighted recurrence.

    Past ``MEMO_BOUND``, members near one of the last two walked to, on
    either side, cost a few steps each; a run of them read in order walks
    each step once."""
    global _window
    if 0 <= n < len(_polys):
        return _polys[n]
    _require_int(n, "tribonacci index", -1)
    if n == -1:
        return ZERO
    if n <= MEMO_BOUND:
        with _cache_lock:
            k = len(_polys) - 1
            a, b, c = map(_compress, range(k - 2, k + 1))
            while k < n:
                k, a, b, c = k + 1, b, c, _next_poly(k, a, b, c)
                _polys.append(_expand(k, c))
        return _polys[n]
    kept = _window or ()
    # the fewest steps; on a tie a kept window, and the memo's end last
    start = min((*kept, (MEMO_BOUND,)), key=lambda w: max(n - w[0], w[0] - 2 - n))
    if start[0] == MEMO_BOUND:
        start = (MEMO_BOUND, *map(_compress, range(MEMO_BOUND - 2, MEMO_BOUND + 1)))
    k, a, b, c = start
    while k < n:
        k, a, b, c = k + 1, b, c, _next_poly(k, a, b, c)
    while k - 2 > n:
        k, a, b, c = k - 1, _prev_poly(k, a, b, c), a, b
    if k != start[0]:
        others = [w for w in (start, *kept) if w[0] > MEMO_BOUND and abs(w[0] - k) > 2]
        _window = ((k, a, b, c), *others[:1])
    return _expand(n, (a, b, c)[n - k + 2])


def _triangle_sum(parts: Iterable[tuple[int, int, int, int]]) -> Polynomial:
    """Sum of ``weight * x^shift * B(n, i)`` over the ``(n, i, weight, shift)``
    parts.  B(n, i) = sum_j binom(i, j) binom(n-j, i) x^(2n-i-3j), the
    tribonacci-triangle entry, weighs the length-(n+i) tilings with exactly
    i longer pieces; it is zero for i < 0 or n < i.

    The term of j is nonzero for 0 <= j <= min(i, n-i).  Its coefficient
    c_j = binom(i, j) binom(n-j, i) is stepped, not recomputed:
    c_(j+1) = c_j (i-j) (n-i-j) / ((j+1) (n-j)).  Each division is exact,
    because c_j (i-j) (n-i-j) equals the integer c_(j+1) times the divisor
    (n-j >= 1 at every step taken); the weight rides along in c_j."""
    live = [(n, i, weight, shift) for n, i, weight, shift in parts if weight and 0 <= i <= n]
    if not live:
        return ZERO
    out = [0] * (max(2 * n - i + shift for n, i, _, shift in live) + 1)
    for n, i, weight, shift in live:
        e = 2 * n - i + shift
        c = weight * math.comb(n, i)
        out[e] += c
        for j in range(min(i, n - i)):
            c = c * (i - j) * (n - i - j) // ((j + 1) * (n - j))
            e -= 3
            out[e] += c
    return Polynomial._trusted(out)


def level_sum(n: int, weights: Iterable[int]) -> Polynomial:
    """Levels i = 0, 1, ... of the index-(n+1) double sum, level i weighted
    by ``weights[i]``; level i is B(n-i, i)."""
    weights = list(weights)
    for weight in weights:
        if not isinstance(weight, int):
            raise TypeError(f"level_sum weights must be ints, got {type(weight).__name__}")
    return _triangle_sum((n - i, i, weight, 0) for i, weight in enumerate(weights))


def tribonacci_poly_explicit(n: int) -> Polynomial:
    """Index-(n+1) tribonacci polynomial from the closed double sum.

    Independent of the recurrence on purpose: agreement of the two routes
    is one of the package's cross-checks.
    """
    _require_int(n, "explicit form index", 0)
    return level_sum(n, [1] * (n // 2 + 1))


def triangle_poly(n: int, i: int) -> Polynomial:
    """Polynomial refinement of the tribonacci-triangle entry at row n, column i.

    Out-of-range (n, i) give the zero polynomial via the binomial conventions;
    evaluating at x = 1 gives the plain triangle entry.
    """
    return _triangle_sum([(n, i, 1, 0)])


def _top_level(m: int, s: int) -> int:
    """The last level kept by the index-m incomplete member cut at level s:
    -1 (no level, the zero member) for s = -1, whatever m is; levels beyond
    floor((m-1)/2) are clamped."""
    _require_int(s, "restriction level", -1)
    if s == -1:
        return -1
    _require_int(m, "incomplete family index", 1)
    return min(s, (m - 1) // 2)


def incomplete_tribonacci_poly(m: int, s: int) -> Polynomial:
    """Incomplete tribonacci polynomial of index m, cut at outer level s.

    s = -1 gives the zero polynomial; s beyond floor((m-1)/2) is clamped,
    so the top level equals ``tribonacci_poly(m)``.
    """
    return level_sum(m - 1, [1] * (_top_level(m, s) + 1))


def incomplete_sum(terms: list[tuple[int, int, int, int]]) -> Polynomial:
    """Sum of ``c * x^e * incomplete_tribonacci_poly(m, s)`` over the
    ``(c, e, m, s)`` terms, shifts e >= 0, as one triangle sum: level l of
    the index-m member is B(m-1-l, l)."""
    for c, e, _, _ in terms:
        _require_int(c, "incomplete_sum weights")
        _require_int(e, "incomplete_sum shifts", 0)
    return _triangle_sum(
        (m - 1 - l, l, c, e) for c, e, m, s in terms for l in range(_top_level(m, s) + 1)
    )


def incomplete_tribonacci_number(m: int, s: int) -> int:
    """Incomplete tribonacci number: the index-m, level-s polynomial at x = 1."""
    return incomplete_tribonacci_poly(m, s).evaluate(1)


def incomplete_fibonacci_poly(n: int, s: int) -> Polynomial:
    """Incomplete Fibonacci polynomial of index n, cut after term s.

    Same conventions as the tribonacci variant: s = -1 is zero, larger s
    clamps to floor((n-1)/2).
    """
    levels = range(_top_level(n, s) + 1)  # binom(n-r-1, r) > 0 on each
    return Polynomial.from_terms({n - 2 * r - 1: math.comb(n - r - 1, r) for r in levels})


def overshoot_poly(n: int, s: int) -> Polynomial:
    """Weight of length-(n + 2s) tilings with exactly s + 1 longer pieces that
    end in a longer piece: the minimal ways a tiling first exceeds a budget
    of s longer pieces.

    These are the subtraction kernel relating the full polynomials to the
    incomplete ones; their generating series in z is
    z^2 * ((x + z) / (1 - x^2 z))^(s+1).
    """
    _require_int(n, "overshoot index", 0)
    _require_int(s, "overshoot level", 0)
    # remove the last longer piece: a domino (weight x) or a tromino (weight 1)
    return _triangle_sum([(n + s - 2, s, 1, 1), (n + s - 3, s, 1, 0)])
