"""Independent integer oracles for the tribpoly families at an integer x.

Each value is a weighted count of tilings, computed by a row-by-row
recurrence on plain Python ints.  Nothing here imports tribpoly, uses its
closed forms or builds a polynomial, so agreement with the package at
x = 1 and x = 2 checks its exact arithmetic from outside.

Tiling weights: plain tilings use square x^2, domino x, tromino 1; colored
tilings use black square x^2, white square x, domino 1; Fibonacci tilings
use square x, domino 1.
"""

from __future__ import annotations


def evaluate(coeffs, x: int) -> int:
    """Horner evaluation of an ascending coefficient sequence at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def tribonacci_number(n: int) -> int:
    if n <= 0:
        return 0
    a, b, c = 0, 0, 1  # values at n - 3, n - 2, n - 1 when the loop ends
    for _ in range(n - 1):
        a, b, c = b, c, a + b + c
    return c


def _exact_longer(length: int, max_longer: int, x: int) -> list[int]:
    """Weights of length-``length`` tilings with exactly k longer pieces,
    for k = 0..max_longer; empty when length < 0."""
    if length < 0 or max_longer < 0:
        return []
    width = max_longer + 1
    zero = [0] * width
    rows = [zero, zero, [1] + [0] * max_longer]  # lengths -2, -1, 0
    x2 = x * x
    for _ in range(length):
        r1, r2, r3 = rows[2], rows[1], rows[0]
        row = [x2 * r1[0]]
        for k in range(1, width):
            row.append(x2 * r1[k] + x * r2[k - 1] + r3[k - 1])
        rows = [r2, r1, row]
    return rows[2]


def incomplete_tribonacci_poly(m: int, s: int, x: int) -> int:
    """Tilings of length m - 1 with at most s longer pieces."""
    return sum(_exact_longer(m - 1, s, x))


def tribonacci_poly(n: int, x: int) -> int:
    """All tilings of length n - 1; index 0 and -1 give 0."""
    if n <= 0:
        return 0
    a, b, c = 0, 0, 1  # lengths -2, -1, 0
    for _ in range(n - 1):
        a, b, c = b, c, x * x * c + x * b + a
    return c


def tribonacci_poly_explicit(n: int, x: int) -> int:
    return tribonacci_poly(n + 1, x)


def overshoot_poly(n: int, s: int, x: int) -> int:
    """Length-(n + 2s) tilings with exactly s + 1 longer pieces whose last
    piece is longer: a domino (weight x) or a tromino after s of them."""
    length = n + 2 * s
    before_domino = _exact_longer(length - 2, s, x)
    before_tromino = _exact_longer(length - 3, s, x)
    total = 0
    if before_domino:
        total += x * before_domino[s]
    if before_tromino:
        total += before_tromino[s]
    return total


def incomplete_fibonacci_poly(n: int, s: int, x: int) -> int:
    """Square/domino tilings of length n - 1 with at most s dominos."""
    if n < 1 or s < 0:
        return 0
    width = s + 1
    prev, cur = [0] * width, [1] + [0] * s  # lengths -1, 0
    for _ in range(n - 1):
        row = [x * cur[0]] + [x * cur[k] + prev[k - 1] for k in range(1, width)]
        prev, cur = cur, row
    return sum(cur)


def triangle_poly(n: int, i: int, x: int) -> int:
    """Colored tilings of length n with white squares + dominos == i."""
    if n < 0 or i < 0:
        return 0
    width = i + 1
    prev, cur = [0] * width, [1] + [0] * i  # lengths -1, 0
    x2 = x * x
    for _ in range(n):
        row = [x2 * cur[0]] + [
            x2 * cur[k] + x * cur[k - 1] + prev[k - 1] for k in range(1, width)
        ]
        prev, cur = cur, row
    return cur[i]


FAMILIES = {
    "tribonacci_poly": tribonacci_poly,
    "tribonacci_poly_explicit": tribonacci_poly_explicit,
    "incomplete_tribonacci_poly": incomplete_tribonacci_poly,
    "overshoot_poly": overshoot_poly,
    "triangle_poly": triangle_poly,
    "incomplete_fibonacci_poly": incomplete_fibonacci_poly,
}


def family_values(fn: str, args) -> dict[str, str]:
    """Expected observation of a family op: the value at x = 1 and x = 2, in hex."""
    f = FAMILIES[fn]
    return {"at1": hex(f(*args, 1)), "at2": hex(f(*args, 2))}
