"""The closed forms far past the enumeration cap, against the benchmark's
integer oracle.

``perfbench/oracle.py`` computes each family at an integer x by row
recurrences over tilings, on plain ints, and never imports tribpoly; it is
loaded here by path so that tests and benchmark share one oracle.  Values
at x = 1 and 2 alone would miss a fault of (x - 1)(x - 2)·x^k, so the
cheaper cases are also compared at a power of two wide enough to separate
every coefficient.
"""

import importlib.util
from pathlib import Path

import pytest

from tribpoly import tribonacci as trib

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("tribpoly_test_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

CASES = [
    # incomplete members: level -1, level 0, a middle level, the top level, a clamped level
    ("incomplete_tribonacci_poly", (100, -1)),
    ("incomplete_tribonacci_poly", (100, 0)),
    ("incomplete_tribonacci_poly", (257, 40)),
    ("incomplete_tribonacci_poly", (400, 199)),
    ("incomplete_tribonacci_poly", (301, 150)),
    ("incomplete_tribonacci_poly", (301, 180)),
    ("overshoot_poly", (100, 0)),
    ("overshoot_poly", (233, 17)),
    ("overshoot_poly", (400, 60)),
    ("triangle_poly", (100, 0)),
    ("triangle_poly", (120, 40)),
    ("triangle_poly", (300, 100)),
    ("triangle_poly", (200, 200)),
    ("triangle_poly", (150, 151)),  # i > n: the zero polynomial
    ("tribonacci_poly_explicit", (100,)),
    ("tribonacci_poly_explicit", (399,)),
    ("tribonacci_poly", (400,)),
    ("incomplete_fibonacci_poly", (100, 0)),
    ("incomplete_fibonacci_poly", (250, 70)),
    ("incomplete_fibonacci_poly", (400, 199)),
    ("incomplete_fibonacci_poly", (333, 900)),
]

# the cases cheap enough to compare coefficient by coefficient as well; at
# the largest sizes the oracle's rows of wide integers take seconds each
COEFFICIENT_CASES = [
    ("incomplete_tribonacci_poly", (257, 40)),
    ("overshoot_poly", (233, 17)),
    ("triangle_poly", (120, 40)),
    ("tribonacci_poly_explicit", (399,)),
    ("tribonacci_poly", (400,)),
    ("tribonacci_poly", (trib.MEMO_BOUND + 1,)),  # the first member past the memo
    ("incomplete_fibonacci_poly", (250, 70)),
]


@pytest.mark.parametrize("name, args", CASES, ids=[f"{n}{a}" for n, a in CASES])
def test_closed_form_matches_oracle_past_the_cap(name, args):
    value = getattr(trib, name)(*args)
    for x in (1, 2):
        assert value.evaluate(x) == getattr(oracle, name)(*args, x)


@pytest.mark.parametrize(
    "name, args", COEFFICIENT_CASES, ids=[f"{n}{a}" for n, a in COEFFICIENT_CASES]
)
def test_closed_form_matches_oracle_coefficient_by_coefficient(name, args):
    # The true coefficients are non-negative and sum to the value at x = 1,
    # so each coefficient of the difference from the package's value is
    # below 2^(b - 1) in size; a base-2^b expansion with such digits is zero
    # only if every digit is, so equal values at x = 2^b mean equal polynomials.
    value = getattr(trib, name)(*args)
    exact = getattr(oracle, name)
    b = 2 + max([exact(*args, 1).bit_length(), *(c.bit_length() for c in value.coeffs)])
    assert value.evaluate(1 << b) == exact(*args, 1 << b)


def test_numbers_match_oracle_past_the_cap():
    for n in (100, 301, 400):
        assert trib.tribonacci_number(n) == oracle.tribonacci_number(n)
        expected = oracle.incomplete_tribonacci_poly(n, n // 5, 1)
        assert trib.incomplete_tribonacci_number(n, n // 5) == expected


def test_explicit_and_recurrence_routes_agree_at_the_big_index_size():
    # the two routes share no code: the double sum against the memo's recurrence
    n = 900
    assert trib.tribonacci_poly_explicit(n) == trib.tribonacci_poly(n + 1)
