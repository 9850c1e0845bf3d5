"""Every integer argument of the families, the overshoot weights, the
truncated series and the tilings is checked at its door, by one rule: a
value that is not an int is a TypeError naming the argument, and a value
below the argument's bound is a ValueError, before any work is done."""

import re

import pytest

from tribpoly import tribonacci as trib
from tribpoly import (
    Polynomial,
    TruncatedSeries,
    X,
    closed_form_generating_series,
    direct_generating_series,
    enumerate_tilings,
    incomplete_fibonacci_poly,
    incomplete_tribonacci_poly,
    overshoot_generating_series,
    overshoot_poly,
    tribonacci_number,
    tribonacci_poly,
    tribonacci_poly_explicit,
)

_not_int = "{} must be an int, got float".format

# door: (a call of the one argument, the TypeError a float gives, and a value
# below the argument's bound with the ValueError it gives, or None for no bound)
DOORS = {
    "from_terms exponent": (
        lambda v: Polynomial.from_terms({v: 1}),
        _not_int("polynomial exponent"),
        (-1, "polynomial exponent must be >= 0, got -1"),
    ),
    "times_monomial exponent": (
        lambda v: X.times_monomial(1, v),
        _not_int("monomial exponent"),
        (-1, "monomial exponent must be >= 0, got -1"),
    ),
    "times_monomial coefficient": (
        lambda v: X.times_monomial(v, 0),
        _not_int("monomial coefficient"),
        None,
    ),
    "evaluate": (
        X.evaluate,
        _not_int("evaluation point"),
        None,
    ),
    "substitute_power": (
        X.substitute_power,
        _not_int("substituted power"),
        (0, "substituted power must be >= 1, got 0"),
    ),
    "series order": (
        lambda v: TruncatedSeries([1], v),
        _not_int("series order"),
        (-1, "series order must be >= 0, got -1"),
    ),
    "series power": (
        lambda v: TruncatedSeries.one(3) ** v,
        _not_int("series exponent"),
        (-1, "series exponent must be >= 0, got -1"),
    ),
    "series shift": (
        TruncatedSeries.one(3).shifted,
        _not_int("shift"),
        (-1, "shift must be >= 0, got -1"),
    ),
    "tribonacci_number": (
        tribonacci_number,
        _not_int("tribonacci index"),
        (-2, "tribonacci index must be >= -1, got -2"),
    ),
    "tribonacci_poly": (
        tribonacci_poly,
        _not_int("tribonacci index"),
        (-2, "tribonacci index must be >= -1, got -2"),
    ),
    "tribonacci_poly_explicit": (
        tribonacci_poly_explicit,
        _not_int("explicit form index"),
        (-1, "explicit form index must be >= 0, got -1"),
    ),
    "incomplete level": (
        lambda v: incomplete_tribonacci_poly(5, v),
        _not_int("restriction level"),
        (-2, "restriction level must be >= -1, got -2"),
    ),
    "incomplete index": (
        lambda v: incomplete_tribonacci_poly(v, 1),
        _not_int("incomplete family index"),
        (0, "incomplete family index must be >= 1, got 0"),
    ),
    "fibonacci level": (
        lambda v: incomplete_fibonacci_poly(5, v),
        _not_int("restriction level"),
        (-2, "restriction level must be >= -1, got -2"),
    ),
    "fibonacci index": (
        lambda v: incomplete_fibonacci_poly(v, 1),
        _not_int("incomplete family index"),
        (0, "incomplete family index must be >= 1, got 0"),
    ),
    "incomplete_sum weight": (
        lambda v: trib.incomplete_sum([(v, 0, 5, 1)]),
        _not_int("incomplete_sum weights"),
        None,
    ),
    "incomplete_sum shift": (
        lambda v: trib.incomplete_sum([(1, v, 5, 1)]),
        _not_int("incomplete_sum shifts"),
        (-1, "incomplete_sum shifts must be >= 0, got -1"),
    ),
    "overshoot index": (
        lambda v: overshoot_poly(v, 1),
        _not_int("overshoot index"),
        (-1, "overshoot index must be >= 0, got -1"),
    ),
    "overshoot level": (
        lambda v: overshoot_poly(3, v),
        _not_int("overshoot level"),
        (-1, "overshoot level must be >= 0, got -1"),
    ),
    "tiling length": (
        enumerate_tilings,
        "tiling length and budget must be ints, got 5000.0 and 5000.0",
        (-1, "tiling length must be >= 0, got -1"),
    ),
    "overshoot series level": (
        lambda v: overshoot_generating_series(v, 10),
        _not_int("overshoot level"),
        (-1, "overshoot level must be >= 0, got -1"),
    ),
    "direct series level": (
        lambda v: direct_generating_series(v, 10),
        _not_int("restriction level"),
        (-1, "restriction level must be >= 0, got -1"),
    ),
    "closed form level": (
        lambda v: closed_form_generating_series(v, 10),
        _not_int("restriction level"),
        (-1, "restriction level must be >= 0, got -1"),
    ),
}


@pytest.mark.parametrize("door", list(DOORS))
def test_each_integer_argument_is_checked_at_its_door(door):
    call, not_int, below = DOORS[door]
    # past the tribonacci memo, so no list index refuses the float first
    with pytest.raises(TypeError, match=f"^{re.escape(not_int)}$"):
        call(5000.0)
    if below is not None:
        value, message = below
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
        call(value + 1)  # the bound itself is admitted


def test_a_far_float_index_walks_nothing(monkeypatch):
    tribonacci_poly(trib.MEMO_BOUND + 5)  # a kept window to watch
    window = trib._window
    steps = []
    real = trib._next_poly
    monkeypatch.setattr(trib, "_next_poly", lambda *a: steps.append(a) or real(*a))
    with pytest.raises(TypeError, match="^tribonacci index must be an int, got float$"):
        tribonacci_poly(5000.0)
    assert steps == []
    assert trib._window is window


@pytest.mark.parametrize(
    "call",
    [
        lambda: incomplete_tribonacci_poly(5, -1.0),
        lambda: incomplete_fibonacci_poly(5, -1.0),
        lambda: tribonacci_number(-1.0),
        lambda: tribonacci_poly(-1.0),
    ],
    ids=["incomplete_tribonacci_poly", "incomplete_fibonacci_poly", "tribonacci_number", "tribonacci_poly"],
)
def test_a_float_minus_one_is_not_read_as_the_zero_member(call):
    with pytest.raises(TypeError):
        call()
