import functools
import math
import random
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tribpoly import tribonacci as trib
from tribpoly import (
    GridConfig,
    Polynomial,
    ZERO,
    binom,
    incomplete_fibonacci_poly,
    incomplete_tribonacci_number,
    incomplete_tribonacci_poly,
    overshoot_generating_series,
    overshoot_poly,
    run_grid,
    triangle_poly,
    tribonacci_number,
    tribonacci_poly,
    tribonacci_poly_explicit,
)

# frozen from the defining recurrence (t0 = 0, t1 = t2 = 1)
T_NUMBERS = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136, 5768, 10609, 19513, 35890, 66012]


def poly_of(terms):
    return Polynomial.from_terms(terms)


def test_binom_zero_conventions():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-1, 0) == 0
    assert binom(0, 0) == 1


def test_numbers():
    assert [tribonacci_number(n) for n in range(21)] == T_NUMBERS
    assert tribonacci_number(-1) == 0
    with pytest.raises(ValueError):
        tribonacci_number(-2)


def test_poly_base_cases():
    assert tribonacci_poly(-1) == ZERO
    assert tribonacci_poly(0) == ZERO
    assert tribonacci_poly(1) == Polynomial((1,))
    assert tribonacci_poly(2) == poly_of({2: 1})
    assert tribonacci_poly(3) == poly_of({4: 1, 1: 1})
    assert tribonacci_poly(4) == poly_of({6: 1, 3: 2, 0: 1})
    with pytest.raises(ValueError):
        tribonacci_poly(-3)


def test_poly_recurrence_closure():
    for n in range(3, 25):
        expected = (
            tribonacci_poly(n - 1).times_monomial(1, 2)
            + tribonacci_poly(n - 2).times_monomial(1, 1)
            + tribonacci_poly(n - 3)
        )
        assert tribonacci_poly(n) == expected


def test_polys_evaluate_to_numbers():
    for n in range(-1, 21):
        assert tribonacci_poly(n).evaluate(1) == tribonacci_number(n)


def test_explicit_form_matches_recurrence():
    for n in range(0, 21):
        assert tribonacci_poly_explicit(n) == tribonacci_poly(n + 1)
    assert tribonacci_poly_explicit(5).evaluate(1) == 13
    with pytest.raises(ValueError):
        tribonacci_poly_explicit(-1)


def test_triangle_poly():
    assert triangle_poly(5, 1) == poly_of({9: 5, 6: 4})
    assert triangle_poly(2, 1) == poly_of({3: 2, 0: 1})
    assert triangle_poly(4, 2).evaluate(1) == 13
    assert triangle_poly(0, 0) == Polynomial((1,))
    # out of range collapses to zero via the binomial conventions
    assert triangle_poly(-1, 0) == ZERO
    assert triangle_poly(3, -1) == ZERO
    assert triangle_poly(1, 4) == ZERO


def test_triangle_row_sums_give_numbers():
    for n in range(21):
        total = sum(
            triangle_poly(n - i, i).evaluate(1) for i in range(n // 2 + 1)
        )
        assert total == tribonacci_number(n + 1)


def test_incomplete_examples():
    assert incomplete_tribonacci_poly(6, 1) == poly_of({10: 1, 7: 4, 4: 3})
    assert incomplete_tribonacci_poly(6, 2) == tribonacci_poly(6)
    assert incomplete_tribonacci_poly(6, 0) == poly_of({10: 1})
    assert incomplete_tribonacci_poly(1, 0) == Polynomial((1,))
    assert incomplete_tribonacci_poly(4, -1) == ZERO


def test_incomplete_is_partial_sum_of_triangle():
    for m in range(1, 18):
        for s in range(-1, (m - 1) // 2 + 1):
            expected = ZERO
            for i in range(s + 1):
                expected = expected + triangle_poly(m - 1 - i, i)
            assert incomplete_tribonacci_poly(m, s) == expected
    # the level lemma: level j of the index-m member is B(m-1-j, j), so the
    # step from level j - 1 to j is that entry; past the top both are zero
    for m in range(1, 60):
        for j in range(12):
            step = incomplete_tribonacci_poly(m, j) - incomplete_tribonacci_poly(m, j - 1)
            assert step == triangle_poly(m - 1 - j, j)


def test_incomplete_clamps_to_full_polynomial():
    for m in range(1, 16):
        top = (m - 1) // 2
        assert incomplete_tribonacci_poly(m, top) == tribonacci_poly(m)
        assert incomplete_tribonacci_poly(m, top + 3) == tribonacci_poly(m)


def test_incomplete_validation():
    for m, s in [(0, 0), (-2, 3), (5, -2)]:
        with pytest.raises(ValueError):
            incomplete_tribonacci_poly(m, s)
        with pytest.raises(ValueError):
            trib.incomplete_sum([(1, 0, 5, 1), (1, 2, m, s)])
    # a negative shift is refused, as times_monomial refuses it, even on a
    # zero member; it would index the sum's list from its end
    for term in [(1, -3, 2, 0), (1, -1, 3, 1), (1, -1, 4, -1)]:
        with pytest.raises(ValueError, match="shifts must be >= 0"):
            trib.incomplete_sum([(1, 4, 9, 2), term])
    with pytest.raises(TypeError):
        trib.incomplete_sum([(0.5, 0, 3, 1)])
    with pytest.raises(TypeError, match="^level_sum weights must be an int, got float$"):
        trib.level_sum(6, [1.5, 1])
    # level -1 short-circuits before the index check (boundary convention)
    assert incomplete_tribonacci_poly(-1, -1) == ZERO


def test_monotone_staircase():
    # each level adds a non-negative triangle slice
    for m in range(1, 16):
        for s in range((m - 1) // 2 + 2):
            step = incomplete_tribonacci_poly(m, s) - incomplete_tribonacci_poly(m, s - 1)
            assert step == triangle_poly(m - 1 - s, s)
            assert all(c >= 0 for c in step.coeffs)


def test_incomplete_numbers():
    assert incomplete_tribonacci_number(6, 1) == 8
    assert incomplete_tribonacci_number(6, 2) == 13
    for m in range(1, 16):
        top = (m - 1) // 2
        assert incomplete_tribonacci_number(m, top) == tribonacci_number(m)
        assert incomplete_tribonacci_number(m, 0) == 1


def test_incomplete_fibonacci():
    assert incomplete_fibonacci_poly(5, 1) == poly_of({4: 1, 2: 3})
    assert incomplete_fibonacci_poly(1, 0) == Polynomial((1,))
    assert incomplete_fibonacci_poly(4, 0) == poly_of({3: 1})
    assert incomplete_fibonacci_poly(3, -1) == ZERO
    assert incomplete_fibonacci_poly(5, 9) == incomplete_fibonacci_poly(5, 2)
    with pytest.raises(ValueError):
        incomplete_fibonacci_poly(0, 0)
    with pytest.raises(ValueError):
        incomplete_fibonacci_poly(4, -3)


def test_overshoot_base_cases():
    for s in range(5):
        assert overshoot_poly(0, s) == ZERO
        assert overshoot_poly(1, s) == ZERO
        assert overshoot_poly(2, s) == Polynomial((1,)).times_monomial(1, s + 1)
    assert overshoot_poly(3, 0) == poly_of({3: 1, 0: 1})
    assert overshoot_poly(4, 0) == poly_of({5: 1, 2: 1})
    with pytest.raises(ValueError):
        overshoot_poly(-1, 0)
    with pytest.raises(ValueError):
        overshoot_poly(3, -1)


def test_overshoot_matches_generating_series():
    for s in range(5):
        series = overshoot_generating_series(s, 25)
        for n in range(26):
            assert series.coeffs[n] == overshoot_poly(n, s)


def test_memoization_is_thread_safe(monkeypatch):
    # from the three seeds, so that the threads extend the memo together
    monkeypatch.setattr(trib, "_polys", [ZERO, Polynomial((1,)), poly_of({2: 1})])
    start = threading.Barrier(8)
    results: list[tuple[list[int], list[Polynomial]]] = []

    def worker():
        start.wait()
        top = tribonacci_poly(119)
        polys = [tribonacci_poly(n) for n in range(119)] + [top]
        results.append(([tribonacci_number(n) for n in range(120)], polys))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)
    numbers, polys = results[0]
    assert numbers[:21] == T_NUMBERS
    assert [p.evaluate(1) for p in polys] == numbers
    memo = trib._polys
    assert len(memo) >= 120 and memo[:120] == polys
    for n in range(3, len(memo)):
        step = memo[n - 1].times_monomial(1, 2) + memo[n - 2].times_monomial(1, 1)
        assert memo[n] == step + memo[n - 3]


def test_memo_readers_never_wait():
    k = 60
    expected = tribonacci_poly(k)  # in the memo before the lock is taken
    got = {}

    def reader():
        got["poly"] = tribonacci_poly(k)
        got["number"] = tribonacci_number(300)

    with trib._cache_lock:
        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout=5)
        finished = not thread.is_alive()
    thread.join()
    assert finished, "a memo reader waited on the extension lock"
    assert got["poly"] == expected
    assert got["number"] == tribonacci_poly(300).evaluate(1)


def triangle_sum_by_definition(parts):
    terms: dict[int, int] = {}
    for n, i, weight, shift in parts:
        for j in range(i + 1):  # empty for i < 0
            e = 2 * n - i - 3 * j + shift
            lower = math.comb(n - j, i) if n - j >= 0 else 0  # zero for n - j < i
            terms[e] = terms.get(e, 0) + weight * math.comb(i, j) * lower
    return Polynomial.from_terms(terms)


triangle_parts = st.tuples(
    st.integers(min_value=-2, max_value=60),
    st.integers(min_value=-2, max_value=40),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=2),
)


# the sum is one pass that grows its list as a part needs it, so the order
# of the parts' top exponents 2n - i + shift matters to it
@given(st.lists(triangle_parts, max_size=4))
@example([])
@example([(0, 0, 1, 0)])  # n = 0, i = 0
@example([(7, 0, 2, 1)])  # i = 0: the single term x^(2n)
@example([(9, 9, 1, 0)])  # n = i: only j = 0 survives
@example([(5, 8, 3, 2)])  # n < i: zero
@example([(0, 3, 1, 0)])  # n = 0 < i
@example([(5, -1, 3, 0), (4, 6, 2, 1), (9, 2, 0, 4)])  # i < 0, i > n, weight 0: zero
@example([(12, 4, 2, 1), (12, 4, -2, 1)])  # weights that cancel
@example([(12, 4, 2, 1), (6, 1, 1, 0), (12, 4, -2, 1)])  # a cancelled top
@example([(30, 10, 1, 1), (29, 10, 1, 0)])  # overshoot_poly's two parts
@example([(2, 1, 1, 0), (5, 2, 1, 1), (9, 3, 2, 0), (14, 4, 1, 3)])  # ascending exponents
@example([(14, 4, 1, 3), (9, 3, 2, 0), (5, 2, 1, 1), (2, 1, 1, 0)])  # descending exponents
@example([(8, 3, 0, 2), (8, 3, -1, 0), (11, 2, -5, 1), (6, 2, 1, 7), (3, 0, 4, 11)])  # weights, shifts
@example([(5, -1, 3, 0), (4, 6, 2, 1), (-2, -3, 1, 2), (7, 2, 1, 0)])  # i < 0 and i > n
def test_triangle_sum_matches_its_definition(parts):
    result = trib._triangle_sum(parts)
    assert result == triangle_sum_by_definition(parts)
    assert not result.coeffs or result.coeffs[-1] != 0
    by_part = ZERO
    for n, i, weight, shift in parts:
        by_part = by_part + triangle_poly(n, i).times_monomial(weight, shift)
    assert result == by_part
    assert trib._triangle_sum(iter(parts)) == result  # read once, as a generator is


incomplete_terms = st.one_of(
    # (c, e, m, s); s runs past the top level floor((m-1)/2) of small m
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=-1, max_value=25),
    ),
    # level -1 is the zero member whatever m is
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-3, max_value=0),
        st.just(-1),
    ),
)


@given(st.lists(incomplete_terms, max_size=5))
@example([])
@example([(1, 0, 1, 0)])  # the member 1
@example([(2, 3, 9, -1)])  # level -1: zero
@example([(1, 2, 7, 10)])  # past the top: the full member
@example([(0, 1, 12, 3)])  # c = 0
@example([(3, 1, 15, 4), (-3, 1, 15, 4)])  # members that cancel
@example([(1, 2, 8, 2), (1, 1, 7, 2), (1, 0, 6, 2)])  # EQ4's three members
def test_incomplete_sum_matches_the_members(terms):
    expected = ZERO
    for c, e, m, s in terms:
        expected = expected + incomplete_tribonacci_poly(m, s).times_monomial(c, e)
    result = trib.incomplete_sum(terms)
    assert result == expected
    assert not result.coeffs or result.coeffs[-1] != 0


# ----------------------------------------------------------------------
# the memo bound: members past it are walked, never kept

FAR_RUN = range(trib.MEMO_BOUND - 3, trib.MEMO_BOUND + 61)


@functools.lru_cache(maxsize=None)
def plain_recurrence(top: int) -> tuple[Polynomial, ...]:
    """T(0..top), one member after another, in one thread and with no memo."""
    members = [ZERO, Polynomial((1,)), poly_of({2: 1})]
    while len(members) <= top:
        step = members[-1].times_monomial(1, 2) + members[-2].times_monomial(1, 1)
        members.append(step + members[-3])
    return tuple(members)


@pytest.fixture
def cold_memo(monkeypatch):
    monkeypatch.setattr(trib, "_polys", [ZERO, Polynomial((1,)), poly_of({2: 1})])
    monkeypatch.setattr(trib, "_window", None)


def test_memo_stays_within_its_bound_after_a_far_member(cold_memo):
    far = tribonacci_poly(3000)
    assert len(trib._polys) <= trib.MEMO_BOUND + 1
    assert far.evaluate(1) == tribonacci_number(3000)
    assert far.coeffs[-1] == 1 and len(far.coeffs) == 2 * 3000 - 1


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_members_past_the_bound_match_the_plain_recurrence(cold_memo, order):
    indices = list(FAR_RUN)
    if order == "descending":
        indices.reverse()
    elif order == "shuffled":
        random.Random(16).shuffle(indices)
    expected = plain_recurrence(FAR_RUN[-1])
    for n in indices:
        assert tribonacci_poly(n) == expected[n], n
    assert len(trib._polys) == trib.MEMO_BOUND + 1


def test_a_run_past_the_bound_walks_each_step_once(cold_memo, monkeypatch):
    steps = []

    def counted(name):
        real = getattr(trib, name)

        def step(*members):
            steps.append(name)
            return real(*members)

        return step

    for name in ("_next_poly", "_prev_poly"):
        monkeypatch.setattr(trib, name, counted(name))
    top = trib.MEMO_BOUND + 60
    tribonacci_poly(top)  # the window now holds T(top - 2), T(top - 1), T(top)
    steps.clear()
    for n in reversed(range(trib.MEMO_BOUND + 1, top)):
        tribonacci_poly(n)
    assert steps == ["_prev_poly"] * 57  # T(top - 3) down to T(MEMO_BOUND + 1)
    steps.clear()
    for n in range(trib.MEMO_BOUND + 2, top + 1):
        tribonacci_poly(n)
    assert steps == ["_next_poly"] * 57  # T(MEMO_BOUND + 4) up to T(top)


def test_a_sweep_reading_two_far_places_walks_about_two_steps_a_point(cold_memo, monkeypatch):
    # EQ13 at n reads T(n - 10 .. n - 8) and then T(n), so one window per
    # place moves forward a step at each point
    steps = []
    for name in ("_next_poly", "_prev_poly"):
        real = getattr(trib, name)
        monkeypatch.setattr(trib, name, lambda *m, real=real: steps.append(1) or real(*m))
    points = range(800, 901)
    reports = run_grid(GridConfig(n_range=(points[0], points[-1]), s_range=(4, 4)), ["EQ13"])
    assert [r.status for r in reports] == ["passed"] * len(points)
    first = points[0] - 2  # T(3) .. T(800), into the memo and then past it
    assert len(steps) <= first + 3 * (len(points) - 1)


def test_two_place_sweeps_are_thread_safe_under_fast_switching(cold_memo):
    # each thread reads T(n - 8) and T(n) per point, so the two windows are
    # walked, replaced and published by every thread in turn
    points = range(FAR_RUN[0] + 8, FAR_RUN[-1] + 1)
    results: list[dict[int, Polynomial]] = []

    def worker(seed):
        order = list(points)
        random.Random(seed).shuffle(order)
        if seed % 2:
            order.sort(reverse=seed % 4 == 1)
        got = {}
        for n in order:
            got[n - 8], got[n] = tribonacci_poly(n - 8), tribonacci_poly(n)
        results.append(got)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = plain_recurrence(FAR_RUN[-1])
    assert len(results) == 8
    assert all(r == {n: expected[n] for n in r} and len(r) == len(FAR_RUN) for r in results)


def test_far_members_are_thread_safe(cold_memo):
    start = threading.Barrier(8)
    results: list[dict[int, Polynomial]] = []

    def worker(seed):
        indices = list(FAR_RUN)
        random.Random(seed).shuffle(indices)
        if seed % 2:  # odd seeds ascend (3, 7) or descend (1, 5)
            indices.sort(reverse=seed % 4 == 1)
        start.wait()
        results.append({n: tribonacci_poly(n) for n in indices})

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = plain_recurrence(FAR_RUN[-1])
    assert len(results) == 8
    assert all(r == {n: expected[n] for n in FAR_RUN} for r in results)
    assert trib._polys == list(expected[: trib.MEMO_BOUND + 1])


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_every_exponent_of_a_member_lies_in_one_residue_class(cold_memo, order):
    # a length-(k - 1) tiling weighs x^(2 squares + dominos), and squares +
    # 2 dominos + 3 trominos = k - 1, so every exponent is 2k + 1 mod 3
    indices = range(1, trib.MEMO_BOUND + 61)
    for k in reversed(indices) if order == "descending" else indices:
        member = tribonacci_poly(k)
        assert member.coeffs[-1] == 1, k
        assert {e % 3 for e, c in enumerate(member.coeffs) if c} == {(2 * k + 1) % 3}, k


def test_far_members_match_the_explicit_double_sum(cold_memo):
    # forwards past the memo's end, forwards to 1401, then back to 1398
    for n in (trib.MEMO_BOUND + 1, 1401, 1398):
        assert tribonacci_poly(n) == tribonacci_poly_explicit(n - 1), n
    # a kept window holds each member's x^3-compressed coefficients and no
    # slot past its leading one
    for k, *members in trib._window:
        for j, member in zip(range(k - 2, k + 1), members):
            assert member == list(tribonacci_poly(j).coeffs[(2 * j + 1) % 3 :: 3]), j
