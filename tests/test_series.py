import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribpoly import (
    ONE,
    Polynomial,
    TruncatedSeries,
    X,
    ZERO,
    cli,
    rational_expand,
    tribonacci_poly,
)

small_polys = st.lists(st.integers(min_value=-4, max_value=4), max_size=3).map(Polynomial)
series5 = st.lists(small_polys, max_size=6).map(lambda cs: TruncatedSeries(cs, 5))
# invertible: constant coefficient pinned to 1
units5 = st.lists(small_polys, min_size=0, max_size=5).map(
    lambda tail: TruncatedSeries([ONE, *tail], 5)
)
# short: at most three leading terms, the rest of the order zero
short5 = st.lists(small_polys, max_size=3).map(lambda cs: TruncatedSeries(cs, 5))
short_units5 = st.lists(small_polys, max_size=2).map(
    lambda tail: TruncatedSeries([ONE, *tail], 5)
)


def test_construction_pads_and_validates():
    s = TruncatedSeries([1, X], 3)
    assert s.order == 3
    assert s.coeffs == (ONE, X, ZERO, ZERO)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], 1)
    with pytest.raises(ValueError):
        TruncatedSeries([], -1)
    with pytest.raises(TypeError):
        TruncatedSeries([1.5], 2)


def test_geometric_series():
    one_minus_z = TruncatedSeries([1, -1], 4)
    assert one_minus_z.inverse() == TruncatedSeries([1, 1, 1, 1, 1], 4)


def test_square_of_binomial():
    s = TruncatedSeries([ONE, X], 2)
    assert s * s == TruncatedSeries([ONE, 2 * X, X * X], 2)


def test_tribonacci_generating_series():
    # z / (1 - x^2 z - x z^2 - z^3) unrolls the polynomial family
    x_sq = X * X
    numerator = TruncatedSeries([ZERO, ONE], 5)
    denominator = TruncatedSeries([ONE, -x_sq, -X, -ONE], 5)
    expansion = rational_expand(numerator, denominator)
    expected = TruncatedSeries([tribonacci_poly(k) for k in range(6)], 5)
    assert expansion == expected


def test_rational_expand_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], 3).inverse()
    with pytest.raises(ValueError):
        TruncatedSeries([X, 1], 3).inverse()


def test_order_mismatch_is_an_error():
    a = TruncatedSeries([1], 3)
    b = TruncatedSeries([1], 4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError, match="order mismatch"):
            op()


def test_pow():
    s = TruncatedSeries([1, 1], 4)
    assert s**0 == TruncatedSeries.one(4)
    assert s**3 == TruncatedSeries([1, 3, 3, 1], 4)
    with pytest.raises(ValueError):
        s ** (-1)


def test_shifted():
    s = TruncatedSeries([1, 2, 3], 2)
    assert s.shifted(0) == s
    assert s.shifted(1) == TruncatedSeries([0, 1, 2], 2)
    assert s.shifted(5) == TruncatedSeries((), 2)
    with pytest.raises(ValueError):
        s.shifted(-1)


def test_overshoot_series_head():
    # z^2 (x + z) / (1 - x^2 z) starts x z^2 + (x^3 + 1) z^3 + ...
    frac = rational_expand(TruncatedSeries([X, 1], 3), TruncatedSeries([ONE, -(X * X)], 3))
    shifted = frac.shifted(2)
    assert shifted.coeffs[2] == X
    assert shifted.coeffs[3] == Polynomial((1, 0, 0, 1))


def test_json_dict(capsys):
    # the series document of the CLI: one coeffs list per z power, the zero
    # coefficient an empty list
    assert cli.main(["gf", "--s", "0", "--order", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "order": 2,
        "z_coeffs": [{"coeffs": []}, {"coeffs": ["1"]}, {"coeffs": ["0", "0", "1"]}],
    }


@given(units5)
def test_inverse_really_inverts(u):
    assert u * u.inverse() == TruncatedSeries.one(5)


@given(series5, series5, series5)
def test_series_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _cut(s, k):
    return TruncatedSeries(s.coeffs[: k + 1], k)


@given(series5, series5)
def test_truncation_coherence(a, b):
    # computing at higher order then truncating equals computing at lower order
    assert _cut(a * b, 3) == _cut(a, 3) * _cut(b, 3)
    assert _cut(a + b, 3) == _cut(a, 3) + _cut(b, 3)


@given(units5)
def test_inverse_truncation_coherence(u):
    assert _cut(u.inverse(), 3) == _cut(u, 3).inverse()


@given(short5, short_units5, short_units5)
def test_common_factor_cancels_in_rational_expand(a, b, d):
    # clearing a denominator multiplies numerator and denominator alike
    assert rational_expand(a * d, b * d) == rational_expand(a, b)


# runs of zero coefficients between nonzero ones, in a series that is either
# short (at most two leading terms) or may fill its whole order
nonzero_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any).map(Polynomial)
zero_runs = st.integers(1, 3).map(lambda k: [ZERO] * k)


@st.composite
def sparse_series(draw, order: int, unit: bool = False) -> TruncatedSeries:
    runs = draw(st.lists(st.one_of(nonzero_polys.map(lambda p: [p]), zero_runs), max_size=9))
    terms = ([ONE] if unit else []) + [c for run in runs for c in run]
    size = draw(st.sampled_from([2, order + 1]))
    return TruncatedSeries(terms[: min(size, order + 1)], order)


def _at(series: TruncatedSeries, point: int) -> list[int]:
    return [sum(c * point**e for e, c in enumerate(p.coeffs)) for p in series.coeffs]


def _convolve(f: list[int], g: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            if i + j <= order:
                out[i + j] += a * b
    return out


@given(st.data(), st.integers(0, 8), st.integers(-3, 3))
def test_series_arithmetic_matches_plain_int_convolution(data, order, point):
    # evaluating every coefficient at x = point is a ring homomorphism, so
    # the series product and inverse must agree with plain-int convolution
    a, b = data.draw(sparse_series(order)), data.draw(sparse_series(order))
    assert _at(a * b, point) == _convolve(_at(a, point), _at(b, point), order)
    u = data.draw(sparse_series(order, unit=True))
    assert _convolve(_at(u, point), _at(u.inverse(), point), order) == [1] + [0] * order


# an exact reference over (z, x): a series as a list of int lists, one per
# z-power, multiplied by nested loops and stripped by hand


def _ints(series: TruncatedSeries) -> list[list[int]]:
    return [list(p.coeffs) for p in series.coeffs]


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def _plain_mul(f: list[int], g: list[int]) -> list[int]:
    return _convolve(f, g, len(f) + len(g) - 2)


def _plain_add(f: list[int], g: list[int]) -> list[int]:
    out = [0] * max(len(f), len(g))
    for e, a in enumerate(f):
        out[e] += a
    for e, b in enumerate(g):
        out[e] += b
    return out


def _plain_series_mul(f: list[list[int]], g: list[list[int]], order: int) -> list[tuple[int, ...]]:
    out: list[list[int]] = [[] for _ in range(order + 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            if i + j <= order:
                out[i + j] = _plain_add(out[i + j], _plain_mul(a, b))
    return [_strip(c) for c in out]


def _plain_inverse(u: list[list[int]]) -> list[tuple[int, ...]]:
    inv: list[list[int]] = [[1]]
    for k in range(1, len(u)):
        total: list[int] = []
        for j in range(1, k + 1):
            total = _plain_add(total, _plain_mul(u[j], inv[k - j]))
        inv.append([-c for c in total])
    return [_strip(c) for c in inv]


def _series(coeffs: list[list[int]], order: int) -> TruncatedSeries:
    return TruncatedSeries([Polynomial(c) for c in coeffs[: order + 1]], order)


@st.composite
def cancelling_pair(draw, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    # a = p + q z and b = p t + (e - q t) z: the z^1 coefficient of a * b is
    # p e, all of whose terms cancel when e = 0, and its top ones when e is low
    p, q, t = (list(draw(nonzero_polys).coeffs) for _ in range(3))
    e = list(draw(small_polys).coeffs)
    a = [p, q]
    b = [_plain_mul(p, t), _plain_add(e, [-c for c in _plain_mul(q, t)])]
    return _series(a, order), _series(b, order)


@st.composite
def cancelling_unit(draw, order: int) -> TruncatedSeries:
    # 1 + p z + p^2 z^2 has the inverse (1 - p z) / (1 - p^3 z^3), so its
    # z^2, z^5, ... coefficients are sums that cancel to zero
    p = list(draw(nonzero_polys).coeffs)
    return _series([[1], p, _plain_mul(p, p)], order)


@given(st.data(), st.integers(0, 8))
def test_series_arithmetic_matches_an_exact_int_list_reference(data, order):
    # coefficient tuples, so a wrong coefficient of any degree or a trailing
    # zero left behind shows, and a cancelled z-coefficient must be ZERO
    a, b = data.draw(
        st.one_of(st.tuples(sparse_series(order), sparse_series(order)), cancelling_pair(order))
    )
    expected = _plain_series_mul(_ints(a), _ints(b), order)
    assert [p.coeffs for p in (a * b).coeffs] == expected
    u = data.draw(st.one_of(sparse_series(order, unit=True), cancelling_unit(order)))
    assert [p.coeffs for p in u.inverse().coeffs] == _plain_inverse(_ints(u))


@given(st.data(), st.integers(0, 8))
def test_rational_expand_matches_numerator_times_the_reference_inverse(data, order):
    # the recurrence seeds each z^k with N[k]; the reference multiplies N by
    # the reference inverse, so a seed dropped past z^0, a seed of the wrong
    # sign or a denominator term cut early shows as a different tuple
    d = data.draw(st.one_of(sparse_series(order, unit=True), cancelling_unit(order)))
    n = data.draw(st.one_of(sparse_series(order), st.just(d), st.just(d * d)))
    before = _ints(n)
    expected = _plain_series_mul(before, _plain_inverse(_ints(d)), order)
    assert [p.coeffs for p in rational_expand(n, d).coeffs] == expected
    assert [p.coeffs for p in d.inverse(n).coeffs] == expected
    assert _ints(n) == before


def test_rational_expand_checks_its_operands():
    d = TruncatedSeries([1, X], 3)
    for expand in (rational_expand, lambda n, d: d.inverse(n)):
        with pytest.raises(ValueError, match="order mismatch"):
            expand(TruncatedSeries([X], 4), d)
        for not_a_series in (ONE, 1, [ONE]):
            with pytest.raises(TypeError):
                expand(not_a_series, d)
        for non_unit in (TruncatedSeries([2, 1], 3), TruncatedSeries([X, 1], 3)):
            with pytest.raises(ValueError, match="constant coefficient 1"):
                expand(TruncatedSeries([X], 3), non_unit)
