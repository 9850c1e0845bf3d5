from itertools import zip_longest

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tribpoly import ONE, Polynomial, X, ZERO
from tribpoly import poly
from tribpoly.poly import _product_sum

polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(Polynomial)
points = st.integers(min_value=-5, max_value=5)


def test_canonical_form():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0, 0)).coeffs == ()
    assert Polynomial().is_zero
    assert Polynomial((0,)) == ZERO
    assert Polynomial((5,)) == 5


def test_zero_behaviour():
    assert ZERO + ZERO == ZERO
    assert ZERO * Polynomial((1, 2)) == ZERO
    assert not ZERO


def test_product_example():
    x_sq = Polynomial((0, 0, 1))
    assert x_sq * Polynomial((0, 1, 0, 0, 1)) == Polynomial((0, 0, 0, 1, 0, 0, 1))


def test_difference_of_squares():
    assert (X + ONE) * (X - ONE) == Polynomial((-1, 0, 1))


def test_monomial_scale():
    p = Polynomial((1, 2))  # 2x + 1
    assert p.times_monomial(3, 2) == Polynomial((0, 0, 3, 6))
    assert p.times_monomial(0, 2) == ZERO
    assert ZERO.times_monomial(4, 1) == ZERO
    with pytest.raises(ValueError):
        p.times_monomial(1, -1)


def test_evaluate():
    p = Polynomial.from_terms({10: 1, 7: 4, 4: 3})
    assert p.evaluate(1) == 8
    assert p.evaluate(0) == 0
    assert ZERO.evaluate(7) == 0
    assert Polynomial((3,)).evaluate(100) == 3


def _horner(coeffs, point):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


@given(st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=12).map(Polynomial))
@example(ZERO)
def test_evaluate_at_one_is_horners_value(p):
    # evaluate takes the coefficient sum at 1; True is the int 1 too
    for point in (1, True):
        value = p.evaluate(point)
        assert value == _horner(p.coeffs, 1)
        assert type(value) is int
    with pytest.raises(TypeError):
        p.evaluate(1.0)


def test_substitute_power():
    p = Polynomial.from_terms({4: 1, 2: 3})
    assert p.substitute_power(3) == Polynomial.from_terms({12: 1, 6: 3})
    assert p.substitute_power(1) == p
    assert ZERO.substitute_power(2) == ZERO
    with pytest.raises(ValueError):
        p.substitute_power(0)


def test_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial((1.0, 2))
    with pytest.raises(TypeError):
        Polynomial((1,)).evaluate(2.0)
    with pytest.raises(TypeError):
        Polynomial.from_terms({1: 0.5})
    with pytest.raises(TypeError):
        Polynomial((1, 2)).times_monomial(0.5, 1)


@pytest.mark.parametrize("c", [0, 1, -3, 2**70])
def test_a_constant_hashes_as_the_int_it_equals(c):
    constant = Polynomial((c,))
    assert constant == c
    assert hash(constant) == hash(c)
    assert len({constant, c}) == 1


def test_from_terms_validation():
    with pytest.raises(ValueError):
        Polynomial.from_terms({-1: 2})
    # zero coefficients on negative exponents are simply dropped
    assert Polynomial.from_terms({-3: 0, 2: 1}) == Polynomial((0, 0, 1))


@pytest.mark.parametrize(
    "terms, kind",
    [
        ({1.5: 2}, "float"),
        ({0: 1, 1.5: 2}, "float"),
        ({2: 1, 1.5: 2}, "float"),
        ({-1.5: 2}, "float"),
        ({"2": 1}, "str"),
    ],
)
def test_from_terms_names_an_exponent_that_is_not_an_int(terms, kind):
    # the type is judged before the sign, as at every integer argument
    with pytest.raises(TypeError, match=f"^polynomial exponent must be an int, got {kind}$"):
        Polynomial.from_terms(terms)


def test_from_terms_checks_no_key_on_its_normal_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("a key was checked")

    monkeypatch.setattr(poly, "_require_int", refuse)
    assert Polynomial.from_terms({7: 4, 4: 3, 0: 0}) == Polynomial((0, 0, 0, 0, 3, 0, 0, 4))


def test_rendering():
    assert str(Polynomial.from_terms({10: 1, 7: 4, 4: 3})) == "x^10 + 4*x^7 + 3*x^4"
    assert str(ZERO) == "0"
    assert str(Polynomial((1, 0, 0, 2, 0, 0, 1))) == "x^6 + 2*x^3 + 1"
    assert str(Polynomial((-1, 0, 1))) == "x^2 - 1"
    assert str(Polynomial((0, -1))) == "-x"
    assert str(Polynomial((2, 5))) == "5*x + 2"


def test_serialization_round_trip():
    p = Polynomial((1, 0, -4, 7))
    strings = p.to_coeff_strings()
    assert strings == ["1", "0", "-4", "7"]
    assert Polynomial.from_coeff_strings(strings) == p
    assert ZERO.to_coeff_strings() == []
    assert Polynomial.from_coeff_strings([]) == ZERO


def test_big_coefficients_survive_strings():
    big = 10**40 + 7
    p = Polynomial((big, 1))
    assert Polynomial.from_coeff_strings(p.to_coeff_strings()) == p


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, st.integers(min_value=-(2**70), max_value=2**70))
def test_an_int_on_the_left(p, k):
    assert k + p == p + k
    assert k - p == -(p - k)
    assert k * p == p * k


@given(polys)
def test_coeff_strings_round_trip(p):
    assert Polynomial.from_coeff_strings(p.to_coeff_strings()) == p


@given(polys, polys, points)
def test_evaluation_is_a_ring_hom(a, b, v):
    assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)
    assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)


@given(polys, st.integers(min_value=1, max_value=4), points)
def test_substitute_power_matches_evaluation(a, m, v):
    assert a.substitute_power(m).evaluate(v) == a.evaluate(v**m)


@given(polys, polys)
def test_operations_stay_canonical(a, b):
    for result in (a + b, a - b, a * b, -a, a.times_monomial(2, 3)):
        assert not result.coeffs or result.coeffs[-1] != 0


def _canonical(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


int_lists = st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=8)


@given(
    int_lists,
    int_lists,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_arithmetic_matches_plain_list_reference(a, b, k, c, e, m):
    pa, pb = Polynomial(a), Polynomial(b)
    product = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    substituted = [0] * (len(a) * m)
    for i, x in enumerate(a):
        substituted[i * m] = x
    cases = [
        (pa + pb, [x + y for x, y in zip_longest(a, b, fillvalue=0)]),
        (pa - pb, [x - y for x, y in zip_longest(a, b, fillvalue=0)]),
        (pa * pb, product),
        (-pa, [-x for x in a]),
        (pa * k, [k * x for x in a]),
        (k * pa, [k * x for x in a]),
        (pa.times_monomial(c, e), [0] * e + [c * x for x in a]),
        (pa.substitute_power(m), substituted),
    ]
    for result, reference in cases:
        assert result.coeffs == Polynomial(reference).coeffs == _canonical(reference)


product_terms = st.tuples(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=0, max_value=6),
    int_lists,
    int_lists,
)


@given(
    st.lists(product_terms, max_size=5),
    st.sampled_from([(1, 1), (2, 3), (3, 1)]),
)
@example([], (1, 1))  # no term: ZERO
@example([(3, 2, [0, 0], [5])], (1, 1))  # a zero operand, zeros kept in the list
@example([(-2, 0, [1, 1], [1, -1])], (1, 1))  # negative c, e = 0
@example([(0, 3, [1, 2], [3])], (2, 3))  # c = 0
@example([(1, 0, [4], [1, 2]), (-1, 0, [4], [1, 2])], (2, 3))  # terms that cancel
def test_product_sum_matches_plain_list_reference(terms, powers):
    p, q = powers
    reference = [0]
    for c, e, a, b in terms:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                k = e + p * i + q * j
                reference += [0] * (k + 1 - len(reference))
                reference[k] += c * x * y
    result = _product_sum([(c, e, Polynomial(a), Polynomial(b)) for c, e, a, b in terms], powers)
    assert result.coeffs == _canonical(reference)
    if powers == (1, 1):
        assert result == sum(
            (Polynomial(a) * Polynomial(b)).times_monomial(c, e) for c, e, a, b in terms
        )
