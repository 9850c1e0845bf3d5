import pytest

from tribpoly import (
    ColoredTiling,
    EnumerationCapError,
    Polynomial,
    Tiling,
    ZERO,
    colored_weight_distribution,
    enumerate_colored,
    enumerate_restricted,
    enumerate_tilings,
    exact_longer_distribution,
    expand_colored,
    incomplete_tribonacci_poly,
    overshoot_distribution,
    overshoot_poly,
    triangle_poly,
    tribonacci_number,
    tribonacci_poly,
    weight_distribution,
)

_RANK = {"r": 0, "d": 1, "t": 2}


def test_length_three_listing():
    words = [t.word() for t in enumerate_tilings(3)]
    assert words == ["rrr", "rd", "dr", "t"]


def test_empty_strip_has_the_empty_tiling():
    members = enumerate_tilings(0)
    assert len(members) == 1
    assert members[0].pieces == ()
    assert members[0].word() == ""
    assert weight_distribution(members) == Polynomial((1,))


def test_counts_follow_the_number_sequence():
    for n in range(11):
        assert len(enumerate_tilings(n)) == tribonacci_number(n + 1)


def test_lexicographic_order():
    for n in (5, 6, 7):
        words = [t.word() for t in enumerate_tilings(n)]
        assert words == sorted(words, key=lambda w: [_RANK[c] for c in w])


def test_statistics():
    t = Tiling(("r", "d", "r", "r"))
    assert t.length == 5
    assert t.squares == 3
    assert t.dominos == 1
    assert t.trominos == 0
    assert t.longer_pieces == 1
    assert t.weight_exponent == 7
    assert t.word() == "rdrr"


def test_weight_distribution_matches_polynomial_family():
    for n in range(11):
        assert weight_distribution(enumerate_tilings(n)) == tribonacci_poly(n + 1)


def test_restricted_five_one():
    members = enumerate_restricted(5, 1)
    words = {t.word() for t in members}
    assert words == {"rrrrr", "drrr", "rdrr", "rrdr", "rrrd", "trr", "rtr", "rrt"}
    assert weight_distribution(members) == Polynomial.from_terms({10: 1, 7: 4, 4: 3})


def test_restricted_edge_budgets():
    assert enumerate_restricted(4, -1) == []
    full = enumerate_tilings(6)
    assert enumerate_restricted(6, 3) == full  # budget at the max is no restriction
    only_squares = enumerate_restricted(6, 0)
    assert [t.word() for t in only_squares] == ["rrrrrr"]


def test_restriction_matches_incomplete_family():
    for n in range(13):
        for s in range(n // 2 + 1):
            dist = weight_distribution(enumerate_restricted(n, s))
            assert dist == incomplete_tribonacci_poly(n + 1, s)


def test_cap_enforcement():
    with pytest.raises(EnumerationCapError):
        enumerate_tilings(19)
    with pytest.raises(EnumerationCapError):
        enumerate_tilings(7, cap=6)
    assert len(enumerate_tilings(7, cap=7)) == tribonacci_number(8)
    with pytest.raises(ValueError):
        enumerate_tilings(-1)


def test_colored_enumeration():
    members = enumerate_colored(2, 1)
    assert {m.word() for m in members} == {"D", "WB", "BW"}
    assert len(members) == 3
    assert colored_weight_distribution(members) == Polynomial.from_terms({3: 2, 0: 1})
    # word order B < W < D
    assert [m.word() for m in members] == ["BW", "WB", "D"]
    words = [m.word() for m in enumerate_colored(4, 2)]
    assert words[:5] == ["BBWW", "BWBW", "BWWB", "BWD", "BDW"]
    assert words[-1] == "DD"


def test_colored_distribution_matches_triangle():
    for n in range(10):
        for i in range(n + 1):
            dist = colored_weight_distribution(enumerate_colored(n, i))
            assert dist == triangle_poly(n, i)


def test_colored_statistics():
    c = ColoredTiling(("D", "W", "B"))
    assert c.length == 4
    assert c.black_squares == 1
    assert c.white_squares == 1
    assert c.dominos == 1
    assert c.color_budget == 2
    assert c.weight_exponent == 3


def test_expand_colored_example():
    c = ColoredTiling(("D", "W", "B"))
    image = expand_colored(c)
    assert image.word() == "tdr"
    assert image.weight_exponent == c.weight_exponent
    assert image.length == c.length + c.color_budget


def test_expansion_is_a_bijection():
    for n in range(10):
        for i in range(n // 2 + 1):
            domain = enumerate_colored(n - i, i)
            images = [expand_colored(c) for c in domain]
            targets = [t for t in enumerate_tilings(n) if t.longer_pieces == i]
            assert len(set(images)) == len(images)
            assert set(images) == set(targets)
            for source, image in zip(domain, images):
                assert image.weight_exponent == source.weight_exponent
                assert image.length == n


def test_exact_longer_distribution():
    assert exact_longer_distribution(5, 1) == Polynomial.from_terms({7: 4, 4: 3})
    assert exact_longer_distribution(4, 0) == Polynomial.from_terms({8: 1})
    assert exact_longer_distribution(3, -1) == ZERO
    for n in range(11):
        for k in range(n // 2 + 1):
            assert exact_longer_distribution(n, k) == triangle_poly(n - k, k)


def test_exact_longer_partitions_the_family():
    for n in range(11):
        total = ZERO
        for k in range(n // 2 + 1):
            total = total + exact_longer_distribution(n, k)
        assert total == tribonacci_poly(n + 1)


def test_overshoot_distribution_matches_formula():
    for s in range(4):
        for n in range(0, 13 - 2 * s):
            assert overshoot_distribution(n, s) == overshoot_poly(n, s)


def test_overshoot_distribution_example():
    # length 3, one longer piece, ending in it: rd and t
    assert overshoot_distribution(3, 0) == Polynomial.from_terms({3: 1, 0: 1})
    with pytest.raises(ValueError):
        overshoot_distribution(3, -1)
    with pytest.raises(ValueError):
        overshoot_distribution(-1, 1)
    with pytest.raises(EnumerationCapError):
        overshoot_distribution(15, 2)
