import dataclasses
import functools
import itertools
import sys
from collections import Counter

import pytest

from tribpoly import (
    ColoredTiling,
    EnumerationCapError,
    Polynomial,
    Tiling,
    ZERO,
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
from tribpoly import tilings

_RANK = {"r": 0, "d": 1, "t": 2}

# The reference enumeration: every piece sequence from itertools.product,
# kept when its lengths sum to n, in rank order.  It shares no code with
# the package's walk, and it is what the enumerators are checked against.
_SIZES = {Tiling: {"r": 1, "d": 2, "t": 3}, ColoredTiling: {"B": 1, "W": 1, "D": 2}}
_SQUARES = ("r", "B")
_PLAIN_WEIGHT = {"r": 2, "d": 1, "t": 0}
_COLORED_WEIGHT = {"B": 2, "W": 1, "D": 0}
_REFERENCE_MAX = 10


@functools.cache
def _reference_words():
    words = {}
    for cls, sizes in _SIZES.items():
        ranks = {piece: rank for rank, piece in enumerate(sizes)}
        by_length = {n: [] for n in range(_REFERENCE_MAX + 1)}
        for count in range(_REFERENCE_MAX + 1):
            for word in itertools.product(sizes, repeat=count):
                length = sum(sizes[p] for p in word)
                if length <= _REFERENCE_MAX:
                    by_length[length].append(word)
        for n, found in by_length.items():
            words[cls, n] = sorted(found, key=lambda w: [ranks[p] for p in w])
    return words


def _reference(cls, n, keep=lambda longer: True):
    """Reference words of length n whose count of longer pieces passes ``keep``."""
    return [w for w in _reference_words()[cls, n] if keep(sum(p not in _SQUARES for p in w))]


def _reference_weight(words):
    return Polynomial.from_terms(Counter(sum(_PLAIN_WEIGHT[p] for p in w) for w in words))


def _pieces(members, cls):
    assert all(type(m) is cls for m in members)
    return [m.pieces for m in members]


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


def test_a_count_that_is_not_an_int_is_a_type_error():
    # a float count steps past 0 without reaching it: a budget would stop
    # no longer piece, and a length would walk past the recursion limit
    calls = [
        lambda: enumerate_restricted(6, 1.5),
        lambda: enumerate_tilings(5.5),
        lambda: exact_longer_distribution(6, 1.5),
        lambda: enumerate_colored(6, 1.5),
        lambda: overshoot_distribution(4, 0.5),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="^tiling length and budget must be ints"):
            call()


# Each enumerator with its result for no words (None: it takes no budget).
# The walk applies the limits in one order: a negative length is a
# ValueError, then a length past the cap an EnumerationCapError, and only
# then does a negative budget give no words.
_LIMITED = {
    "enumerate_tilings": (lambda n, budget, **cap: enumerate_tilings(n, **cap), None),
    "enumerate_restricted": (enumerate_restricted, []),
    "enumerate_colored": (enumerate_colored, []),
    "exact_longer_distribution": (exact_longer_distribution, ZERO),
}


@pytest.mark.parametrize("name", list(_LIMITED))
def test_limits_apply_in_order(name):
    enumerate_words, no_words = _LIMITED[name]
    with pytest.raises(ValueError, match=r"^tiling length must be >= 0, got -1$"):
        enumerate_words(-1, -1)
    with pytest.raises(ValueError, match=r"^tiling length must be >= 0, got -1$"):
        enumerate_words(-1, -1, cap=-2)  # the length is checked before the cap
    past = r"^enumeration of length 30 exceeds the cap of 18; pass a larger cap explicitly$"
    with pytest.raises(EnumerationCapError, match=past):
        enumerate_words(30, -1)
    with pytest.raises(EnumerationCapError, match="of length 7 exceeds the cap of 6;"):
        enumerate_words(7, -1, cap=6)
    if no_words is not None:
        assert enumerate_words(3, -1) == no_words
        assert enumerate_words(4, -1) == no_words
        assert enumerate_words(7, -1, cap=7) == no_words


def test_colored_enumeration():
    members = enumerate_colored(2, 1)
    assert {m.word() for m in members} == {"D", "WB", "BW"}
    assert len(members) == 3
    assert weight_distribution(members) == Polynomial.from_terms({3: 2, 0: 1})
    # word order B < W < D
    assert [m.word() for m in members] == ["BW", "WB", "D"]
    words = [m.word() for m in enumerate_colored(4, 2)]
    assert words[:5] == ["BBWW", "BWBW", "BWWB", "BWD", "BDW"]
    assert words[-1] == "DD"


def test_colored_distribution_matches_triangle():
    for n in range(10):
        for i in range(n + 1):
            dist = weight_distribution(enumerate_colored(n, i))
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


def _own_weight(word):
    weights = _PLAIN_WEIGHT if type(word) is Tiling else _COLORED_WEIGHT
    return sum(weights[p] for p in word.pieces)


def test_each_word_weighs_its_own_pieces():
    # a word's weight is stored once, when it is built, by every way of
    # building one; each must count it from the word's own pieces
    for n in range(_REFERENCE_MAX + 1):
        for budget in range(n + 2):  # n + 1 is past every column of the tails
            for cls in (Tiling, ColoredTiling):
                for word in tilings._words(n, cls, budget, n):
                    rebuilt = (cls(word.pieces), cls(list(word.pieces)))
                    for w in (word, *rebuilt):
                        assert w.weight_exponent == _own_weight(w), w
        public = enumerate_tilings(n) + [
            w for i in range(n + 1) for w in enumerate_restricted(n, i) + enumerate_colored(n, i)
        ]
        for word in public:
            assert word.weight_exponent == _own_weight(word), word
            if type(word) is ColoredTiling:
                image = expand_colored(word)
                assert image.weight_exponent == _own_weight(image), image


def test_expansion_weighs_the_image_not_the_source():
    # copying the source's weight would make the weight check of
    # test_expansion_is_a_bijection true whatever the image's pieces are
    source = ColoredTiling("DWB")
    object.__setattr__(source, "weight_exponent", -1)
    image = expand_colored(source)
    assert image.word() == "tdr" and image.weight_exponent == 3


def test_the_stored_weight_is_not_compared_or_shown():
    word = Tiling("rd")
    twin = Tiling("rd")
    object.__setattr__(twin, "weight_exponent", -1)
    assert word == twin and hash(word) == hash(twin)
    assert repr(word) == "Tiling(pieces=('r', 'd'))"
    with pytest.raises(TypeError):
        Tiling(("r",), 2)  # not a constructor argument
    with pytest.raises(dataclasses.FrozenInstanceError):
        word.weight_exponent = 0


def test_exact_longer_distribution():
    assert exact_longer_distribution(5, 1) == Polynomial.from_terms({7: 4, 4: 3})
    assert exact_longer_distribution(4, 0) == Polynomial.from_terms({8: 1})
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


def test_enumerators_match_the_product_reference():
    for n in range(_REFERENCE_MAX + 1):
        assert _pieces(enumerate_tilings(n), Tiling) == _reference(Tiling, n)
        for budget in range(-1, n + 1):
            expected = _reference(Tiling, n, lambda k: k <= budget)
            assert _pieces(enumerate_restricted(n, budget), Tiling) == expected
        for i in range(-1, n + 2):
            expected = _reference(ColoredTiling, n, lambda k: k == i)
            assert _pieces(enumerate_colored(n, i), ColoredTiling) == expected
            exact = _reference(Tiling, n, lambda k: k == i)
            assert exact_longer_distribution(n, i) == _reference_weight(exact)


def test_the_reference_reaches_past_the_table_of_tails():
    # the walk lays down pieces until the cells left fit the table of tails;
    # the reference above must reach lengths that cross from one to the other
    for cls in (Tiling, ColoredTiling):
        assert _REFERENCE_MAX > len(tilings._TAILS[cls._model])


def test_each_model_builds_its_table_of_tails_once(monkeypatch):
    # the tables are built at import; an enumeration only reads them
    assert [len(tilings._TAILS[cls._model]) - 1 for cls in (Tiling, ColoredTiling)] == [8, 5]
    monkeypatch.delattr(tilings, "_tails")  # a call to build one would fail
    assert len(enumerate_tilings(12)) == 927  # the tribonacci number T(13)
    assert sum(len(enumerate_colored(12, i)) for i in range(13)) == 33461  # Pell P(13)


def test_a_walk_deeper_than_the_recursion_limit_is_a_cap_error():
    # the first word walked is all squares, a frame per piece outside the tail
    limit = sys.getrecursionlimit()
    deep = f"^enumeration of length 1200 is deeper than the recursion limit of {limit}$"
    for budget in (0, 1200):
        with pytest.raises(EnumerationCapError, match=deep):
            enumerate_restricted(1200, budget, cap=1200)
    with pytest.raises(EnumerationCapError, match=deep):
        enumerate_tilings(1200, cap=1200)


def test_overshoot_matches_the_product_reference():
    for s in range(_REFERENCE_MAX // 2 + 1):
        for n in range(_REFERENCE_MAX - 2 * s + 1):
            members = _reference(Tiling, n + 2 * s, lambda k: k == s + 1)
            ending_longer = [w for w in members if w[-1] != "r"]
            assert overshoot_distribution(n, s) == _reference_weight(ending_longer)


def test_tilings_keep_value_semantics():
    a, b = Tiling(("r", "d")), Tiling(("r", "d"))
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, Tiling(("d", "r"))}) == 2
    # pieces given as a string or a list are kept as a tuple
    for word in (Tiling("rd"), Tiling(["r", "d"])):
        assert word.pieces == ("r", "d") and word == a and hash(word) == hash(a)
    assert hash(Tiling(["r"])) == hash(Tiling(("r",)))
    for member in (a, ColoredTiling(("W", "D"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            member.pieces = ()
        assert not hasattr(member, "__dict__")
    # the empty tiling exists in both models, and the two stay distinct
    assert Tiling(()) != ColoredTiling(())
    assert len({Tiling(()), ColoredTiling(())}) == 2


@pytest.mark.parametrize(
    "cls, pieces, bad",
    [
        (Tiling, ("r", "q"), "q"),
        (Tiling, ("B",), "B"),
        (ColoredTiling, ("W", "r"), "r"),
        (ColoredTiling, ("",), ""),
    ],
)
def test_a_piece_outside_the_model_is_refused(cls, pieces, bad):
    with pytest.raises(ValueError, match=repr(bad)):
        cls(pieces)


def test_expand_colored_takes_only_colored_tilings():
    with pytest.raises(TypeError, match="ColoredTiling"):
        expand_colored(Tiling(("r",)))


def test_enumerated_words_equal_the_checked_ones():
    # the walk builds its words without the constructor's check
    for words in (enumerate_tilings(8), enumerate_colored(7, 3)):
        for w in words:
            built = type(w)(w.pieces)
            assert w == built and hash(w) == hash(built)
