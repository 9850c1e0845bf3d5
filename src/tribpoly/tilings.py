"""Brute-force enumeration of linear tilings and their weight statistics.

Each tiling model is one table of ``(piece, length, weight exponent)``
rows in word order: plain ``r 1 2, d 2 1, t 3 0`` (square, domino,
tromino) and colored ``B 1 2, W 1 1, D 2 0`` (black square, white square,
domino).  Rank 0 is the short piece; every other row is a "longer" piece
and costs one unit of budget.  ``expand_colored`` maps each piece to the
plain piece of the same rank, and so of the same weight.

Enumeration is brute force and uses no formula: these sets are the
independent oracle of the closed formulas, so it is capped, and raising the
cap is a deliberate, explicit act.  Each enumerator is one call of one
depth-first walk, which owns the limits (length, cap, budget) and keeps the
words with at most ``budget`` longer pieces; an exact count is one filter
of them.  The walk and the table of tails that lists the last few cells of
every word, built once per model, at import, take each step by the one
rule of the model's table, and each word gets its weight exponent once,
when it is built.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, TypeVar

from .poly import Polynomial, _require_int

DEFAULT_CAP = 18

SQUARE = "r"
DOMINO = "d"
TROMINO = "t"
BLACK = "B"
WHITE = "W"
COLORED_DOMINO = "D"

# (piece, length, weight exponent) by rank, in word order; every rank but 0
# costs one unit of budget
_Model = tuple[tuple[str, int, int], ...]
_PLAIN: _Model = ((SQUARE, 1, 2), (DOMINO, 2, 1), (TROMINO, 3, 0))
_COLORED: _Model = ((BLACK, 1, 2), (WHITE, 1, 1), (COLORED_DOMINO, 2, 0))

_EXPANSION = {colored[0]: plain[0] for colored, plain in zip(_COLORED, _PLAIN)}

# The most words a table of tails may hold, over all its lengths: a bound
# by count, not by length, because the colored model branches faster
_TAIL_WORDS = 200


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would exceed its length cap or the recursion limit."""


def _count(*ranks: int, doc: str | None = None) -> property:
    """Property counting the pieces of the given ranks of the class's model."""
    return property(
        lambda self: sum(self.pieces.count(self._model[k][0]) for k in ranks), doc=doc
    )


def _steps(model: _Model) -> list[tuple[str, int, int, int]]:
    """The model's rows as ``(piece, length, weight exponent, cost)``, in
    word order: the one step rule of the walk and of the table of tails.  A
    step lays a piece that fits the cells left, adds its weight exponent and
    spends its cost, which must not exceed the budget left."""
    return [(piece, size, w, min(rank, 1)) for rank, (piece, size, w) in enumerate(model)]


@dataclass(frozen=True, slots=True)
class _Word:
    """A piece sequence of one model.  The weight exponent is stored, set
    once from the pieces when the word is built; the other statistics are
    counted on demand."""

    pieces: tuple[str, ...]
    weight_exponent: int = field(init=False, compare=False, repr=False)
    _model = ()  # the subclass's piece table; not a field

    def __post_init__(self) -> None:
        # a string or a list of pieces is kept as the tuple it stands for
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        names = [piece for piece, _, _ in self._model]
        for piece in pieces:
            if piece not in names:
                raise ValueError(
                    f"{type(self).__name__} has no piece {piece!r}; its pieces are {', '.join(names)}"
                )
        weight = sum(w * pieces.count(piece) for piece, _, w in self._model)
        object.__setattr__(self, "weight_exponent", weight)

    @property
    def length(self) -> int:
        return sum(size * self.pieces.count(piece) for piece, size, _ in self._model)

    def word(self) -> str:
        return "".join(self.pieces)


# the slots' own setters, which a frozen word's __setattr__ does not guard
_SET_PIECES = _Word.pieces.__set__
_SET_WEIGHT = _Word.weight_exponent.__set__


class Tiling(_Word):
    """One tiling by squares, dominos and trominos."""

    __slots__ = ()
    _model = _PLAIN
    squares = _count(0)
    dominos = _count(1)
    trominos = _count(2)
    longer_pieces = _count(1, 2)


class ColoredTiling(_Word):
    """Square-and-domino tiling with black/white squares."""

    __slots__ = ()
    _model = _COLORED
    black_squares = _count(0)
    white_squares = _count(1)
    dominos = _count(2)
    color_budget = _count(
        1, 2, doc="White squares plus dominos: the index the family is graded by."
    )


_W = TypeVar("_W", bound=_Word)

# ----------------------------------------------------------------------
# enumeration; table order (r < d < t, B < W < D) makes it lexicographic


_Tails = list[list[list[tuple[tuple[str, ...], int]]]]


def _reach(table: _Tails, m: int, j: int) -> list[tuple[tuple[str, ...], int]]:
    """The tails of m cells with at most j longer pieces: a budget past the
    last column of m reads the last column."""
    columns = table[m]
    return columns[min(j, len(columns) - 1)]


def _tails(model: _Model) -> _Tails:
    """``table[m][j]``: each word of m cells with at most j longer pieces, as
    ``(pieces, weight exponent)`` in word order.  Column j runs to the most
    longer pieces that fit m cells, and the table grows while its words, over
    every length, number at most ``_TAIL_WORDS``: 8 cells for the plain
    model, 5 for the colored."""
    steps = _steps(model)
    shortest = min(size for _, size, _, cost in steps if cost)  # of the longer pieces
    table: _Tails = [[[((), 0)]]]
    words = 1
    while True:
        m = len(table)
        columns = []
        for j in range(m // shortest + 1):
            column = []
            for piece, size, weight, cost in steps:
                if size <= m and cost <= j:
                    tails = _reach(table, m - size, j - cost)
                    column += [((piece,) + p, weight + w) for p, w in tails]
            columns.append(column)
        words += len(columns[-1])  # the last column holds every word of m cells
        if words > _TAIL_WORDS:
            return table
        table.append(columns)


_TAILS = {model: _tails(model) for model in (_PLAIN, _COLORED)}


def _words(n: int, cls: type[_W], budget: int, cap: int) -> list[_W]:
    """Words of ``cls``'s model of length n with at most ``budget`` longer
    pieces.  The walk owns the limits, in order: a length or budget that is
    not an int is a TypeError, a negative length a ValueError, a length past
    ``cap`` an EnumerationCapError, and a negative budget gives no words.

    One depth-first walk over a shared path lays down the pieces of each
    word, by the model's step rule, until the cells left fit its table of
    tails; there it joins the path to every tail that the budget left
    admits, and sets each word's weight from the path's and the tail's.  It
    has one limit, at most ``budget`` longer pieces; an exact count of them
    is ``_exactly``'s filter of the words it returns.
    """
    if not isinstance(n, int) or not isinstance(budget, int):
        raise TypeError(f"tiling length and budget must be ints, got {n!r} and {budget!r}")
    _require_int(n, "tiling length", 0)
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of length {n} exceeds the cap of {cap}; pass a larger cap explicitly"
        )
    out: list[_W] = []
    if budget < 0:
        return out
    table = _TAILS[cls._model]
    tail = len(table) - 1
    steps = _steps(cls._model)
    new, append = object.__new__, out.append
    path: list[str] = []

    def walk(room: int, left: int, weight: int) -> None:
        if room <= tail:
            prefix = tuple(path)
            for pieces, w in _reach(table, room, left):
                word = new(cls)
                _SET_PIECES(word, prefix + pieces)
                _SET_WEIGHT(word, weight + w)
                append(word)
            return
        for piece, size, w, cost in steps:
            if size <= room and cost <= left:
                path.append(piece)
                walk(room - size, left - cost, weight + w)
                path.pop()

    try:
        walk(n, budget, 0)
    except RecursionError:  # a frame per piece outside the tail; the first word has the most
        limit = sys.getrecursionlimit()
        raise EnumerationCapError(
            f"enumeration of length {n} is deeper than the recursion limit of {limit}"
        ) from None
    # walk's closure holds walk itself, and out; deleting the name breaks
    # that cycle, so the words die with the caller's last reference and
    # not at the next full collection
    del walk
    return out


def enumerate_tilings(n: int, *, cap: int = DEFAULT_CAP) -> list[Tiling]:
    """All tilings of length n, in lexicographic word order (r < d < t)."""
    return _words(n, Tiling, n, cap)


def enumerate_restricted(n: int, max_longer: int, *, cap: int = DEFAULT_CAP) -> list[Tiling]:
    """Tilings of length n with at most ``max_longer`` longer pieces."""
    return _words(n, Tiling, max_longer, cap)


def weight_distribution(tilings: Iterable[Tiling | ColoredTiling]) -> Polynomial:
    """Sum of x**weight_exponent over the given tilings, plain or colored."""
    counts = Counter(map(attrgetter("weight_exponent"), tilings))
    return Polynomial.from_terms(counts)


def _exactly(n: int, cls: type[_W], k: int, cap: int) -> list[_W]:
    """Words of ``cls``'s model of length n with exactly k longer pieces: the
    walk's words with a budget of k, kept when they spend all of it."""
    short = cls._model[0][0]
    return [w for w in _words(n, cls, k, cap) if len(w.pieces) - w.pieces.count(short) == k]


def enumerate_colored(n: int, i: int, *, cap: int = DEFAULT_CAP) -> list[ColoredTiling]:
    """Colored tilings of length n with white squares + dominos == i."""
    return _exactly(n, ColoredTiling, i, cap)


def expand_colored(tiling: ColoredTiling) -> Tiling:
    """Length-increasing expansion: B -> square, W -> domino, D -> tromino.

    Sends a colored tiling of length n - i with budget i to a plain tiling
    of length n with exactly i longer pieces, preserving the weight
    exponent piece by piece; the image's weight is counted from its own
    pieces, not copied from the source's.
    """
    if not isinstance(tiling, ColoredTiling):
        raise TypeError(f"expand_colored takes a ColoredTiling, got {type(tiling).__name__}")
    return Tiling(tuple(_EXPANSION[p] for p in tiling.pieces))


def exact_longer_distribution(n: int, k: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of tilings of length n with exactly k longer pieces."""
    return weight_distribution(_exactly(n, Tiling, k, cap))


def overshoot_distribution(n: int, s: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of length-(n + 2s) tilings with exactly s + 1 longer pieces,
    ending in a longer piece.  Brute-force counterpart of
    :func:`tribpoly.tribonacci.overshoot_poly`.
    """
    if n < 0:
        raise ValueError(f"overshoot index must be >= 0, got {n}")
    if s < 0:
        raise ValueError(f"overshoot level must be >= 0, got {s}")
    # each word has s + 1 >= 1 longer pieces, so a last piece
    members = _exactly(n + 2 * s, Tiling, s + 1, cap)
    return weight_distribution(t for t in members if t.pieces[-1] != SQUARE)
