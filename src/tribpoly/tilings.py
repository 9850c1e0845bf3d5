"""Brute-force enumeration of linear tilings and their weight statistics.

Each tiling model is one three-row table of ``(piece, length)`` in word
order: plain ``r 1, d 2, t 3`` (square, domino, tromino) and colored
``B 1, W 1, D 2`` (black square, white square, domino).  Rank 0 is the
short piece; ranks 1 and 2 are the "longer" pieces, each costing one unit
of budget.  Rank k weighs x^(2 - k), so ``expand_colored`` maps rank to rank.

Enumeration is brute force and uses no formula: these sets are the
independent oracle of the closed formulas, so it is capped, and raising the
cap is a deliberate, explicit act.  Each enumerator is one call of one
depth-first walk, which owns the limits (length, cap, budget) and keeps the
words with at most ``budget`` longer pieces; an exact count filters them.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, TypeVar

from .poly import Polynomial, _require_int

DEFAULT_CAP = 18

SQUARE = "r"
DOMINO = "d"
TROMINO = "t"
BLACK = "B"
WHITE = "W"
COLORED_DOMINO = "D"

# (piece, length) by rank, in word order
_Model = tuple[tuple[str, int], ...]
_PLAIN: _Model = ((SQUARE, 1), (DOMINO, 2), (TROMINO, 3))
_COLORED: _Model = ((BLACK, 1), (WHITE, 1), (COLORED_DOMINO, 2))

_EXPANSION = {colored: plain for (colored, _), (plain, _) in zip(_COLORED, _PLAIN)}


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would exceed its length cap or the recursion limit."""


def _count(*ranks: int, doc: str | None = None) -> property:
    """Property counting the pieces of the given ranks of the class's model."""
    return property(
        lambda self: sum(self.pieces.count(self._model[k][0]) for k in ranks), doc=doc
    )


@dataclass(frozen=True, slots=True)
class _Word:
    """A piece sequence of one model; statistics are computed on demand."""

    pieces: tuple[str, ...]
    _model = ()  # the subclass's piece table; not a field

    def __post_init__(self) -> None:
        # a string or a list of pieces is kept as the tuple it stands for
        object.__setattr__(self, "pieces", tuple(self.pieces))
        names = [piece for piece, _ in self._model]
        for piece in self.pieces:
            if piece not in names:
                raise ValueError(
                    f"{type(self).__name__} has no piece {piece!r}; its pieces are {', '.join(names)}"
                )

    @classmethod
    def _trusted(cls: type[_W], pieces: tuple[str, ...]) -> _W:
        """Package-internal constructor for pieces drawn from the model's
        own table: nothing is checked.  Public input goes through ``__init__``."""
        word = object.__new__(cls)
        object.__setattr__(word, "pieces", pieces)
        return word

    @property
    def length(self) -> int:
        lengths = dict(self._model)
        return sum(lengths[p] for p in self.pieces)

    @property
    def weight_exponent(self) -> int:
        # rank 0 counts twice, rank 1 once, rank 2 not at all
        (short, _), (middle, _), _ = self._model
        return 2 * self.pieces.count(short) + self.pieces.count(middle)

    def word(self) -> str:
        return "".join(self.pieces)


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


def _words(n: int, cls: type[_W], budget: int, cap: int) -> list[_W]:
    """Words of ``cls``'s model of length n with at most ``budget`` longer
    pieces.  The walk owns the limits, in order: a length or budget that is
    not an int is a TypeError, a negative length a ValueError, a length past
    ``cap`` an EnumerationCapError, and a negative budget gives no words.

    One depth-first walk over a shared path builds each word once, at its
    leaf.  It has one rule, at most ``budget`` longer pieces; an exact count
    of them is a filter of the words it returns.
    """
    if not isinstance(n, int) or not isinstance(budget, int):
        raise TypeError(f"tiling length and budget must be ints, got {n!r} and {budget!r}")
    _require_int(n, "tiling length", 0)
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of length {n} exceeds the cap of {cap}; pass a larger cap explicitly"
        )
    (short, _), *longer = cls._model
    make = cls._trusted
    path: list[str] = []
    out: list[_W] = []

    def walk(room: int, left: int) -> None:
        if not room:
            out.append(make(tuple(path)))
            return
        path.append(short)
        walk(room - 1, left)
        path.pop()
        if left:
            for piece, size in longer:
                if size <= room:
                    path.append(piece)
                    walk(room - size, left - 1)
                    path.pop()

    if budget >= 0:
        try:
            walk(n, budget)
        except RecursionError:  # a frame per piece; the first word walked has the most
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
    counts = Counter(t.weight_exponent for t in tilings)
    return Polynomial.from_terms(counts)


def enumerate_colored(n: int, i: int, *, cap: int = DEFAULT_CAP) -> list[ColoredTiling]:
    """Colored tilings of length n with white squares + dominos == i."""
    return [w for w in _words(n, ColoredTiling, i, cap) if w.color_budget == i]


def expand_colored(tiling: ColoredTiling) -> Tiling:
    """Length-increasing expansion: B -> square, W -> domino, D -> tromino.

    Sends a colored tiling of length n - i with budget i to a plain tiling
    of length n with exactly i longer pieces, preserving the weight
    exponent piece by piece.
    """
    if not isinstance(tiling, ColoredTiling):
        raise TypeError(f"expand_colored takes a ColoredTiling, got {type(tiling).__name__}")
    return Tiling._trusted(tuple(_EXPANSION[p] for p in tiling.pieces))


def exact_longer_distribution(n: int, k: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of tilings of length n with exactly k longer pieces."""
    return weight_distribution(t for t in _words(n, Tiling, k, cap) if t.longer_pieces == k)


def overshoot_distribution(n: int, s: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of length-(n + 2s) tilings with exactly s + 1 longer pieces,
    ending in a longer piece.  Brute-force counterpart of
    :func:`tribpoly.tribonacci.overshoot_poly`.
    """
    if n < 0:
        raise ValueError(f"overshoot index must be >= 0, got {n}")
    if s < 0:
        raise ValueError(f"overshoot level must be >= 0, got {s}")
    # the count comes first: a word with s + 1 >= 1 longer pieces is not empty
    members = _words(n + 2 * s, Tiling, s + 1, cap)
    return weight_distribution(
        t for t in members if t.longer_pieces == s + 1 and t.pieces[-1] != SQUARE
    )
