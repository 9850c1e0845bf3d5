"""Brute-force enumeration of linear tilings and their weight statistics.

Each tiling model is one three-row table of ``(piece, length)`` in word
order: plain ``r 1, d 2, t 3`` (square, domino, tromino) and colored
``B 1, W 1, D 2`` (black square, white square, domino).  Rank 0 is the
short piece; ranks 1 and 2 are the "longer" pieces, each costing one unit
of budget.  Rank k weighs x^(2 - k), so ``expand_colored`` maps rank to rank.

Enumeration is brute force: one depth-first walk visits every tiling once,
and no formula is used, because these sets are the independent oracle
against which the closed formulas are checked.  It is therefore capped;
raising the cap is a deliberate, explicit act.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, TypeVar

from .poly import Polynomial

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
    """Raised when an enumeration would exceed the configured length cap."""


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError(f"tiling length must be >= 0, got {n}")
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of length {n} exceeds the cap of {cap}; pass a larger cap explicitly"
        )


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


def _words(n: int, cls: type[_W], budget: int, *, exact: bool = False) -> list[_W]:
    """Words of ``cls``'s model of length n with at most ``budget`` longer
    pieces, or exactly ``budget`` of them when ``exact``.

    One depth-first walk over a shared path builds each word once, at its
    leaf.  Every call keeps ``room >= need * left``: the room left can still
    hold the longer pieces owed, so no branch is entered that ends in no word.
    """
    (short, _), *longer = cls._model
    # cells each owed longer piece needs at least; nothing is owed unless exact
    need = min(size for _, size in longer) if exact else 0
    path: list[str] = []
    out: list[_W] = []

    def walk(room: int, left: int) -> None:
        if not room:
            out.append(cls(tuple(path)))
            return
        if room > need * left:
            path.append(short)
            walk(room - 1, left)
            path.pop()
        if left:
            spare = room - need * (left - 1)
            for piece, size in longer:
                if size <= spare:
                    path.append(piece)
                    walk(room - size, left - 1)
                    path.pop()

    if n >= need * budget:
        walk(n, budget)
    # walk's closure holds walk itself, and out; deleting the name breaks
    # that cycle, so the words die with the caller's last reference and
    # not at the next full collection
    del walk
    return out


def enumerate_tilings(n: int, *, cap: int = DEFAULT_CAP) -> list[Tiling]:
    """All tilings of length n, in lexicographic word order (r < d < t)."""
    _check_cap(n, cap)
    return _words(n, Tiling, n)


def enumerate_restricted(n: int, max_longer: int, *, cap: int = DEFAULT_CAP) -> list[Tiling]:
    """Tilings of length n with at most ``max_longer`` longer pieces."""
    _check_cap(n, cap)
    if max_longer < 0:
        return []
    return _words(n, Tiling, max_longer)


def weight_distribution(tilings: Iterable[Tiling | ColoredTiling]) -> Polynomial:
    """Sum of x**weight_exponent over the given tilings, plain or colored."""
    counts = Counter(t.weight_exponent for t in tilings)
    return Polynomial.from_terms(counts)


def enumerate_colored(n: int, i: int, *, cap: int = DEFAULT_CAP) -> list[ColoredTiling]:
    """Colored tilings of length n with white squares + dominos == i."""
    _check_cap(n, cap)
    if i < 0:
        return []
    return _words(n, ColoredTiling, i, exact=True)


colored_weight_distribution = weight_distribution


def expand_colored(tiling: ColoredTiling) -> Tiling:
    """Length-increasing expansion: B -> square, W -> domino, D -> tromino.

    Sends a colored tiling of length n - i with budget i to a plain tiling
    of length n with exactly i longer pieces, preserving the weight
    exponent piece by piece.
    """
    return Tiling(tuple(_EXPANSION[p] for p in tiling.pieces))


def exact_longer_distribution(n: int, k: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of tilings of length n with exactly k longer pieces."""
    _check_cap(n, cap)
    if k < 0:
        return Polynomial()
    return weight_distribution(_words(n, Tiling, k, exact=True))


def overshoot_distribution(n: int, s: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of length-(n + 2s) tilings with exactly s + 1 longer pieces,
    ending in a longer piece.  Brute-force counterpart of
    :func:`tribpoly.tribonacci.overshoot_poly`.
    """
    if n < 0:
        raise ValueError(f"overshoot index must be >= 0, got {n}")
    if s < 0:
        raise ValueError(f"overshoot level must be >= 0, got {s}")
    length = n + 2 * s
    _check_cap(length, cap)
    # s + 1 >= 1 longer pieces, so every member is non-empty
    members = _words(length, Tiling, s + 1, exact=True)
    return weight_distribution(t for t in members if t.pieces[-1] != SQUARE)
