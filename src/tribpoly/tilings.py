"""Brute-force enumeration of linear tilings and their weight statistics.

Plain tilings cover a strip of length n with squares (r, length 1),
dominos (d, length 2) and trominos (t, length 3); dominos and trominos
together are the "longer" pieces.  Colored tilings cover a strip with
black squares (B), white squares (W) and dominos (D).

Enumeration is intentionally naive, because these sets are the
independent oracle against which the closed formulas are checked, and is
therefore capped; raising the cap is a deliberate, explicit act.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .poly import Polynomial

DEFAULT_CAP = 18

SQUARE = "r"
DOMINO = "d"
TROMINO = "t"
_PIECE_LEN = {SQUARE: 1, DOMINO: 2, TROMINO: 3}

BLACK = "B"
WHITE = "W"
COLORED_DOMINO = "D"
_COLORED_LEN = {BLACK: 1, WHITE: 1, COLORED_DOMINO: 2}

_EXPANSION = {BLACK: SQUARE, WHITE: DOMINO, COLORED_DOMINO: TROMINO}


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would exceed the configured length cap."""


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError(f"tiling length must be >= 0, got {n}")
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of length {n} exceeds the cap of {cap}; pass a larger cap explicitly"
        )


@dataclass(frozen=True)
class Tiling:
    """One tiling, as its piece sequence; statistics are computed on demand."""

    pieces: tuple[str, ...]

    @property
    def length(self) -> int:
        return sum(_PIECE_LEN[p] for p in self.pieces)

    @property
    def squares(self) -> int:
        return sum(1 for p in self.pieces if p == SQUARE)

    @property
    def dominos(self) -> int:
        return sum(1 for p in self.pieces if p == DOMINO)

    @property
    def trominos(self) -> int:
        return sum(1 for p in self.pieces if p == TROMINO)

    @property
    def longer_pieces(self) -> int:
        return self.dominos + self.trominos

    @property
    def weight_exponent(self) -> int:
        # squares count twice, dominos once, trominos not at all
        return 2 * self.squares + self.dominos

    def word(self) -> str:
        return "".join(self.pieces)


@dataclass(frozen=True)
class ColoredTiling:
    """Square-and-domino tiling with black/white squares."""

    pieces: tuple[str, ...]

    @property
    def length(self) -> int:
        return sum(_COLORED_LEN[p] for p in self.pieces)

    @property
    def black_squares(self) -> int:
        return sum(1 for p in self.pieces if p == BLACK)

    @property
    def white_squares(self) -> int:
        return sum(1 for p in self.pieces if p == WHITE)

    @property
    def dominos(self) -> int:
        return sum(1 for p in self.pieces if p == COLORED_DOMINO)

    @property
    def color_budget(self) -> int:
        """White squares plus dominos: the index the family is graded by."""
        return self.white_squares + self.dominos

    @property
    def weight_exponent(self) -> int:
        return 2 * self.black_squares + self.white_squares

    def word(self) -> str:
        return "".join(self.pieces)


# ----------------------------------------------------------------------
# enumeration; piece order r < d < t makes the output lexicographic


def _tilings(n: int, budget: int | None) -> Iterator[tuple[str, ...]]:
    if n == 0:
        yield ()
        return
    for rest in _tilings(n - 1, budget):
        yield (SQUARE,) + rest
    if budget is None or budget > 0:
        nxt = None if budget is None else budget - 1
        if n >= 2:
            for rest in _tilings(n - 2, nxt):
                yield (DOMINO,) + rest
        if n >= 3:
            for rest in _tilings(n - 3, nxt):
                yield (TROMINO,) + rest


def enumerate_tilings(n: int, *, cap: int = DEFAULT_CAP) -> list[Tiling]:
    """All tilings of length n, in lexicographic word order (r < d < t)."""
    _check_cap(n, cap)
    return [Tiling(p) for p in _tilings(n, None)]


def enumerate_restricted(n: int, max_longer: int, *, cap: int = DEFAULT_CAP) -> list[Tiling]:
    """Tilings of length n with at most ``max_longer`` longer pieces."""
    _check_cap(n, cap)
    if max_longer < 0:
        return []
    return [Tiling(p) for p in _tilings(n, max_longer)]


def weight_distribution(tilings: Iterable[Tiling | ColoredTiling]) -> Polynomial:
    """Sum of x**weight_exponent over the given tilings, plain or colored."""
    counts = Counter(t.weight_exponent for t in tilings)
    return Polynomial.from_terms(counts)


def _colored(n: int, budget: int) -> Iterator[tuple[str, ...]]:
    if n == 0:
        if budget == 0:
            yield ()
        return
    for rest in _colored(n - 1, budget):
        yield (BLACK,) + rest
    if budget > 0:
        for rest in _colored(n - 1, budget - 1):
            yield (WHITE,) + rest
        if n >= 2:
            for rest in _colored(n - 2, budget - 1):
                yield (COLORED_DOMINO,) + rest


def enumerate_colored(n: int, i: int, *, cap: int = DEFAULT_CAP) -> list[ColoredTiling]:
    """Colored tilings of length n with white squares + dominos == i."""
    _check_cap(n, cap)
    if i < 0:
        return []
    return [ColoredTiling(p) for p in _colored(n, i)]


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
    members = (Tiling(p) for p in _tilings(n, k))
    return weight_distribution(t for t in members if t.longer_pieces == k)


def overshoot_distribution(n: int, s: int, *, cap: int = DEFAULT_CAP) -> Polynomial:
    """Weight of length-(n + 2s) tilings with exactly s + 1 longer pieces,
    ending in a longer piece.  Brute-force counterpart of
    :func:`tribpoly.tribonacci.overshoot_poly`.
    """
    if s < 0:
        raise ValueError(f"overshoot level must be >= 0, got {s}")
    length = n + 2 * s
    _check_cap(length, cap)
    members = (Tiling(p) for p in _tilings(length, s + 1))
    return weight_distribution(
        t
        for t in members
        if t.longer_pieces == s + 1 and t.pieces and t.pieces[-1] != SQUARE
    )
