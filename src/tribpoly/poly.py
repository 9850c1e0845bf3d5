"""Exact univariate polynomials over Python's arbitrary-precision integers.

Everything in this package that is "a polynomial in x" is an instance of
:class:`Polynomial`: an immutable, dense coefficient tuple in canonical
form.  All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _require_int(value: object, what: str, low: int | None = None) -> None:
    """The one check of an integer argument (bool is an int): its type, then ``low``."""
    if not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")


def _terms(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero ``(exponent, coefficient)`` pairs of a coefficient list."""
    return [(e, c) for e, c in enumerate(coeffs) if c]


def _mul_add(
    out: list[int], a_terms: list[tuple[int, int]], b_terms: list[tuple[int, int]]
) -> None:
    """Add ``a[e] * b[f]`` into ``out[e + f]`` over the nonzero terms of both,
    first growing ``out`` with zeros to hold the product.

    The one schoolbook multiply of the package: ``_product_sum``, and with it
    ``Polynomial.__mul__``, and the series kernel accumulate into int lists through it."""
    if not a_terms or not b_terms:
        return
    if (grow := a_terms[-1][0] + b_terms[-1][0] + 1 - len(out)) > 0:
        out += [0] * grow
    for e, x in a_terms:
        for f, y in b_terms:
            out[e + f] += x * y


def _product_sum(
    terms: Iterable[tuple[int, int, "Polynomial", "Polynomial"]],
    powers: tuple[int, int] = (1, 1),
) -> "Polynomial":
    """Sum of ``c * x^e * P(x^p) * Q(x^q)`` over the ``(c, e, P, Q)`` terms,
    ``(p, q)`` the powers, into one int list through ``_mul_add``: c and e
    ride on P's terms, so the polynomial is built once, not once per term.
    The terms are read once, so a generator keeps one term's operands alive.

    Package-internal: int weights, shifts e >= 0 and powers >= 1 are trusted."""
    p, q = powers
    out: list[int] = []
    for c, e, a, b in terms:
        a_terms = [(p * k + e, c * x) for k, x in enumerate(a._coeffs) if x]
        _mul_add(out, a_terms, [(q * k, y) for k, y in enumerate(b._coeffs) if y])
    return Polynomial._trusted(out)


class Polynomial:
    """Dense integer polynomial; ``coeffs[k]`` is the coefficient of ``x**k``.

    Canonical form: the coefficient tuple never ends in a zero and the zero
    polynomial is the empty tuple, so equality is plain tuple equality and
    no operation needs a special case for the degree of zero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        stripped = list(coeffs)
        for c in stripped:
            if not isinstance(c, int):  # bool is an int; a float would break exactness
                t = type(c).__name__
                raise TypeError(f"polynomial coefficients must be exact integers, got {t}")
        while stripped and stripped[-1] == 0:
            stripped.pop()
        self._coeffs = tuple(stripped)

    @classmethod
    def _trusted(cls, coeffs: list[int]) -> "Polynomial":
        """Package-internal constructor for a fresh list of ints that exact
        arithmetic has just made: trailing zeros are stripped (in place) and
        no coefficient is re-checked.  Public input goes through ``__init__``."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = object.__new__(cls)
        poly._coeffs = tuple(coeffs)
        return poly

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_terms(cls, terms: Mapping[int, int]) -> "Polynomial":
        """Build from an exponent -> coefficient mapping (zeros allowed)."""
        live = {e: c for e, c in terms.items() if c != 0}
        if not live:
            return cls()
        try:
            if min(live) < 0:
                raise ValueError(f"polynomial exponent must be >= 0, got {min(live)}")
            out = [0] * (max(live) + 1)
            for e, c in live.items():
                out[e] = c
        except (TypeError, ValueError) as exc:
            refusal = exc
        else:
            return cls(out)
        # only a refusal pays for a check per key: a key that is not an int
        # is named, as at the other doors, before its sign is judged
        for e in live:
            _require_int(e, "polynomial exponent")
        raise refusal

    @classmethod
    def from_coeff_strings(cls, strings: Sequence[str]) -> "Polynomial":
        """Inverse of :meth:`to_coeff_strings`."""
        return cls(int(s) for s in strings)

    # ------------------------------------------------------------------
    # structure

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._coeffs == rhs._coeffs

    def __hash__(self) -> int:
        # a constant equals, so hashes as, the int it holds
        return hash(self._coeffs if len(self._coeffs) > 1 else sum(self._coeffs))

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _coerce(value: "Polynomial | int") -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial((value,))
        return None

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._coeffs, rhs._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b) :]
        return Polynomial._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted([-c for c in self._coeffs])

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, Polynomial):
            return _product_sum([(1, 0, self, other)])
        if isinstance(other, int):
            return self.times_monomial(other, 0)
        return NotImplemented

    __rmul__ = __mul__

    def times_monomial(self, coefficient: int, exponent: int) -> "Polynomial":
        """``coefficient * x**exponent * self`` without a full convolution."""
        _require_int(exponent, "monomial exponent", 0)
        _require_int(coefficient, "monomial coefficient")
        if coefficient == 0 or not self._coeffs:
            return Polynomial()
        return Polynomial._trusted([0] * exponent + [coefficient * c for c in self._coeffs])

    def evaluate(self, point: int) -> int:
        """Exact integer evaluation at ``x = point``: the coefficient sum at 1, else Horner."""
        _require_int(point, "evaluation point")
        if point == 1:
            return sum(self._coeffs)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def substitute_power(self, m: int) -> "Polynomial":
        """Substitute ``x -> y**m``: every exponent is multiplied by m."""
        _require_int(m, "substituted power", 1)
        if not self._coeffs:
            return Polynomial()
        out = [0] * ((len(self._coeffs) - 1) * m + 1)
        out[::m] = self._coeffs
        return Polynomial._trusted(out)

    # ------------------------------------------------------------------
    # rendering / serialization

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xpart = "x" if k == 1 else f"x^{k}"
                term = xpart if mag == 1 else f"{mag}*{xpart}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" + {term}" if c > 0 else f" - {term}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    def to_coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, ascending exponent.

        Strings rather than bare ints so that arbitrarily large values
        survive any JSON consumer unscathed.
        """
        return [str(c) for c in self._coeffs]


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))
