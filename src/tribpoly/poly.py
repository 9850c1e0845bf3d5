"""Exact univariate polynomials over Python's arbitrary-precision integers.

Everything in this package that is "a polynomial in x" is an instance of
:class:`Polynomial`: an immutable, dense coefficient tuple in canonical
form.  All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


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
            # bool is an int subclass and harmless; floats would silently
            # break exactness, so they are rejected outright.
            if not isinstance(c, int):
                raise TypeError(
                    f"polynomial coefficients must be exact integers, got {type(c).__name__}"
                )
        while stripped and stripped[-1] == 0:
            stripped.pop()
        self._coeffs = tuple(stripped)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def monomial(cls, coefficient: int, exponent: int) -> "Polynomial":
        """``coefficient * x**exponent``."""
        if exponent < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {exponent}")
        if coefficient == 0:
            return cls()
        return cls((0,) * exponent + (coefficient,))

    @classmethod
    def from_terms(cls, terms: Mapping[int, int]) -> "Polynomial":
        """Build from an exponent -> coefficient mapping (zeros allowed)."""
        live = {e: c for e, c in terms.items() if c != 0}
        if not live:
            return cls()
        if min(live) < 0:
            raise ValueError("polynomial exponents must be >= 0")
        out = [0] * (max(live) + 1)
        for e, c in live.items():
            out[e] = c
        return cls(out)

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

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == Polynomial((other,))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

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
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

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
        if isinstance(other, int):
            return Polynomial(other * c for c in self._coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def times_monomial(self, coefficient: int, exponent: int) -> "Polynomial":
        """``coefficient * x**exponent * self`` without a full convolution."""
        if exponent < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {exponent}")
        if coefficient == 0 or not self._coeffs:
            return Polynomial()
        return Polynomial((0,) * exponent + tuple(coefficient * c for c in self._coeffs))

    def evaluate(self, point: int) -> int:
        """Exact integer evaluation at ``x = point`` (Horner)."""
        if not isinstance(point, int):
            raise TypeError("evaluation point must be an exact integer")
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def substitute_power(self, m: int) -> "Polynomial":
        """Substitute ``x -> y**m``: every exponent is multiplied by m."""
        if m < 1:
            raise ValueError(f"power substitution needs m >= 1, got {m}")
        if not self._coeffs:
            return Polynomial()
        out = [0] * ((len(self._coeffs) - 1) * m + 1)
        for k, c in enumerate(self._coeffs):
            out[k * m] = c
        return Polynomial(out)

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
