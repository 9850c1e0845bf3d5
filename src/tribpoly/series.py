"""Truncated formal power series in z whose coefficients are polynomials in x.

A :class:`TruncatedSeries` of order N carries exactly the coefficients of
z^0 .. z^N.  Arithmetic is exact and closed under the truncation: the
product of two order-N series is the true product with every term above
z^N discarded, so any chain of operations at a common order agrees with
the untruncated computation up to that order.

A product or an inverse sums each z-coefficient in one plain int list,
through the multiply-accumulate kernel that ``Polynomial.__mul__`` uses
too, and builds one Polynomial per z-coefficient at the end.  A quotient
N / D is the inverse's recurrence with each z^k list seeded by N's z^k
coefficient, so no product follows it.  So the time goes to the kernel's
term products, one int multiply-add per pair of nonzero x-terms, and not to
a Polynomial per product and per partial sum.
"""

from __future__ import annotations

from typing import Iterable, Union

from .poly import ONE, Polynomial, ZERO, _mul_add, _require_int, _terms

CoeffLike = Union[Polynomial, int]


def _as_poly(value: CoeffLike) -> Polynomial:
    if (poly := Polynomial._coerce(value)) is not None:
        return poly
    raise TypeError(f"series coefficients must be Polynomial or int, got {type(value).__name__}")


class TruncatedSeries:
    """Power series in z, truncated after z**order, with Polynomial coefficients."""

    __slots__ = ("_order", "_coeffs")

    def __init__(self, terms: Iterable[CoeffLike], order: int) -> None:
        _require_int(order, "series order", 0)
        coeffs = [_as_poly(t) for t in terms]
        if len(coeffs) > order + 1:
            raise ValueError(
                f"got {len(coeffs)} coefficients for a series of order {order}"
            )
        coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
        self._order = order
        self._coeffs = tuple(coeffs)

    @classmethod
    def _trusted(cls, polys: Iterable[Polynomial], order: int) -> "TruncatedSeries":
        """Package-internal constructor for exactly ``order + 1`` Polynomial
        coefficients that the package's own arithmetic has just made: nothing
        is coerced, padded or checked.  Public input goes through ``__init__``."""
        series = object.__new__(cls)
        series._order = order
        series._coeffs = tuple(polys)
        return series

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((ONE,), order)

    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self._order != other._order:
            raise ValueError(
                f"series order mismatch: {self._order} != {other._order}"
            )

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries._trusted(
            [a + b for a, b in zip(self._coeffs, other._coeffs)], self._order
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted([-a for a in self._coeffs], self._order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self._order
        # the x-terms of each nonzero z-coefficient, collected once per call;
        # each z^k of the product is then summed in one int list
        b_terms = [(j, _terms(b.coeffs)) for j, b in enumerate(other._coeffs) if b]
        out: list[list[int]] = [[] for _ in range(n + 1)]
        for i, a in enumerate(self._coeffs):
            if a:
                a_terms = _terms(a.coeffs)
                for j, b in b_terms:
                    if i + j > n:
                        break
                    _mul_add(out[i + j], a_terms, b)
        return TruncatedSeries._trusted([Polynomial._trusted(c) for c in out], n)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        _require_int(exponent, "series exponent", 0)
        if not exponent:
            return TruncatedSeries.one(self._order)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def inverse(self, numerator: "TruncatedSeries | None" = None) -> "TruncatedSeries":
        """Multiplicative inverse, or ``numerator / self`` when a numerator is
        given; requires constant coefficient exactly 1.

        Solving self * out = N degree by degree gives the recurrence
        out[k] = N[k] - sum(self[j] * out[k - j]) over the nonzero self[j],
        1 <= j <= k, with N = 1 for the plain inverse.  Each out[k] is summed
        in one int list, seeded with N[k]'s coefficients and accumulating the
        negated self[j] terms.
        """
        if self._coeffs[0] != ONE:
            raise ValueError("series inverse requires constant coefficient 1")
        if numerator is None:
            numerator = TruncatedSeries.one(self._order)
        elif not isinstance(numerator, TruncatedSeries):
            raise TypeError(
                f"series numerator must be a TruncatedSeries, got {type(numerator).__name__}"
            )
        numerator._require_same_order(self)
        minus_d = [
            (j, [(e, -c) for e, c in _terms(d.coeffs)])
            for j, d in enumerate(self._coeffs)
            if j and d
        ]
        out: list[Polynomial] = []
        out_terms: list[list[tuple[int, int]]] = []
        for k, n_k in enumerate(numerator._coeffs):
            acc = list(n_k.coeffs)
            for j, d in minus_d:
                if j > k:
                    break
                _mul_add(acc, d, out_terms[k - j])
            out.append(Polynomial._trusted(acc))
            out_terms.append(_terms(acc))
        return TruncatedSeries._trusted(out, self._order)

    def shifted(self, k: int) -> "TruncatedSeries":
        """Multiply by z**k, discarding what truncation pushes past the order."""
        _require_int(k, "shift", 0)
        kept = self._coeffs[: max(0, self._order + 1 - k)]
        return TruncatedSeries._trusted((ZERO,) * min(k, self._order + 1) + kept, self._order)

    # ------------------------------------------------------------------
    # rendering

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self._coeffs):
            if c.is_zero:
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self._order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self._order}, {str(self)!r})"


def rational_expand(numerator: TruncatedSeries, denominator: TruncatedSeries) -> TruncatedSeries:
    """Expand numerator / denominator; the denominator's constant term must be 1.

    One pass of the recurrence out[k] = N[k] - sum D[j] out[k - j], through
    ``denominator.inverse(numerator)``: each out[k] costs the term products
    of the denominator's nonzero z-coefficients with the earlier outputs, so
    a short denominator makes the expansion cheap however long the numerator
    is.
    """
    return denominator.inverse(numerator)
