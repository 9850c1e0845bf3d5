"""Exact verification of the identity catalog over parameter grids.

Every ``verify_*`` function checks one identity at one parameter point by
computing both sides independently and comparing for exact equality; the
outcome is an :class:`IdentityReport`.  Points that violate an identity's
stated precondition are reported as filtered, never as failures, and
enumeration-backed checks whose instance exceeds the tiling cap are
reported as resource-limited.

Each identity is declared once, on the function that computes its two
sides: its id, its precondition and the default of each grid axis.  The
declaration makes the ``verify_*`` check and enters it in :data:`CATALOG`.
:func:`run_grid` sweeps the catalog, whole or in part, over those defaults,
which mirror the acceptance bounds, with per-axis overrides via
:class:`GridConfig`.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from . import generating, tilings
from . import tribonacci as trib
from .generating import (  # overshoot_generating_series: perfbench/tracing.py reads it here
    _series,
    closed_form_generating_series,
    direct_generating_series,
    overshoot_generating_series,
)
from .poly import ONE, Polynomial, _product_sum, _require_int
from .series import TruncatedSeries, rational_expand

PASSED = "passed"
FAILED = "failed"
FILTERED = "filtered"
RESOURCE_LIMITED = "resource_limited"


@dataclass
class IdentityReport:
    """Outcome of one identity at one parameter point; only a failed one keeps its two sides."""

    identity_id: str
    params: dict[str, int]
    status: str
    elapsed_ms: float
    lhs: Polynomial | TruncatedSeries | None = None
    rhs: Polynomial | TruncatedSeries | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASSED


@dataclass(frozen=True)
class GridConfig:
    """Overrides for :func:`run_grid`; None keeps the default.  A range or order
    replaces the default of that grid axis in every identity that takes the
    parameter; ``cap`` is passed only when set, so unset, ``verify_thm1``'s own applies."""

    n_range: tuple[int, int] | None = None
    s_range: tuple[int, int] | None = None
    h_range: tuple[int, int] | None = None
    series_order: int | None = None
    cap: int | None = None


@dataclass(frozen=True)
class Identity:
    """One catalog entry.

    ``check`` is the module's ``verify_*`` function.  ``params`` are the
    names of its positional parameters, which every report carries, and they
    are exactly the grid axes: ``axes`` maps each, in sweep order, to its
    default, an ``(lo, hi)`` range, a single int ``v`` (the one-value span
    ``(v, v)``), or a callable of the parameters before it that returns
    either.  ``options`` are the names of its keyword-only parameters, whose
    defaults live on the check alone.
    """

    check: Callable[..., IdentityReport]
    params: tuple[str, ...]
    axes: dict[str, object]
    options: tuple[str, ...]


CATALOG: dict[str, Identity] = {}


def _identity(identity_id: str, precondition: Callable[..., bool], **axes: object):
    """Declare an identity: turn a function returning its two sides ``(lhs, rhs)``
    into its ``verify_*`` check, and enter it in :data:`CATALOG`."""

    def declare(sides: Callable[..., tuple]) -> Callable[..., IdentityReport]:
        signature = inspect.signature(sides)
        parameters = signature.parameters.values()
        names = tuple(p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD)
        keywords = tuple(p.name for p in parameters if p.kind is p.KEYWORD_ONLY)
        whats = [f"{identity_id} {name}" for name in names]

        @functools.wraps(sides)
        def check(*args: int, **options: int) -> IdentityReport:
            # bind and check first: bad calls raise at every point, filtered or judged
            if options or len(args) != len(names):
                options = signature.bind(*args, **options).arguments
                args = tuple(options.pop(n) for n in names)
            for value, what in zip(args, whats):
                _require_int(value, what)
            params = dict(zip(names, args))
            if not precondition(*args):
                return IdentityReport(identity_id, params, FILTERED, 0.0)
            started = time.perf_counter()
            try:
                lhs, rhs = sides(*args, **options)
                status = PASSED if lhs == rhs else FAILED
            except tilings.EnumerationCapError:
                status = RESOURCE_LIMITED
            elapsed = (time.perf_counter() - started) * 1000.0
            compared = (lhs, rhs) if status == FAILED else ()
            return IdentityReport(identity_id, params, status, elapsed, *compared)

        CATALOG[identity_id] = Identity(check, names, axes, keywords)
        return check

    return declare


# ----------------------------------------------------------------------
# the catalog


@_identity("EQ4", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 18), s=(0, 4))
def verify_eq4(n: int, s: int):
    """Three-term recurrence of the incomplete polynomials, corrected by the
    overshoot weight: the tilings that first go over a budget of s longer pieces."""
    members = [(1, 2, n + 2, s), (1, 1, n + 1, s), (1, 0, n, s)]
    overshoot = trib._overshoot_parts(n - 2 * s + 2, s, -1)
    return trib.incomplete_tribonacci_poly(n + 3, s), trib._incomplete_sum(members, overshoot)


@_identity(
    "ID1",
    lambda n, s, h: h >= 1 and s >= 0 and n >= 2 * s + 2,
    n=(2, 14),
    s=(0, 3),
    h=(1, 4),
)
def verify_id1(n: int, s: int, h: int):
    """Geometric-weighted window sum against a level-(s+1) telescope, cleared of the
    1 + x^3 denominator by taking each window member at shifts e and e + 3.  The
    cleared form is the divisibility statement: since 1 + x^3 is monic, it divides
    the telescope with quotient the window exactly when the two sides are equal."""
    cleared = [(1, 2 * (h - i - 1) + d, n + i, s) for i in range(h) for d in (0, 3)]
    bracket = trib._incomplete_sum(
        [(1, 0, n + h + 2, s + 1), (-1, 2 * h, n + 2, s + 1)]
        + [(1, 2 * h + 1, n, s), (-1, 1, n + h, s)]
    )
    return trib._incomplete_sum(cleared), bracket


def _all_levels(n: int) -> Polynomial:
    """Sum of the index-(n+1) incomplete polynomials over every level s: level
    i's triangle entry lies in the top - i members s >= i."""
    top = n // 2 + 1
    return _product_sum((top - i, 0, trib.triangle_poly(n - i, i), ONE) for i in range(top))


def _id2_correction(n: int) -> Polynomial:
    """The double-sum correction of ID2: level i of the index-(n+1) sum, weighted by i."""
    return trib.level_sum(n, range(n // 2 + 1))


@_identity("ID2", lambda n: n >= 1, n=(1, 16))
def verify_id2(n: int):
    """Sum over all restriction levels versus the double-sum correction term."""
    return _all_levels(n), trib.tribonacci_poly(n + 1) * (n // 2 + 1) - _id2_correction(n)


@_identity("ID3", lambda n: n >= 1, n=(1, 16))
def verify_id3(n: int):
    """Sum over all restriction levels versus a convolution over the position
    of a longer piece."""
    tp = trib.tribonacci_poly
    conv = ((-1, 0, tp(j).times_monomial(1, 1) + tp(j - 1), tp(n - j)) for j in range(1, n))
    return _all_levels(n), _product_sum(chain([(n // 2 + 1, 0, tp(n + 1), ONE)], conv))


@_identity("REMARK_A", lambda order: order >= 0, order=20)
def verify_remark_a(order: int):
    """Closed rational generating function for the correction totals at x = 1."""
    lhs = TruncatedSeries([_id2_correction(k).evaluate(1) for k in range(order + 1)], order)
    base = _series([1, -1, -1, -1], 6)  # its square has degree 6
    return lhs, rational_expand(_series([0, 0, 1, 1], order), _series((base * base).coeffs, order))


@_identity("ID4", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 16), s=(0, 4))
def verify_id4(n: int, s: int):
    """Decomposition of an incomplete polynomial by its run of trailing dominos."""
    rhs = trib._incomplete_sum(
        [(1, i + 2, n - 2 * i, s - i) for i in range(s + 1)]
        + [(1, i, n - 2 * i - 2, s - i - 1) for i in range(s + 1)]
    )
    return trib.incomplete_tribonacci_poly(n + 1, s), rhs


@_identity("ID5", lambda n, s: s >= 0 and n >= 3 * s + 1, n=(1, 16), s=(0, 4))
def verify_id5(n: int, s: int):
    """Decomposition by the composition of the final s tiles (trinomial refinement)."""
    binom = trib.binom
    rhs = trib._incomplete_sum(
        [
            (binom(s, i) * binom(s - i, j), 2 * s - i - 2 * j, n - s - i - 2 * j, s - i - j)
            for i in range(s + 1)
            for j in range(s - i + 1)
        ]
    )
    return trib.incomplete_tribonacci_poly(n, s), rhs


@_identity("ID6", lambda n, s: s >= 0 and n >= 2 * s, n=(0, 14), s=(0, 4))
def verify_id6(n: int, s: int):
    """Expansion through the incomplete Fibonacci family.  The statement lives
    at half-integer exponents, so both sides are compared after x -> y^2:
    tribonacci members carry exponents doubled, Fibonacci members tripled,
    the right side's by the product sum's powers (2, 3).

    The right side's tribonacci factors are the level-j steps
    inc(m, j) - inc(m, j - 1), read by the level lemma as the triangle entry
    B(m - 1 - j, j): zero past the top level, where both members clamp."""
    fib = trib.incomplete_fibonacci_poly
    pieces = (
        (1, i - 1, trib.triangle_poly(n - i - 2 - j, j), fib(i, s - j - 1))
        for i in range(1, n - 1)
        for j in range(s)
    )
    rhs = _product_sum(chain([(1, n, ONE, fib(n + 1, s))], pieces), (2, 3))
    return trib.incomplete_tribonacci_poly(n + 1, s).substitute_power(2), rhs


@_identity("EQ12", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 18), s=(0, 4))
def verify_eq12(n: int, s: int):
    """Full polynomial minus the overshoot convolution equals the incomplete one."""
    tp = trib.tribonacci_poly
    conv = ((-1, 0, trib.overshoot_poly(i, s), tp(n - 2 * s - i)) for i in range(n - 2 * s))
    return trib.incomplete_tribonacci_poly(n, s), _product_sum(chain([(1, 0, tp(n), ONE)], conv))


@_identity("EQ13", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 18), s=(0, 4))
def verify_eq13(n: int, s: int):
    """Splitting of the full polynomial at the cut after cell 2s: a tiling that
    meets it as ``generating._split_head(s)[j]`` says goes on with T(n - 2s - j).
    The head is read at its home, as the closed form reads it, so one fault there
    reaches both EQ13 and THM2."""
    tp = trib.tribonacci_poly
    head = generating._split_head(s)
    return tp(n), _product_sum((1, 0, h, tp(n - 2 * s - j)) for j, h in enumerate(head))


@_identity("THM1", lambda n, s: n >= 0 and s >= 0, n=(0, 14), s=lambda n: (0, n // 2))
def verify_thm1(n: int, s: int, *, cap: int = tilings.DEFAULT_CAP):
    """Enumerated weight distribution of budget-restricted tilings equals the
    incomplete polynomial formula."""
    members = tilings.enumerate_restricted(n, s, cap=cap)
    return tilings.weight_distribution(members), trib.incomplete_tribonacci_poly(n + 1, s)


@_identity("THM2", lambda s, order: s >= 0 and order >= 2 * s + 1, s=(0, 4), order=25)
def verify_thm2(s: int, order: int):
    """Symbolic generating function: closed rational form against the direct sum.

    A check at order >= 3s + 4 proves the identity at every order.  Let
    E = (1 - x^2 z)^(s+1) D.  E times the closed form is
    z^(2s+1) ((1 - x^2 z)^(s+1) head - z^2 (x + z)^(s+1)), a polynomial in z
    of degree <= 3s + 4.  The direct side sums columns l <= s of the triangle
    from index 2s + 1 on; column l has the generating function
    z (x z^2 + z^3)^l / (1 - x^2 z)^(l+1) (the transfer-matrix method), so E
    times the direct side is a polynomial of degree <= 3s + 4 too.  E has
    constant term 1, so two such products that agree through z^(3s+4) are
    equal, and so are the two series.  The default order 25 decides s <= 7.
    """
    return direct_generating_series(s, order), closed_form_generating_series(s, order)


@_identity("COR2", lambda s, order: s >= 0 and order >= 2 * s + 1, s=(0, 4), order=25)
def verify_cor2(s: int, order: int):
    """Numeric generating function: the closed form at x = 1 against the direct sum.

    ``verify_thm2``'s argument holds at x = 1 as it stands, so a check at
    order >= 3s + 4 proves the identity at every order here too.
    """
    direct = direct_generating_series(s, order, x1=True)
    return direct, closed_form_generating_series(s, order, x1=True)


ALL_IDENTITY_IDS = tuple(CATALOG)


# ----------------------------------------------------------------------
# grid sweep


# grid axis or option -> the GridConfig field that sets it
_CONFIG_FIELDS = {
    "n": "n_range",
    "s": "s_range",
    "h": "h_range",
    "order": "series_order",
    "cap": "cap",
}


def _points(entry: Identity, cfg: GridConfig) -> tuple[list[tuple[int, ...]], dict[str, int]]:
    """The positional arguments of every check of one identity, one grid
    axis per parameter in sweep order, and the keyword options they all
    share: those the config sets, so an unset one keeps the check's default."""
    points: list[tuple[int, ...]] = [()]
    for axis in entry.params:
        bounds = getattr(cfg, _CONFIG_FIELDS[axis])
        if bounds is None:
            bounds = entry.axes[axis]
        grown = []
        for point in points:
            span = bounds(*point) if callable(bounds) else bounds
            lo, hi = (span, span) if isinstance(span, int) else span
            for value in range(lo, hi + 1):
                grown.append((*point, value))
        points = grown
    options = {k: v for k in entry.options if (v := getattr(cfg, _CONFIG_FIELDS[k])) is not None}
    return points, options


def run_grid(
    config: GridConfig | None = None, identities: Sequence[str] | None = None
) -> list[IdentityReport]:
    """Verify identities over their grids, in catalog order; deterministic."""
    if isinstance(identities, str):
        raise TypeError(f"identities must be a sequence of ids, got the string {identities!r}")
    cfg = config if config is not None else GridConfig()
    wanted = set(CATALOG if identities is None else identities)
    unknown = wanted.difference(CATALOG)
    if unknown:
        raise ValueError(f"unknown identity ids: {sorted(unknown)}")
    reports = []
    for identity_id in sorted(wanted, key=ALL_IDENTITY_IDS.index):
        entry = CATALOG[identity_id]
        points, options = _points(entry, cfg)
        reports += [entry.check(*point, **options) for point in points]
    return reports


def summarize(reports: Sequence[IdentityReport]) -> dict[str, int]:
    counts = {PASSED: 0, FAILED: 0, FILTERED: 0, RESOURCE_LIMITED: 0}
    for report in reports:
        counts[report.status] += 1
    return counts


def all_passed(reports: Sequence[IdentityReport]) -> bool:
    """True when no point failed (filtered/resource-limited points are not failures)."""
    return not any(report.status == FAILED for report in reports)
