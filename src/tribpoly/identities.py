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
from typing import Callable, Sequence

from . import tilings
from . import tribonacci as trib
from .poly import ONE, Polynomial, X, ZERO
from .series import TruncatedSeries, rational_expand

PASSED = "passed"
FAILED = "failed"
FILTERED = "filtered"
RESOURCE_LIMITED = "resource_limited"

_ONE_PLUS_X3 = Polynomial((1, 0, 0, 1))


@dataclass
class IdentityReport:
    """Outcome of one identity at one parameter point."""

    identity_id: str
    params: dict[str, int]
    status: str
    elapsed_ms: float
    lhs: str | None = None
    rhs: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASSED

    def to_json_dict(self) -> dict:
        out: dict = {
            "identity_id": self.identity_id,
            "params": dict(self.params),
            "status": self.status,
            "passed": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        return out


@dataclass(frozen=True)
class GridConfig:
    """Per-axis overrides for :func:`run_grid`; None keeps an identity's default."""

    n_range: tuple[int, int] | None = None
    s_range: tuple[int, int] | None = None
    h_range: tuple[int, int] | None = None
    series_order: int | None = None
    cap: int = tilings.DEFAULT_CAP


@dataclass(frozen=True)
class Identity:
    """One catalog entry.

    ``check`` is the module's ``verify_*`` function; ``params`` are the names
    of its positional parameters, which every report carries.  ``axes`` maps
    each grid axis, in sweep order, to its default: an ``(lo, hi)`` range, a
    single int, or a callable of the parameters before it that returns
    either.  A single-int axis the check does not take positionally is
    passed as a keyword; a range axis it does not take only gates the sweep,
    which yields nothing when that range is empty.
    """

    id: str
    check: Callable[..., IdentityReport]
    params: tuple[str, ...]
    axes: dict[str, object]


CATALOG: dict[str, Identity] = {}


def _identity(identity_id: str, precondition: Callable[..., bool], **axes: object):
    """Declare an identity: turn a function returning ``(lhs, rhs)``, or
    ``(lhs, rhs, holds)`` for a side condition that must also be true, into
    its ``verify_*`` check, and enter it in :data:`CATALOG`."""

    def declare(sides: Callable[..., tuple]) -> Callable[..., IdentityReport]:
        names = tuple(
            p.name
            for p in inspect.signature(sides).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD
        )

        @functools.wraps(sides)
        def check(*args: int, **options: int) -> IdentityReport:
            if len(args) < len(names):  # parameters passed by name
                args += tuple(options.pop(n) for n in names[len(args) :] if n in options)
            params = dict(zip(names, args))
            if not precondition(*args):
                return IdentityReport(identity_id, params, FILTERED, 0.0)
            started = time.perf_counter()
            try:
                lhs, rhs, *holds = sides(*args, **options)
            except tilings.EnumerationCapError:
                elapsed = (time.perf_counter() - started) * 1000.0
                return IdentityReport(identity_id, params, RESOURCE_LIMITED, elapsed)
            elapsed = (time.perf_counter() - started) * 1000.0
            if lhs == rhs and all(holds):
                return IdentityReport(identity_id, params, PASSED, elapsed)
            return IdentityReport(identity_id, params, FAILED, elapsed, lhs=str(lhs), rhs=str(rhs))

        CATALOG[identity_id] = Identity(identity_id, check, names, axes)
        return check

    return declare


def _series(terms: Sequence, order: int) -> TruncatedSeries:
    """A series from its leading terms, cut to the order."""
    return TruncatedSeries(terms[: order + 1], order)


# ----------------------------------------------------------------------
# the catalog


@_identity("EQ4", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 18), s=(0, 4))
def verify_eq4(n: int, s: int):
    """Three-term recurrence of the incomplete polynomials with end-piece corrections."""
    inc = trib.incomplete_tribonacci_poly
    lhs = inc(n + 3, s)
    correction = trib.triangle_poly(n - s, s).times_monomial(1, 1) + trib.triangle_poly(
        n - 1 - s, s
    )
    rhs = (
        inc(n + 2, s).times_monomial(1, 2)
        + inc(n + 1, s).times_monomial(1, 1)
        + inc(n, s)
        - correction
    )
    return lhs, rhs


@_identity(
    "ID1",
    lambda n, s, h: h >= 1 and s >= 0 and n >= 2 * s + 2,
    n=(2, 14),
    s=(0, 3),
    h=(1, 4),
)
def verify_id1(n: int, s: int, h: int):
    """Geometric-weighted window sum against a level-(s+1) telescope, in the
    form cleared of the 1 + x^3 denominator.  The cleared form is itself the
    divisibility statement: since 1 + x^3 is monic, it divides the telescope
    with quotient the window exactly when the two sides are equal."""
    inc = trib.incomplete_tribonacci_poly
    window = ZERO
    for i in range(h):
        window = window + inc(n + i, s).times_monomial(1, 2 * (h - i - 1))
    bracket = (
        inc(n + h + 2, s + 1)
        - inc(n + 2, s + 1).times_monomial(1, 2 * h)
        + inc(n, s).times_monomial(1, 2 * h + 1)
        - inc(n + h, s).times_monomial(1, 1)
    )
    return _ONE_PLUS_X3 * window, bracket


def _all_levels(n: int) -> Polynomial:
    """Sum of the index-(n+1) incomplete polynomials over every level."""
    total = ZERO
    for s in range(n // 2 + 1):
        total = total + trib.incomplete_tribonacci_poly(n + 1, s)
    return total


def _id2_correction(n: int) -> Polynomial:
    """The double-sum correction of ID2: level i of the index-(n+1) sum, weighted by i."""
    return trib.level_sum(n, range(n // 2 + 1))


@_identity("ID2", lambda n: n >= 1, n=(1, 16))
def verify_id2(n: int):
    """Sum over all restriction levels versus the double-sum correction term."""
    rhs = trib.tribonacci_poly(n + 1) * (n // 2 + 1) - _id2_correction(n)
    return _all_levels(n), rhs


@_identity("ID3", lambda n: n >= 1, n=(1, 16))
def verify_id3(n: int):
    """Sum over all restriction levels versus a convolution over the position
    of a longer piece."""
    tp = trib.tribonacci_poly
    conv = ZERO
    for j in range(1, n):
        conv = conv + (tp(j).times_monomial(1, 1) + tp(j - 1)) * tp(n - j)
    return _all_levels(n), tp(n + 1) * (n // 2 + 1) - conv


# quantified over n up to the order, so n only gates the sweep
@_identity("REMARK_A", lambda order: order >= 0, n=(1, 20), order=20)
def verify_remark_a(order: int):
    """Closed rational generating function for the correction totals at x = 1."""
    lhs = TruncatedSeries([_id2_correction(k).evaluate(1) for k in range(order + 1)], order)
    base = _series([1, -1, -1, -1], order)
    return lhs, rational_expand(_series([0, 0, 1, 1], order), base * base)


@_identity("ID4", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 16), s=(0, 4))
def verify_id4(n: int, s: int):
    """Decomposition of an incomplete polynomial by its run of trailing dominos."""
    inc = trib.incomplete_tribonacci_poly
    rhs = ZERO
    for i in range(s + 1):
        rhs = rhs + inc(n - 2 * i, s - i).times_monomial(1, i + 2)
        rhs = rhs + inc(n - 2 * i - 2, s - i - 1).times_monomial(1, i)
    return inc(n + 1, s), rhs


@_identity("ID5", lambda n, s: s >= 0 and n >= 3 * s + 1, n=(1, 16), s=(0, 4))
def verify_id5(n: int, s: int):
    """Decomposition by the composition of the final s tiles (trinomial refinement)."""
    inc = trib.incomplete_tribonacci_poly
    rhs = ZERO
    for i in range(s + 1):
        for j in range(s - i + 1):
            coeff = trib.binom(s, i) * trib.binom(s - i, j)
            rhs = rhs + inc(n - s - i - 2 * j, s - i - j).times_monomial(
                coeff, 2 * s - i - 2 * j
            )
    return inc(n, s), rhs


@_identity("ID6", lambda n, s: s >= 0 and n >= 2 * s, n=(0, 14), s=(0, 4))
def verify_id6(n: int, s: int):
    """Expansion through the incomplete Fibonacci family.  The statement lives
    at half-integer exponents, so both sides are compared after x -> y^2:
    tribonacci members carry exponents doubled, Fibonacci members tripled."""
    inc = trib.incomplete_tribonacci_poly
    fib = trib.incomplete_fibonacci_poly
    rhs = fib(n + 1, s).substitute_power(3).times_monomial(1, n)
    for i in range(1, n - 1):
        for j in range(s):
            delta = inc(n - i - 1, j) - inc(n - i - 1, j - 1)
            if delta.is_zero:
                continue
            piece = delta.substitute_power(2) * fib(i, s - j - 1).substitute_power(3)
            rhs = rhs + piece.times_monomial(1, i - 1)
    return inc(n + 1, s).substitute_power(2), rhs


@_identity("EQ12", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 18), s=(0, 4))
def verify_eq12(n: int, s: int):
    """Full polynomial minus the overshoot convolution equals the incomplete one."""
    acc = ZERO
    for i in range(n - 2 * s):
        acc = acc + trib.overshoot_poly(i, s) * trib.tribonacci_poly(n - 2 * s - i)
    return trib.incomplete_tribonacci_poly(n, s), trib.tribonacci_poly(n) - acc


@_identity("EQ13", lambda n, s: s >= 0 and n >= 2 * s + 1, n=(1, 18), s=(0, 4))
def verify_eq13(n: int, s: int):
    """Splitting of the full polynomial at a fixed boundary position."""
    tp = trib.tribonacci_poly
    rhs = (
        tp(n - 2 * s) * tp(2 * s + 1)
        + tp(n - 2 * s - 1) * (tp(2 * s - 1) + tp(2 * s).times_monomial(1, 1))
        + tp(n - 2 * s - 2) * tp(2 * s)
    )
    return tp(n), rhs


@_identity(
    "THM1",
    lambda n, s: n >= 0 and s >= 0,
    n=(0, 14),
    s=lambda n: (0, n // 2),
    cap=tilings.DEFAULT_CAP,
)
def verify_thm1(n: int, s: int, *, cap: int = tilings.DEFAULT_CAP):
    """Enumerated weight distribution of budget-restricted tilings equals the
    incomplete polynomial formula."""
    members = tilings.enumerate_restricted(n, s, cap=cap)
    return tilings.weight_distribution(members), trib.incomplete_tribonacci_poly(n + 1, s)


# ----------------------------------------------------------------------
# generating functions


def overshoot_generating_series(s: int, order: int) -> TruncatedSeries:
    """z^2 * ((x + z) / (1 - x^2 z))^(s+1); its z^n coefficient is
    ``overshoot_poly(n, s)``."""
    if s < 0:
        raise ValueError(f"overshoot level must be >= 0, got {s}")
    frac = rational_expand(_series([X, ONE], order), _series([ONE, -(X * X)], order))
    return (frac ** (s + 1)).shifted(2)


def direct_generating_series(s: int, order: int, *, x1: bool = False) -> TruncatedSeries:
    """Sum of the level-s incomplete family over all admissible indices,
    straight from the defining formulas; coefficients are numbers when x1."""
    if s < 0:
        raise ValueError(f"restriction level must be >= 0, got {s}")
    terms: list[Polynomial | int] = []
    for k in range(order + 1):
        if k < 2 * s + 1:
            terms.append(ZERO)
        elif x1:
            terms.append(trib.incomplete_tribonacci_number(k, s))
        else:
            terms.append(trib.incomplete_tribonacci_poly(k, s))
    return TruncatedSeries(terms, order)


def closed_form_generating_series(
    s: int, order: int, *, x1: bool = False, z2_offset: int = 0
) -> TruncatedSeries:
    """Rational closed form of the level-s generating function, expanded.

    ``z2_offset`` perturbs the z^2 coefficient of the numerator; the catalog
    uses it as a regression control (the perturbed form must not match).
    """
    if s < 0:
        raise ValueError(f"restriction level must be >= 0, got {s}")
    if x1:
        tn = trib.tribonacci_number
        head = [tn(2 * s + 1), tn(2 * s - 1) + tn(2 * s), tn(2 * s) + z2_offset]
        tail = (
            rational_expand(_series([1, 1], order), _series([1, -1], order)) ** (s + 1)
        ).shifted(2)
        denominator = _series([1, -1, -1, -1], order)
    else:
        tp = trib.tribonacci_poly
        head = [
            tp(2 * s + 1),
            tp(2 * s - 1) + tp(2 * s).times_monomial(1, 1),
            tp(2 * s) + z2_offset,
        ]
        tail = overshoot_generating_series(s, order)
        denominator = _series([ONE, -(X * X), -X, -ONE], order)
    return rational_expand(_series(head, order) - tail, denominator).shifted(2 * s + 1)


@_identity("THM2", lambda s, order: s >= 0 and order >= 2 * s + 1, s=(0, 4), order=25)
def verify_thm2(s: int, order: int):
    """Symbolic generating function: closed rational form against the direct sum."""
    return direct_generating_series(s, order), closed_form_generating_series(s, order)


@_identity("COR2", lambda s, order: s >= 0 and order >= 2 * s + 1, s=(0, 4), order=25)
def verify_cor2(s: int, order: int):
    """x = 1 generating function, including the regression control: the
    numerator with its z^2 coefficient shifted by -2 must fail to match.  The
    shift lands at z^(2s+3), so the control is judged from that order on."""
    lhs = direct_generating_series(s, order, x1=True)
    rhs = closed_form_generating_series(s, order, x1=True)
    if order < 2 * s + 3:
        return lhs, rhs
    control = closed_form_generating_series(s, order, x1=True, z2_offset=-2)
    return lhs, rhs, control != lhs


ALL_IDENTITY_IDS = tuple(CATALOG)


# ----------------------------------------------------------------------
# grid sweep


# grid axis -> the GridConfig field that overrides its default
_CONFIG_FIELDS = {
    "n": "n_range",
    "s": "s_range",
    "h": "h_range",
    "order": "series_order",
    "cap": "cap",
}


def _points(entry: Identity, cfg: GridConfig) -> tuple[list[tuple[int, ...]], dict[str, int]]:
    """The positional arguments of every check of one identity, in sweep
    order, and the keyword options they all share."""
    points: list[tuple[int, ...]] = [()]
    options: dict[str, int] = {}
    for axis, default in entry.axes.items():
        bounds = getattr(cfg, _CONFIG_FIELDS[axis])
        if bounds is None:
            bounds = default
        if axis not in entry.params:
            if isinstance(bounds, int):
                options[axis] = bounds
            elif bounds[0] > bounds[1]:
                return [], options
            continue
        grown = []
        for point in points:
            span = bounds(*point) if callable(bounds) else bounds
            if isinstance(span, int):
                grown.append((*point, span))
            else:
                for value in range(span[0], span[1] + 1):
                    grown.append((*point, value))
        points = grown
    return points, options


def run_grid(
    config: GridConfig | None = None, identities: Sequence[str] | None = None
) -> list[IdentityReport]:
    """Verify identities over their grids, in catalog order; deterministic."""
    cfg = config if config is not None else GridConfig()
    wanted = set(CATALOG if identities is None else identities)
    unknown = wanted.difference(CATALOG)
    if unknown:
        raise ValueError(f"unknown identity ids: {sorted(unknown)}")
    reports = []
    for identity_id, entry in CATALOG.items():
        if identity_id in wanted:
            points, options = _points(entry, cfg)
            for point in points:
                reports.append(entry.check(*point, **options))
    return reports


def summarize(reports: Sequence[IdentityReport]) -> dict[str, int]:
    counts = {PASSED: 0, FAILED: 0, FILTERED: 0, RESOURCE_LIMITED: 0}
    for report in reports:
        counts[report.status] += 1
    return counts


def all_passed(reports: Sequence[IdentityReport]) -> bool:
    """True when no point failed (filtered/resource-limited points are not failures)."""
    return not any(report.status == FAILED for report in reports)
