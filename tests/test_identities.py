import inspect
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tribpoly import (
    GridConfig,
    Polynomial,
    TruncatedSeries,
    X,
    ZERO,
    all_passed,
    closed_form_generating_series,
    direct_generating_series,
    run_grid,
    summarize,
    verify_cor2,
    verify_eq4,
    verify_eq12,
    verify_eq13,
    verify_id1,
    verify_id2,
    verify_id3,
    verify_id4,
    verify_id5,
    verify_id6,
    verify_remark_a,
    verify_thm1,
    verify_thm2,
)
from tribpoly import cli
from tribpoly import generating as gen
from tribpoly import identities as ident
from tribpoly import tribonacci as trib


def test_eq4_example_point():
    report = verify_eq4(1, 0)
    assert report.passed
    assert report.status == "passed"
    assert report.params == {"n": 1, "s": 0}
    assert report.lhs is None and report.rhs is None
    assert report.elapsed_ms >= 0.0


def test_filtered_points_are_not_failures():
    report = verify_eq4(4, 2)  # needs n >= 2s + 1
    assert report.status == "filtered"
    assert not report.passed
    assert report.lhs is None
    assert verify_id1(3, 1, 2).status == "filtered"  # needs n >= 2s + 2
    assert verify_id5(6, 2).status == "filtered"  # needs n >= 3s + 1
    assert verify_id2(0).status == "filtered"
    assert verify_thm2(2, 3).status == "filtered"  # order below the offset
    assert verify_thm1(-1, 0).status == "filtered"


def test_small_grid_points_pass():
    assert verify_id1(2, 0, 1).passed
    assert verify_id2(5).passed
    assert verify_id3(5).passed
    assert verify_id4(7, 2).passed
    assert verify_id5(7, 2).passed
    assert verify_id6(2, 0).passed
    assert verify_id6(8, 3).passed
    assert verify_eq12(4, 0).passed
    assert verify_eq13(9, 3).passed
    assert verify_thm1(5, 1).passed
    assert verify_remark_a(12).passed
    assert verify_thm2(0, 10).passed
    assert verify_cor2(0, 10).passed


def test_thm1_respects_the_cap():
    report = verify_thm1(12, 2, cap=10)
    assert report.status == "resource_limited"
    assert not report.passed
    assert verify_thm1(10, 2, cap=10).passed


# a check called with its parameters by name reports what the positional call does
@pytest.mark.parametrize(
    "by_name, positional, status",
    [
        (lambda: verify_eq4(n=1, s=0), lambda: verify_eq4(1, 0), "passed"),
        (lambda: verify_eq4(4, s=2), lambda: verify_eq4(4, 2), "filtered"),
        (
            lambda: verify_thm1(n=12, s=2, cap=10),
            lambda: verify_thm1(12, 2, cap=10),
            "resource_limited",
        ),
    ],
    ids=["eq4-passed", "eq4-filtered", "thm1-resource-limited"],
)
def test_a_check_called_by_name(by_name, positional, status):
    named, placed = by_name(), positional()
    assert list(named.params.items()) == list(placed.params.items())
    assert named.status == placed.status == status


# a bad argument list is reported against the check's own parameters
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_eq4(s=0), "missing a required argument: 'n'"),
        (lambda: verify_id1(2, h=1), "missing a required argument: 's'"),
        (lambda: verify_eq4(3, n=4), "multiple values for argument 'n'"),
        (lambda: verify_thm1(4, 1, 18), "too many positional arguments"),
    ],
    ids=["eq4-no-n", "id1-no-s", "eq4-n-twice", "thm1-cap-by-position"],
)
def test_a_bad_call_names_the_check_parameter(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message


# an unknown keyword is refused whether the point would be judged or filtered
@pytest.mark.parametrize("identity_id", list(ident.CATALOG))
def test_every_check_rejects_an_unknown_keyword(identity_id):
    entry = ident.CATALOG[identity_id]
    judged = ident._points(entry, GridConfig())[0][0]
    filtered = (-1,) * len(entry.params)
    assert entry.check(*judged).status != "filtered"
    assert entry.check(*filtered).status == "filtered"
    for point in (judged, filtered):
        with pytest.raises(TypeError, match="got an unexpected keyword argument 'bogus'"):
            entry.check(*point, bogus=1)


def test_corrupted_formula_yields_failure_payload(monkeypatch):
    real = trib.overshoot_poly

    def corrupted(n, s):
        value = real(n, s)
        if n == 5:
            return value + Polynomial((1,))
        return value

    monkeypatch.setattr(trib, "overshoot_poly", corrupted)
    report = verify_eq12(8, 0)
    assert report.status == "failed"
    assert not report.passed
    assert report.params == {"n": 8, "s": 0}
    assert report.lhs is not None and report.rhs is not None
    assert report.lhs != report.rhs


def test_a_failed_report_keeps_the_sides_it_compared(monkeypatch):
    # the sides are the values compared, not renderings of them
    def off_by_one(real, at):
        return lambda *args: real(*args) + 1 if args == at else real(*args)

    with monkeypatch.context() as m:
        m.setattr(trib, "overshoot_poly", off_by_one(trib.overshoot_poly, (5, 0)))
        report = verify_eq12(6, 0)
    assert report.status == "failed"
    assert report.lhs == trib.incomplete_tribonacci_poly(6, 0)
    assert isinstance(report.rhs, Polynomial) and report.rhs != report.lhs
    with monkeypatch.context() as m:
        m.setattr(trib, "tribonacci_poly", off_by_one(trib.tribonacci_poly, (1,)))
        report = verify_thm2(0, 25)
    assert report.status == "failed"
    assert report.lhs == direct_generating_series(0, 25)
    assert isinstance(report.rhs, TruncatedSeries) and report.rhs != report.lhs


# every family value an identity may read through the tribonacci module
FAMILY_VALUES = (
    "tribonacci_number",
    "tribonacci_poly",
    "triangle_poly",
    "level_sum",
    "incomplete_tribonacci_poly",
    "incomplete_sum",
    "incomplete_tribonacci_number",
    "incomplete_fibonacci_poly",
    "overshoot_poly",
)


@pytest.mark.parametrize("identity_id", list(ident.CATALOG))
def test_a_seeded_fault_fails_every_identity(identity_id, monkeypatch):
    # the first family value the identity's default grid reads is made one
    # too large; some point of that grid must then fail, showing both sides
    first = []  # (name, args) of that value
    seeded = []

    def spy(name, real):
        def value(*args):
            if not first:
                first.append((name, args))
            result = real(*args)
            return result + 1 if (name, args) in seeded else result

        return value

    for name in FAMILY_VALUES:
        monkeypatch.setattr(trib, name, spy(name, getattr(trib, name)))
    assert all_passed(run_grid(identities=[identity_id]))
    assert first, f"{identity_id} reads no family value"
    seeded.append(first[0])
    failed = [r for r in run_grid(identities=[identity_id]) if r.status == "failed"]
    assert failed, f"{identity_id} passes with {first[0]} off by one"
    for report in failed:
        assert report.lhs is not None and report.rhs is not None
        assert report.lhs != report.rhs


# The far bound of each parameter: well past every default grid, yet cheap
# enough for tier-1 (the costliest points are THM2 at s = 10, order 60, and
# ID6 at (60, 10)).  THM1 enumerates, so its n stops at 16, plus 19 and 20
# past the cap of 18.
FAR = {"n": 60, "s": 10, "h": 8, "order": 60}
THM1_N = st.one_of(st.integers(0, 16), st.sampled_from([19, 20]))


def _grid_top(default, before):
    """The top of one axis of a default grid, given the parameters before it."""
    span = default(*before) if callable(default) else default
    return span if isinstance(span, int) else span[1]


@pytest.mark.parametrize("identity_id", list(ident.CATALOG))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_far_points_pass(identity_id, data):
    entry = ident.CATALOG[identity_id]
    point, beyond = [], False
    for name in entry.params:
        values = THM1_N if (identity_id, name) == ("THM1", "n") else st.integers(0, FAR[name])
        value = data.draw(values, label=name)
        beyond |= value > _grid_top(entry.axes[name], point)
        point.append(value)
    assume(beyond)  # a point of the default grid is not far
    report = entry.check(*point)
    if identity_id == "THM1" and point[0] > ident.tilings.DEFAULT_CAP:
        assert report.status == "resource_limited"
    else:
        assert report.status in ("passed", "filtered"), (report.lhs, report.rhs)


def test_eq4_holds_over_the_whole_far_grid():
    # every point, not a sample: EQ4's correction is the overshoot weight at
    # index n - 2s + 2, and an off-by-one there fails most of these points
    config = GridConfig(n_range=(1, FAR["n"]), s_range=(0, FAR["s"]))
    reports = run_grid(config, ["EQ4"])
    assert not [(r.params, r.lhs, r.rhs) for r in reports if r.status == "failed"]
    assert summarize(reports) == {
        "passed": 550,
        "failed": 0,
        "filtered": 110,
        "resource_limited": 0,
    }


def test_cor2_passes_below_the_control_order():
    # the lowest orders, where each side has only its first one to three terms
    for s in range(4):
        for order in range(2 * s + 1, 2 * s + 4):
            assert verify_cor2(s, order).status == "passed", (s, order)


def test_direct_series_starts_at_the_offset():
    series = direct_generating_series(1, 10)
    for k in range(3):
        assert series.coeffs[k].is_zero
    assert series.coeffs[3] == trib.incomplete_tribonacci_poly(3, 1)


def test_closed_form_head():
    series = closed_form_generating_series(1, 3)
    assert series.coeffs[3] == trib.incomplete_tribonacci_poly(3, 1)
    at_one = closed_form_generating_series(0, 5, x1=True)
    assert [c.evaluate(1) for c in at_one.coeffs] == [0, 1, 1, 1, 1, 1]


def test_run_grid_small_config_all_pass():
    config = GridConfig(n_range=(0, 8), s_range=(0, 2), h_range=(1, 2), series_order=8)
    reports = run_grid(config)
    assert reports
    assert all_passed(reports)
    counts = summarize(reports)
    assert counts["failed"] == 0
    assert counts["passed"] > 0
    assert counts["filtered"] > 0  # rectangular grids clip against preconditions


def test_run_grid_empty_ranges():
    # REMARK_A takes none of n, s and h, so only its one point is left
    config = GridConfig(n_range=(1, 0), s_range=(1, 0), h_range=(1, 0))
    reports = run_grid(config)
    assert [(r.identity_id, r.status) for r in reports] == [("REMARK_A", "passed")]
    assert all_passed(reports)


# a range applies exactly to the identities that take its parameter
@pytest.mark.parametrize("identity_id", list(ident.CATALOG))
def test_an_empty_range_empties_exactly_the_identities_that_take_it(identity_id):
    params = ident.CATALOG[identity_id].params
    for axis in ("n", "s", "h"):
        reports = run_grid(GridConfig(**{f"{axis}_range": (1, 0)}), [identity_id])
        assert (reports == []) == (axis in params), axis


def test_grid_axes_are_the_positional_parameters():
    for identity_id, entry in ident.CATALOG.items():
        assert tuple(entry.axes) == entry.params, identity_id
        parameters = inspect.signature(entry.check).parameters.values()
        keyword_only = tuple(p.name for p in parameters if p.kind is p.KEYWORD_ONLY)
        assert entry.options == keyword_only, identity_id
    assert {i for i, entry in ident.CATALOG.items() if entry.options} == {"THM1"}


def test_thm1_cap_defaults_on_the_check():
    # no cap set: verify_thm1's own default of 18 holds at n = 19
    [report] = run_grid(GridConfig(n_range=(19, 19), s_range=(0, 0)), ["THM1"])
    assert report.status == "resource_limited"
    [report] = run_grid(GridConfig(n_range=(19, 19), s_range=(0, 0), cap=19), ["THM1"])
    assert report.passed


def test_thm1_holds_up_to_the_cap():
    # every n from 15 to the default cap of 18, at every level the grid takes
    reports = run_grid(GridConfig(n_range=(15, 18)), ["THM1"])
    assert summarize(reports) == {"passed": 36, "failed": 0, "filtered": 0, "resource_limited": 0}


def test_run_grid_is_deterministic():
    config = GridConfig(n_range=(1, 6), s_range=(0, 1), h_range=(1, 2), series_order=6)
    first = run_grid(config)
    second = run_grid(config)
    assert [(r.identity_id, r.params, r.status) for r in first] == [
        (r.identity_id, r.params, r.status) for r in second
    ]


def test_run_grid_identity_subset_and_validation():
    reports = run_grid(GridConfig(n_range=(1, 5)), ["EQ13"])
    assert reports and all(r.identity_id == "EQ13" for r in reports)
    with pytest.raises(ValueError):
        run_grid(GridConfig(), ["NOPE"])
    # a string is a sequence of one-letter ids, never the id it spells
    with pytest.raises(TypeError, match="sequence of ids"):
        run_grid(GridConfig(), "ID2")


def test_run_grid_cap_marks_resource_limits():
    config = GridConfig(n_range=(11, 12), s_range=(0, 0), cap=10)
    reports = run_grid(config, ["THM1"])
    assert [r.status for r in reports] == ["resource_limited", "resource_limited"]
    assert all_passed(reports)  # resource-limited is not failure


def test_report_json_shape():
    passing = cli._report_doc(verify_eq4(1, 0))
    assert set(passing) == {"identity_id", "params", "status", "passed", "elapsed_ms"}
    filtered = cli._report_doc(verify_eq4(4, 2))
    assert filtered["status"] == "filtered"


@pytest.mark.parametrize("x1", [False, True])
@pytest.mark.parametrize("s", range(4))
def test_closed_form_matches_direct_from_order_zero(s, x1):
    for order in range(2 * s + 3):
        closed = closed_form_generating_series(s, order, x1=x1)
        assert closed == direct_generating_series(s, order, x1=x1), (s, order)


def test_overshoot_series_from_order_zero():
    for s in range(3):
        for order in range(4):
            series = gen.overshoot_generating_series(s, order)
            assert list(series.coeffs) == [trib.overshoot_poly(k, s) for k in range(order + 1)]


@pytest.mark.parametrize("s", range(5))
def test_generating_functions_hold_at_order_120(s):
    assert verify_thm2(s, 120).passed
    assert verify_cor2(s, 120).passed


@pytest.mark.parametrize("x1", [False, True])
@pytest.mark.parametrize("s", range(7))
def test_closed_form_is_a_short_fraction_at_depth(s, x1):
    # the tribonacci denominator cancels: times (1 - x^2 z)^(s+1), the level-s
    # generating function is a z-polynomial of degree 3s + 1, so every
    # coefficient the expansion computes past it, up to order 60, is zero
    x = 1 if x1 else X
    cleared = TruncatedSeries([1, -(x * x)], 60) ** (s + 1)
    product = closed_form_generating_series(s, 60, x1=x1) * cleared
    top = max(k for k, c in enumerate(product.coeffs) if c)
    assert top <= 3 * s + 1
    if not x1:
        assert top == 3 * s + 1


def _cleared(series, s, x):
    """E * series, E = (1 - x^2 z)^(s+1) * D and D = 1 - x^2 z - x z^2 - z^3."""
    order = series.order
    denominator = TruncatedSeries([1, -(x * x), -x, -1], order)
    return series * TruncatedSeries([1, -(x * x)], order) ** (s + 1) * denominator


def _cleared_numerator(s, x1, order):
    """z^(2s+1) ((1 - x^2 z)^(s+1) head - z^2 (x + z)^(s+1)), the closed form
    times E, from EQ13's split head and the overshoot's two binomials."""

    def monomial(c, e):
        return Polynomial.from_terms({0 if x1 else e: c})

    head = [monomial(h.evaluate(1), 0) if x1 else h for h in gen._split_head(s)]
    terms = [ZERO] * (3 * s + 5)
    for k in range(s + 2):
        c = math.comb(s + 1, k)
        for j, h in enumerate(head):
            terms[2 * s + 1 + k + j] += monomial((-1) ** k * c, 2 * k) * h
        terms[2 * s + 3 + k] -= monomial(c, s + 1 - k)
    return TruncatedSeries(terms, order)


@pytest.mark.parametrize("x1", [False, True], ids=["x", "x=1"])
@pytest.mark.parametrize("s", range(9))
def test_both_sides_cleared_of_the_denominator_are_one_polynomial(s, x1):
    # verify_thm2's argument: times E, both sides are this polynomial of
    # z-degree <= 3s + 4, so a check at order 3s + 4 decides every order;
    # here every coefficient through order 3s + 30 is compared
    order = 3 * s + 30
    x = 1 if x1 else X
    numerator = _cleared_numerator(s, x1, order)
    assert not any(numerator.coeffs[3 * s + 5 :])
    assert _cleared(direct_generating_series(s, order, x1=x1), s, x) == numerator
    assert _cleared(closed_form_generating_series(s, order, x1=x1), s, x) == numerator


@pytest.mark.parametrize("level", range(7))
def test_a_triangle_column_is_a_short_fraction(level):
    # the column lemma: sum_n B(n, l) z^n = z^l (x + z)^l / (1 - x^2 z)^(l+1),
    # checked through order 60, far past the numerator's degree 2l
    order = 60
    column = TruncatedSeries([trib.triangle_poly(n, level) for n in range(order + 1)], order)
    cleared = column * TruncatedSeries([1, -(X * X)], order) ** (level + 1)
    binomials = [Polynomial.from_terms({level - k: math.comb(level, k)}) for k in range(level + 1)]
    assert cleared == TruncatedSeries([ZERO] * level + binomials, order)


@pytest.mark.parametrize("s", range(5))
def test_overshoot_series_at_order_120(s):
    series = gen.overshoot_generating_series(s, 120)
    assert list(series.coeffs) == [trib.overshoot_poly(k, s) for k in range(121)]
    at_one = gen._overshoot_series(1, s, 120)
    assert list(at_one.coeffs) == [trib.overshoot_poly(k, s).evaluate(1) for k in range(121)]


def test_each_series_product_runs_at_the_degree_of_its_factors(monkeypatch):
    # the overshoot's two powers are z-polynomials of degree s + 1, and
    # REMARK_A's squared base has degree 6: each product runs at that order,
    # not at the order of the series it feeds.  A power starts from its base,
    # so the (s + 1)-th powers take s products each and none is by the unit
    orders = []
    real = TruncatedSeries.__mul__

    def recording(a, b):
        orders.append(a.order)
        return real(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
    for x1 in (False, True):
        for s in range(5):
            orders.clear()
            closed_form_generating_series(s, 120, x1=x1)
            assert orders == [s + 1] * (2 * s), (s, x1)
    orders.clear()
    assert verify_remark_a(60).passed
    assert orders == [6]


def test_a_fault_on_the_closed_form_side_fails(monkeypatch):
    # the direct side reads neither tribonacci family nor the overshoot series,
    # so each fault below reaches only the closed form's head or overshoot
    def off_by_one(real, k):
        return lambda n: real(n) + 1 if n == k else real(n)

    for s in range(5):
        for k in (2 * s - 1, 2 * s, 2 * s + 1):
            if k < 0:
                continue
            with monkeypatch.context() as m:
                m.setattr(trib, "tribonacci_poly", off_by_one(trib.tribonacci_poly, k))
                assert verify_thm2(s, 25).status == "failed", (s, k)
            with monkeypatch.context() as m:
                m.setattr(trib, "tribonacci_number", off_by_one(trib.tribonacci_number, k))
                assert verify_cor2(s, 25).status == "failed", (s, k)
    real = gen.overshoot_generating_series
    monkeypatch.setattr(gen, "overshoot_generating_series", lambda s, order: real(s + 1, order))
    for s in range(5):
        assert verify_thm2(s, 25).status == "failed", s


@pytest.mark.parametrize("j", range(3))
def test_a_fault_in_the_split_head_fails_eq13_and_thm2(j, monkeypatch):
    # EQ13's split and the closed form's numerator read one head, so item j
    # off by one fails both identities at every s of their default grids
    real = gen._split_head

    def faulty(s):
        return [h + int(i == j) for i, h in enumerate(real(s))]

    monkeypatch.setattr(gen, "_split_head", faulty)
    lo, hi = ident.CATALOG["EQ13"].axes["s"]
    assert ident.CATALOG["THM2"].axes["s"] == (lo, hi)
    for s in range(lo, hi + 1):
        reports = run_grid(GridConfig(s_range=(s, s)), ["EQ13", "THM2"])
        assert {r.identity_id for r in reports if r.status == "failed"} == {"EQ13", "THM2"}, s
