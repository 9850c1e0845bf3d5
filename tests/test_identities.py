import pytest

from tribpoly import (
    GridConfig,
    Polynomial,
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


def test_cor2_negative_control_is_active(monkeypatch):
    # if the perturbed numerator somehow matched, the report must fail
    real = ident.closed_form_generating_series

    def no_perturbation(s, order, *, x1=False, z2_offset=0):
        return real(s, order, x1=x1, z2_offset=0)

    monkeypatch.setattr(ident, "closed_form_generating_series", no_perturbation)
    assert verify_cor2(1, 10).status == "failed"


def test_direct_series_starts_at_the_offset():
    series = direct_generating_series(1, 10)
    for k in range(3):
        assert series.coeff(k).is_zero
    assert series.coeff(3) == trib.incomplete_tribonacci_poly(3, 1)


def test_closed_form_head():
    series = closed_form_generating_series(1, 3)
    assert series.coeff(3) == trib.incomplete_tribonacci_poly(3, 1)
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
    config = GridConfig(n_range=(1, 0), s_range=(1, 0), h_range=(1, 0))
    reports = run_grid(config)
    assert reports == []
    assert all_passed(reports)


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


def test_run_grid_cap_marks_resource_limits():
    config = GridConfig(n_range=(11, 12), s_range=(0, 0), cap=10)
    reports = run_grid(config, ["THM1"])
    assert [r.status for r in reports] == ["resource_limited", "resource_limited"]
    assert all_passed(reports)  # resource-limited is not failure


def test_report_json_shape():
    passing = verify_eq4(1, 0).to_json_dict()
    assert set(passing) == {"identity_id", "params", "status", "passed", "elapsed_ms"}
    filtered = verify_eq4(4, 2).to_json_dict()
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
            series = ident.overshoot_generating_series(s, order)
            assert list(series.coeffs) == [trib.overshoot_poly(k, s) for k in range(order + 1)]
