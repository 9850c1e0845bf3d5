"""The exact sweep of run_grid, pinned: which points each identity's grid
visits, in which order, and what each point's status is."""

import hashlib
import json

from tribpoly import GridConfig, run_grid, summarize

# identity -> (passed, filtered) on the default grid
DEFAULT_COUNTS = {
    "EQ4": (70, 20),
    "ID1": (160, 48),
    "ID2": (16, 0),
    "ID3": (16, 0),
    "REMARK_A": (1, 0),
    "ID4": (60, 20),
    "ID5": (50, 30),
    "ID6": (55, 20),
    "EQ12": (70, 20),
    "EQ13": (70, 20),
    "THM1": (64, 0),
    "THM2": (5, 0),
    "COR2": (5, 0),
}


def _digest(reports):
    rows = [(r.identity_id, r.params, r.status) for r in reports]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_default_grid_sweep_is_pinned():
    reports = run_grid()
    assert len(reports) == 820
    counts = {}
    for ident in DEFAULT_COUNTS:
        summary = summarize([r for r in reports if r.identity_id == ident])
        assert summary["failed"] == summary["resource_limited"] == 0, ident
        counts[ident] = (summary["passed"], summary["filtered"])
    assert counts == DEFAULT_COUNTS
    assert _digest(reports).startswith("f54065d9af593e06")


def test_overridden_grid_sweep_is_pinned():
    config = GridConfig(n_range=(3, 9), s_range=(0, 2), h_range=(1, 2), series_order=14)
    reports = run_grid(config)
    assert len(reports) == 210
    assert _digest(reports).startswith("8a2190f0e38c88cf")


def test_thm1_level_range_follows_n_under_a_cap():
    reports = run_grid(GridConfig(n_range=(12, 14), cap=12), ["THM1"])
    assert [r.params for r in reports] == [
        {"n": n, "s": s} for n in range(12, 15) for s in range(n // 2 + 1)
    ]
    statuses = [r.status for r in reports]
    assert statuses == ["passed"] * 7 + ["resource_limited"] * 15
