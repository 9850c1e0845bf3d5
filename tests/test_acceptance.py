"""Acceptance gate: every promised guarantee, checked exactly, one line each.

Each test covers one acceptance criterion over its full stated parameter
range and prints ``[acceptance] <name>: PASS`` or ``FAIL`` directly to the
terminal, bypassing capture, so a plain pytest run always shows the
criterion-by-criterion outcome.  All comparisons are exact; there are no
tolerances anywhere in this module.
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import pytest

from tribpoly import (
    cli,
    enumerate_colored,
    enumerate_restricted,
    enumerate_tilings,
    expand_colored,
    overshoot_distribution,
    overshoot_generating_series,
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
    weight_distribution,
)
from tribpoly import identities as ident
from tribpoly import tribonacci as trib

NUMBERS = [
    0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136,
    5768, 10609, 19513, 35890, 66012,
]

RESTRICTED_5_1 = {"rrrrr", "rrrd", "rrdr", "rrt", "rdrr", "rtr", "drrr", "trr"}


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capfd.disabled():
                print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _criterion


# ----------------------------------------------------------------------
# combinatorial model


def test_tiling_oracle_matches_formula(criterion):
    with criterion("THM1-restricted-tilings"):
        for n in range(15):
            for s in range(n // 2 + 1):
                report = verify_thm1(n, s)
                assert report.passed, (n, s)
        words = {t.word() for t in enumerate_restricted(5, 1)}
        assert words == RESTRICTED_5_1
        assert len(enumerate_restricted(5, 1)) == 8


def test_values_at_one(criterion):
    with criterion("values-at-one"):
        for n, expected in enumerate(NUMBERS):
            assert trib.tribonacci_number(n) == expected
            assert trib.tribonacci_poly(n).evaluate(1) == expected
        for n in range(14):
            members = enumerate_tilings(n)
            assert len(members) == NUMBERS[n + 1]
            assert weight_distribution(members).evaluate(1) == NUMBERS[n + 1]


def test_explicit_route_matches_recurrence(criterion):
    with criterion("explicit-vs-recurrence"):
        for n in range(20):
            assert trib.tribonacci_poly_explicit(n) == trib.tribonacci_poly(n + 1), n


def test_colored_expansion_bijection(criterion):
    with criterion("colored-expansion-bijection"):
        for n in range(13):
            by_longer: dict[int, set[str]] = {}
            for tiling in enumerate_tilings(n):
                by_longer.setdefault(tiling.longer_pieces, set()).add(tiling.word())
            for i in range(n + 1):
                colored = enumerate_colored(n - i, i) if n - i >= 0 else []
                expanded = [expand_colored(c) for c in colored]
                words = [t.word() for t in expanded]
                assert len(set(words)) == len(words), (n, i)
                assert set(words) == by_longer.get(i, set()), (n, i)
                for source, image in zip(colored, expanded):
                    assert image.length == n
                    assert image.longer_pieces == i
                    assert image.weight_exponent == source.weight_exponent


# ----------------------------------------------------------------------
# identity catalog, each over its full acceptance range


def test_eq4(criterion):
    with criterion("EQ4"):
        for s in range(5):
            for n in range(2 * s + 1, 19):
                assert verify_eq4(n, s).passed, (n, s)


def test_id1(criterion):
    with criterion("ID1"):
        for h in range(1, 5):
            for s in range(4):
                for n in range(2 * s + 2, 15):
                    assert verify_id1(n, s, h).passed, (n, s, h)


def test_id2(criterion):
    with criterion("ID2"):
        for n in range(1, 17):
            assert verify_id2(n).passed, n


def test_id3(criterion):
    with criterion("ID3"):
        for n in range(1, 17):
            assert verify_id3(n).passed, n


def test_remark_a(criterion):
    with criterion("REMARK_A"):
        assert verify_remark_a(20).passed


def test_id4(criterion):
    with criterion("ID4"):
        for s in range(5):
            for n in range(2 * s + 1, 17):
                assert verify_id4(n, s).passed, (n, s)


def test_id5(criterion):
    with criterion("ID5"):
        for s in range(5):
            for n in range(3 * s + 1, 17):
                assert verify_id5(n, s).passed, (n, s)


def test_id6(criterion):
    with criterion("ID6"):
        for s in range(5):
            for n in range(2 * s, 15):
                assert verify_id6(n, s).passed, (n, s)


def test_overshoot_three_ways(criterion):
    with criterion("overshoot-three-ways"):
        for s in range(5):
            series = overshoot_generating_series(s, 25)
            for n in range(26):
                assert series.coeffs[n] == trib.overshoot_poly(n, s), (n, s)
        for s in range(5):
            for n in range(15 - 2 * s):
                assert overshoot_distribution(n, s) == trib.overshoot_poly(n, s), (n, s)


def test_eq12(criterion):
    with criterion("EQ12"):
        for s in range(5):
            for n in range(2 * s + 1, 19):
                assert verify_eq12(n, s).passed, (n, s)


def test_eq13(criterion):
    with criterion("EQ13"):
        for s in range(5):
            for n in range(2 * s + 1, 19):
                assert verify_eq13(n, s).passed, (n, s)


def test_thm2(criterion):
    with criterion("THM2"):
        for s in range(5):
            assert verify_thm2(s, 25).passed, s


def test_cor2(criterion, monkeypatch):
    with criterion("COR2"):
        for s in range(5):
            assert verify_cor2(s, 25).passed, s
        direct = ident.direct_generating_series(1, 25, x1=True)
        # control: N(2) two too small, which only the closed form reads
        real = trib.tribonacci_number
        monkeypatch.setattr(trib, "tribonacci_number", lambda n: real(n) - 2 * (n == 2))
        control = ident.closed_form_generating_series(1, 25, x1=True)
        assert control != direct


# ----------------------------------------------------------------------
# command line, end to end


def test_cli_verify_all_is_green(criterion):
    with criterion("cli-verify-all"):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tribpoly", "verify", "all", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        summary = {"passed": 642, "failed": 0, "filtered": 178, "resource_limited": 0}
        assert payload["summary"] == summary
        seen = {r["identity_id"] for r in payload["reports"]}
        assert seen == set(ident.ALL_IDENTITY_IDS)


def test_cli_detects_seeded_fault(criterion, capfd, monkeypatch):
    # the overshoot's one definition, its triangle parts, which EQ4 sums
    # into its right side and EQ12 reads through overshoot_poly
    real = trib._overshoot_parts

    def corrupted(n, s, weight):
        parts = real(n, s, weight)
        if (n, s) == (5, 0):
            return [*parts, (0, 0, weight, 0)]  # B(0, 0) = 1: overshoot_poly(5, 0) + 1
        return parts

    with criterion("cli-fault-detection"):
        monkeypatch.setattr(trib, "_overshoot_parts", corrupted)
        capfd.readouterr()
        code = cli.main(["verify", "all", "--format", "json"])
        out = capfd.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        failed = [r for r in payload["reports"] if r["status"] == "failed"]
        assert {r["identity_id"] for r in failed} == {"EQ4", "EQ12"}
        for report in failed:
            # EQ4's correction reads overshoot_poly(n - 2s + 2, s)
            if report["identity_id"] == "EQ4":
                assert (report["params"]["n"], report["params"]["s"]) == (3, 0)
            else:
                assert report["params"]["s"] == 0
                assert report["params"]["n"] >= 6
            assert report["lhs"] != report["rhs"]
