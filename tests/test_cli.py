import json
import os
import subprocess
import sys

import pytest

from tribpoly import Polynomial, cli, tribonacci as trib

RESTRICTED_5_1_CSV = (
    "tiling,squares,dominos,trominos,weight_exponent\n"
    "rrrrr,5,0,0,10\n"
    "rrrd,3,1,0,7\n"
    "rrdr,3,1,0,7\n"
    "rrt,2,0,1,4\n"
    "rdrr,3,1,0,7\n"
    "rtr,2,0,1,4\n"
    "drrr,3,1,0,7\n"
    "trr,2,0,1,4\n"
)


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# compute


def test_compute_trib_poly_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "trib-poly", "4")
    assert code == 0
    assert out == "x^6 + 2*x^3 + 1\n"


def test_compute_trib_number_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "trib-number", "10")
    assert code == 0
    assert out == "149\n"


def test_compute_incomplete_number(capsys):
    code, out, _ = run_cli(capsys, "compute", "incomplete-number", "6", "1")
    assert code == 0
    assert out == "8\n"


def test_compute_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "compute", "incomplete-poly", "9", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "incomplete-poly"
    assert payload["indices"] == [9, 2]
    rebuilt = Polynomial.from_coeff_strings(payload["coeffs"])
    assert rebuilt == trib.incomplete_tribonacci_poly(9, 2)


def test_compute_number_json_uses_strings(capsys):
    code, out, _ = run_cli(capsys, "compute", "trib-number", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "66012"


def test_compute_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "trib-poly", "4", "--format", "csv")
    assert code == 0
    assert out == (
        "exponent,coefficient\n0,1\n1,0\n2,0\n3,2\n4,0\n5,0\n6,1\n"
    )


def test_compute_arity_error(capsys):
    code, out, err = run_cli(capsys, "compute", "trib-poly", "4", "1")
    assert code == 2
    assert out == ""
    assert "expects 1 index argument(s)" in err


def test_compute_domain_error(capsys):
    code, _, err = run_cli(capsys, "compute", "trib-poly", "--", "-2")
    assert code == 2
    assert "error:" in err


def test_compute_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "compute", "nope", "3")
    assert code == 2


# ----------------------------------------------------------------------
# enumerate


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3")
    assert code == 0
    assert out == "rrr\nrd\ndr\nt\ncount: 4\nweight: x^6 + 2*x^3 + 1\n"


def test_enumerate_restricted_csv_frozen(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "5", "--max-longer", "1", "--format", "csv")
    assert code == 0
    assert out == RESTRICTED_5_1_CSV


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["tilings"] == ["rr", "d"]
    assert Polynomial.from_coeff_strings(payload["weight"]["coeffs"]) == trib.tribonacci_poly(3)


def test_enumerate_negative_length(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--", "-1")
    assert code == 2
    assert "error:" in err


def test_enumerate_over_cap(capsys):
    code, _, err = run_cli(capsys, "enumerate", "25")
    assert code == 2
    assert "cap" in err
    assert run_cli(capsys, "enumerate", "12", "--cap", "12")[0] == 0


# ----------------------------------------------------------------------
# verify


def test_verify_single_identity_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "id6", "--n", "0..14", "--s", "0..4")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_unknown_identity_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert "invalid choice" in err


def test_verify_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "eq12", "--n", "1..8", "--s", "0..1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["summary"]["failed"] == 0
    assert payload["reports"]
    for report in payload["reports"]:
        assert report["identity_id"] == "EQ12"
        assert set(report) >= {"identity_id", "params", "status", "passed", "elapsed_ms"}


def test_verify_csv_rows_are_judged_points_only(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "eq4", "--n", "1..6", "--s", "0..2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity_id,n,s,h,order,passed,elapsed_ms"
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "EQ4"
        assert fields[5] in ("true", "false")
        # filtered points never reach the csv, so every row is a real check
        assert fields[5] == "true"


def test_verify_failure_exits_one_with_payload(capsys, monkeypatch):
    real = trib.overshoot_poly

    def corrupted(n, s):
        value = real(n, s)
        if (n, s) == (5, 0):
            return value + Polynomial((1,))
        return value

    monkeypatch.setattr(trib, "overshoot_poly", corrupted)
    code, out, _ = run_cli(
        capsys, "verify", "eq12", "--n", "1..10", "--s", "0..1", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    failed = [r for r in payload["reports"] if r["status"] == "failed"]
    assert failed
    for report in failed:
        assert report["params"]["n"] >= 1
        assert "lhs" in report and "rhs" in report
        assert report["lhs"] != report["rhs"]


def test_verify_text_failure_block(capsys, monkeypatch):
    real = trib.triangle_poly

    def corrupted(n, i):
        value = real(n, i)
        if (n, i) == (6, 1):
            return value + Polynomial((0, 1))
        return value

    monkeypatch.setattr(trib, "triangle_poly", corrupted)
    code, out, _ = run_cli(capsys, "verify", "eq4", "--n", "1..9", "--s", "0..2")
    assert code == 1
    assert "overall: FAIL" in out
    assert "FAIL EQ4" in out
    assert "lhs:" in out and "rhs:" in out


# ----------------------------------------------------------------------
# gf


def test_gf_x1_head(capsys):
    code, out, _ = run_cli(capsys, "gf", "--s", "0", "--order", "5", "--x1")
    assert code == 0
    assert out == "0\n1\n1\n1\n1\n1\n"


def test_gf_polynomial_coefficients(capsys):
    code, out, _ = run_cli(capsys, "gf", "--s", "1", "--order", "3")
    assert code == 0
    assert out == "0\n0\n0\nx^4 + x\n"


def test_gf_order_below_offset(capsys):
    code, _, err = run_cli(capsys, "gf", "--s", "2", "--order", "3")
    assert code == 2
    assert "offset" in err


def test_gf_requires_order(capsys):
    code, _, err = run_cli(capsys, "gf", "--s", "0")
    assert code == 2
    assert "--order" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "trib-poly", "4", "--order", "5", "--cap", "3"),
        ("gf", "--s", "0", "--order", "3", "--cap", "1"),
        ("enumerate", "3", "--order", "2"),
    ],
)
def test_flags_a_subcommand_does_not_use_are_rejected(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 2


def test_gf_rejects_negative_level(capsys):
    code, _, _ = run_cli(capsys, "gf", "--s", "-1", "--order", "5")
    assert code == 2


def test_gf_json_matches_series(capsys):
    code, out, _ = run_cli(capsys, "gf", "--s", "1", "--order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 8
    coeffs = [Polynomial.from_coeff_strings(c["coeffs"]) for c in payload["z_coeffs"]]
    for k in range(3, 9):
        assert coeffs[k] == trib.incomplete_tribonacci_poly(k, 1)


# ----------------------------------------------------------------------
# determinism: identical invocations must produce identical bytes


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "incomplete-poly", "9", "2", "--format", "json"),
        ("compute", "trib-poly", "7", "--format", "csv"),
        ("enumerate", "6", "--max-longer", "2", "--format", "json"),
        ("enumerate", "5", "--format", "csv"),
        ("gf", "--s", "1", "--order", "8", "--format", "json"),
        ("gf", "--s", "0", "--order", "6", "--x1", "--format", "csv"),
    ],
)
def test_repeated_invocations_are_byte_identical(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


# ----------------------------------------------------------------------
# a reader that stops early


@pytest.mark.parametrize(
    "command",
    ["verify all --format csv", "verify all --format json", "compute trib-poly 3000"],
)
def test_closed_stdout_exits_one_quietly(command):
    fcntl = pytest.importorskip("fcntl")
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        # a pipe smaller than one stdout buffer: the command is still
        # writing when the reader closes, however fast it runs
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tribpoly", *command.split()],
        stdout=write_end,
        stderr=subprocess.PIPE,
    )
    os.close(write_end)
    assert len(os.read(read_end, 10)) == 10
    os.close(read_end)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert err == b""


def test_closed_stdout_leaks_no_descriptor(monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to count open descriptors")
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(["compute", "trib-poly", "300"]) == 1
    assert len(os.listdir("/proc/self/fd")) == before
