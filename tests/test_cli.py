import contextlib
import functools
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribpoly import Polynomial, cli, identities, tilings, tribonacci as trib

ROOT = Path(__file__).resolve().parents[1]

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
# pins: command lines past the default grid, each with its exact output.
# Every pin is a row here; CI runs only the tier-1 tests.

# command line -> the one summary line it prints above "overall: PASS"
SUMMARIES = {
    # an empty n range leaves identities without n
    "verify remark_a --n 5..3": "REMARK_A: 1 passed, 0 failed, 0 filtered, 0 resource-limited",
    # the incomplete-member identities
    "verify id1 --n 2..40 --s 0..6 --h 1..8": "ID1: 1848 passed, 0 failed, 336 filtered, 0 resource-limited",
    "verify id4 --n 1..60 --s 0..8": "ID4: 468 passed, 0 failed, 72 filtered, 0 resource-limited",
    "verify id5 --n 1..60 --s 0..8": "ID5: 432 passed, 0 failed, 108 filtered, 0 resource-limited",
    "verify id6 --n 0..40 --s 0..8": "ID6: 297 passed, 0 failed, 72 filtered, 0 resource-limited",
    "verify eq4 --n 1..60 --s 0..8": "EQ4: 468 passed, 0 failed, 72 filtered, 0 resource-limited",
    # the product-sum identities
    "verify eq12 --n 1..120 --s 0..8": "EQ12: 1008 passed, 0 failed, 72 filtered, 0 resource-limited",
    "verify id3 --n 1..120": "ID3: 120 passed, 0 failed, 0 filtered, 0 resource-limited",
    "verify id6 --n 0..60 --s 0..8": "ID6: 477 passed, 0 failed, 72 filtered, 0 resource-limited",
    # EQ13's split, across the memo bound of 400, and ID2's level sum
    "verify eq13 --n 1..200 --s 0..8": "EQ13: 1728 passed, 0 failed, 72 filtered, 0 resource-limited",
    "verify eq13 --n 380..460 --s 0..8": "EQ13: 729 passed, 0 failed, 0 filtered, 0 resource-limited",
    "verify id2 --n 1..200": "ID2: 200 passed, 0 failed, 0 filtered, 0 resource-limited",
    # generating functions deep in s and order, and REMARK_A's short square
    "verify thm2 --s 0..8 --order 240": "THM2: 9 passed, 0 failed, 0 filtered, 0 resource-limited",
    "verify cor2 --s 0..8 --order 1000": "COR2: 9 passed, 0 failed, 0 filtered, 0 resource-limited",
    "verify remark_a --order 200": "REMARK_A: 1 passed, 0 failed, 0 filtered, 0 resource-limited",
}

# command line -> the one line it prints on stderr, with exit 2 and no stdout
USAGE_ERRORS = {
    "compute trib-poly -2": "error: tribonacci index must be >= -1, got -2",
    "compute incomplete-poly 0 0": "error: incomplete family index must be >= 1, got 0",
    "compute fib-incomplete 3 -2": "error: restriction level must be >= -1, got -2",
    "compute r-poly 3 -1": "error: overshoot level must be >= 0, got -1",
    "enumerate -1": "error: tiling length must be >= 0, got -1",
    "gf --s -1 --order 5": "error: restriction level must be >= 0, got -1",
}


@pytest.mark.parametrize("command", SUMMARIES)
def test_a_pinned_sweep_prints_its_summary(capsys, command):
    summary = f"{SUMMARIES[command]}\noverall: PASS\n"
    assert run_cli(capsys, *command.split()) == (0, summary, "")


@pytest.mark.parametrize("x1", [(), ("--x1",)], ids=["poly", "x1"])
def test_a_deep_generating_function_prints_its_order(capsys, x1):
    code, out, err = run_cli(capsys, "gf", "--s", "4", "--order", "240", *x1, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["order"] == 240


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_a_pinned_usage_error_prints_its_line(capsys, command):
    assert run_cli(capsys, *command.split()) == (2, "", f"{USAGE_ERRORS[command]}\n")


def test_the_workflow_holds_no_pin():
    # a step that runs tribpoly would be a second harness beside the rows above
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    assert "python -m pytest" in workflow[-1]  # the tier-1 step is the last
    steps = [line for line in workflow if not line.lstrip(" -").startswith(("name:", "#"))]
    assert [line for line in steps if "tribpoly" in line] == []


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


def test_compute_arity_is_read_through_a_wrapper(capsys, monkeypatch):
    # a tracer that wraps each family keeps the arity check working
    real = cli.FAMILIES["incomplete-poly"]

    @functools.wraps(real)
    def traced(*args):
        return real(*args)

    monkeypatch.setitem(cli.FAMILIES, "incomplete-poly", traced)
    code, out, err = run_cli(capsys, "compute", "incomplete-poly", "4")
    assert (code, out) == (2, "")
    assert err == "error: family 'incomplete-poly' expects 2 index argument(s), got 1\n"
    want = f"{trib.incomplete_tribonacci_poly(4, 1)}\n"
    assert run_cli(capsys, "compute", "incomplete-poly", "4", "1") == (0, want, "")


def test_compute_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "compute", "nope", "3")
    assert code == 2


@pytest.fixture
def int_digit_limit():
    """Python's int-to-str digit limit at a known value, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    yield 4321
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_compute_prints_values_past_the_int_digit_limit(capsys, int_digit_limit, fmt):
    value = trib.tribonacci_number(20000)
    code, out, err = run_cli(capsys, "compute", "trib-number", "20000", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        digits = json.loads(out)["value"]
    elif fmt == "csv":
        header, digits = out.split("\n", 1)
        assert header == "value"
    else:
        digits = out
    digits = digits.rstrip("\n")
    # checked by size and last digits: turning the string back into an int
    # would hit the same limit
    assert digits.isdigit() and len(digits) > int_digit_limit
    assert 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
    assert int(digits[-18:]) == value % 10**18
    assert sys.get_int_max_str_digits() == int_digit_limit


def test_compute_builds_its_json_view_only_for_json(capsys, monkeypatch):
    def unused(value):
        raise AssertionError("only the json view renders a value document")

    monkeypatch.setattr(cli, "_value_doc", unused)
    for fmt in ("text", "csv"):
        assert run_cli(capsys, "compute", "incomplete-poly", "9", "2", "--format", fmt)[0] == 0


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


def test_enumerate_over_cap(capsys):
    code, _, err = run_cli(capsys, "enumerate", "25")
    assert code == 2
    assert "cap" in err
    assert run_cli(capsys, "enumerate", "12", "--cap", "12")[0] == 0


def test_enumerate_leaves_the_cap_to_the_enumerator(capsys, monkeypatch):
    monkeypatch.setitem(tilings.enumerate_restricted.__kwdefaults__, "cap", 12)
    code, _, err = run_cli(capsys, "enumerate", "13")
    assert code == 2
    assert "exceeds the cap of 12" in err
    assert run_cli(capsys, "enumerate", "13", "--cap", "13")[0] == 0


def test_enumerate_deeper_than_the_recursion_limit_is_a_usage_error(capsys):
    # one word of 1,200 squares: the walk takes a frame per piece outside its tail
    code, out, err = run_cli(capsys, "enumerate", "1200", "--max-longer", "0", "--cap", "1200")
    assert code == 2
    assert out == ""
    assert err.startswith("error: enumeration of length 1200 ")
    assert f"recursion limit of {sys.getrecursionlimit()}" in err


def test_enumerate_csv_builds_no_weight_distribution(capsys, monkeypatch):
    def unused(members):
        raise AssertionError("the csv view shows no weight distribution")

    monkeypatch.setattr(tilings, "weight_distribution", unused)
    code, out, _ = run_cli(capsys, "enumerate", "6", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 24  # header, then every tiling of length 6


# ----------------------------------------------------------------------
# verify


def test_verify_single_identity_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "id6", "--n", "0..14", "--s", "0..4")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_deeper_than_the_recursion_limit_is_resource_limited(capsys):
    code, out, err = run_cli(capsys, "verify", "thm1", "--n", "1200", "--s", "0", "--cap", "1200")
    assert code == 0
    assert out == "THM1: 0 passed, 0 failed, 0 filtered, 1 resource-limited\noverall: PASS\n"
    assert err == ""


def test_verify_adds_no_grid_default(capsys, monkeypatch):
    """With no ``--cap``, ``verify`` calls every THM1 point as ``run_grid()``
    does, positionally, so no point goes through ``Signature.bind``."""
    binds = []
    bind = inspect.Signature.bind

    def counted(self, *args, **kwargs):
        binds.append(args)
        return bind(self, *args, **kwargs)

    monkeypatch.setattr(inspect.Signature, "bind", counted)
    assert run_cli(capsys, "verify", "thm1")[0] == 0
    assert run_cli(capsys, "verify", "all")[0] == 0
    assert binds == []
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    got = [(r["identity_id"], r["params"], r["status"]) for r in json.loads(out)["reports"]]
    assert got == [(r.identity_id, dict(r.params), r.status) for r in identities.run_grid()]
    assert binds == []
    # a typed cap is passed as the keyword, one bind per point
    assert run_cli(capsys, "verify", "thm1", "--cap", "18")[0] == 0
    assert len(binds) == len(identities.run_grid(None, ["THM1"]))


def test_verify_leaves_the_cap_to_verify_thm1(capsys, monkeypatch):
    point = ("verify", "thm1", "--n", "19", "--s", "0")
    limited = "THM1: 0 passed, 0 failed, 0 filtered, 1 resource-limited\noverall: PASS\n"
    passed = "THM1: 1 passed, 0 failed, 0 filtered, 0 resource-limited\noverall: PASS\n"
    assert run_cli(capsys, *point) == (0, limited, "")
    assert run_cli(capsys, *point, "--cap", "19") == (0, passed, "")
    # the default in effect is the one on the function that computes THM1's sides
    monkeypatch.setitem(identities.verify_thm1.__wrapped__.__kwdefaults__, "cap", 19)
    assert run_cli(capsys, *point) == (0, passed, "")


def test_verify_order_sets_the_series_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm2", "--s", "1", "--order", "8", "--format", "json")
    assert code == 0
    assert [r["params"] for r in json.loads(out)["reports"]] == [{"s": 1, "order": 8}]


def test_verify_unknown_identity_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("text", ["1..x", "..3", "3..1..2"])
def test_a_malformed_range_names_its_flag(capsys, text):
    code, out, err = run_cli(capsys, "verify", "eq4", "--n", text)
    assert code == 2
    assert out == ""
    assert f"argument --n: expected a..b or a single integer, got '{text}'" in err
    assert "_range_arg" not in err


@pytest.mark.parametrize(
    "spaced",
    [
        ("--n", "-1..2"),
        ("--n", "-1..x"),
        ("--n", "-3"),
        ("--s", "-1..1", "--n", "-2..3", "--h", "-1..1"),
        ("--n", "1..4", "--s", "-2..0"),
    ],
)
def test_a_range_with_a_negative_start_parses_spaced(capsys, spaced):
    # argparse would read "-1..2" as an option; the spaced form must print
    # what the "=" form prints, byte for byte
    glued = [f"{flag}={value}" for flag, value in zip(spaced[::2], spaced[1::2])]
    result = run_cli(capsys, "verify", "id1", *spaced)
    assert result == run_cli(capsys, "verify", "id1", *glued)
    assert result[0] == (2 if "-1..x" in spaced else 0)


def test_verify_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "eq12", "--n", "1..8", "--s", "0..1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["summary"]["failed"] == 0
    assert payload["reports"]
    # passed and filtered points carry no sides
    keys = {"identity_id", "params", "status", "passed", "elapsed_ms"}
    for report in payload["reports"]:
        assert report["identity_id"] == "EQ12"
        assert set(report) == keys
    code, out, _ = run_cli(capsys, "verify", "eq4", "--n", "4", "--s", "2", "--format", "json")
    assert code == 0
    [filtered] = json.loads(out)["reports"]
    assert filtered["status"] == "filtered"
    assert set(filtered) == keys


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


def test_a_failed_side_reads_back_from_its_json(capsys, monkeypatch):
    # the sides are coeffs data, as compute and gf write them, not text
    def off_by_one(real, at):
        return lambda *args: real(*args) + 1 if args == at else real(*args)

    def failed_sides(*argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert report["status"] == "failed"
        return report["lhs"], report["rhs"]

    def z_coeffs(doc):
        return [Polynomial.from_coeff_strings(c["coeffs"]) for c in doc["z_coeffs"]]

    with monkeypatch.context() as m:
        m.setattr(trib, "overshoot_poly", off_by_one(trib.overshoot_poly, (5, 0)))
        lhs, rhs = failed_sides("eq12", "--n", "6", "--s", "0")
    assert Polynomial.from_coeff_strings(lhs["coeffs"]) == trib.incomplete_tribonacci_poly(6, 0)
    assert rhs["coeffs"] != lhs["coeffs"]
    with monkeypatch.context() as m:
        m.setattr(trib, "tribonacci_poly", off_by_one(trib.tribonacci_poly, (1,)))
        lhs, rhs = failed_sides("thm2", "--s", "0", "--order", "25")
    assert lhs["order"] == rhs["order"] == 25
    assert z_coeffs(lhs) == list(identities.direct_generating_series(0, 25).coeffs)
    assert z_coeffs(rhs) != z_coeffs(lhs)


def test_verify_text_failure_block(capsys, monkeypatch):
    real = trib.overshoot_poly

    def corrupted(n, s):
        value = real(n, s)
        if (n, s) == (7, 1):  # EQ4's correction at n = 7, s = 1
            return value + Polynomial((0, 1))
        return value

    monkeypatch.setattr(trib, "overshoot_poly", corrupted)
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


def test_gf_json_matches_series(capsys):
    code, out, _ = run_cli(capsys, "gf", "--s", "1", "--order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 8
    coeffs = [Polynomial.from_coeff_strings(c["coeffs"]) for c in payload["z_coeffs"]]
    for k in range(3, 9):
        assert coeffs[k] == trib.incomplete_tribonacci_poly(k, 1)


# ----------------------------------------------------------------------
# indices too large for a machine-sized integer

TOO_LARGE = "100000000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "b-poly", TOO_LARGE, "5"),
        ("compute", "r-poly", TOO_LARGE, "0"),
        ("compute", "fib-incomplete", TOO_LARGE, "0"),
        ("compute", "incomplete-number", TOO_LARGE, "0"),
        ("gf", "--s", "0", "--order", TOO_LARGE),
        ("verify", "eq4", "--n", TOO_LARGE, "--s", "0"),
    ],
)
def test_index_too_large_to_hold_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ----------------------------------------------------------------------
# results too large to allocate

HUGE = "1000000000000"


def _limit_address_space():
    # 1 GiB: the allocation fails at once, whatever the host's overcommit policy
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize(
    "command",
    [
        f"compute b-poly {HUGE} 0",
        f"compute incomplete-poly {HUGE} 0",
        f"compute incomplete-number {HUGE} 3",
        f"compute r-poly {HUGE} 0",
        f"compute fib-incomplete {HUGE} 0",
        f"gf --s 1 --order {HUGE}",
        f"gf --s 1 --order {HUGE} --x1",
        f"verify eq4 --n {HUGE} --s 0",
    ],
)
def test_result_too_large_to_allocate_is_a_usage_error(command):
    proc = subprocess.run(
        [sys.executable, "-m", "tribpoly", *command.split()],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert len(proc.stderr) > len("error: \n")
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# peak memory follows the request, not the memo's history

# The child runs one command line and reports its own peak RSS, in KiB, on
# stderr.  It reads VmHWM, not ru_maxrss: Linux carries the forking
# process's peak over into the ru_maxrss of a child it execs, so a large
# test process would be counted too.
_REPORT_PEAK = (
    "import sys\n"
    "from tribpoly import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "print(peak, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc/self/status")
def test_a_far_member_keeps_peak_memory_small():
    # a memo of every member up to 1400 peaked at about 104 MB
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_PEAK, "compute", "trib-poly", "1400", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["indices"] == [1400]
    # the walked member at x = 1 is the tribonacci number
    assert sum(map(int, payload["coeffs"])) == trib.tribonacci_number(1400)
    assert int(proc.stderr) / 1024 < 48


# ----------------------------------------------------------------------
# start-up: a command loads only the modules it uses

# modules that ``compute`` never uses, so that it must not load
_UNUSED_BY_COMPUTE = (
    "tribpoly.identities",
    "tribpoly.tilings",
    "tribpoly.series",
    "dataclasses",
    "inspect",
    "csv",
)

# modules that ``gf`` never uses: it expands a series, and checks no identity
_UNUSED_BY_GF = ("tribpoly.identities", "tribpoly.tilings", "inspect", "dataclasses", "csv")

# The child runs the command line after its first argument, then names on
# stderr each module of that comma-separated first argument that it loaded.
_REPORT_LOADED = (
    "import sys\n"
    "from tribpoly import cli\n"
    "code = cli.main(sys.argv[2:])\n"
    "print(*(m for m in sys.argv[1].split(',') if m in sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _run_fresh(command, unused=_UNUSED_BY_COMPUTE):
    """Exit code, stdout and the modules of ``unused`` loaded by one command
    in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_LOADED, ",".join(unused), *command.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr.split()


@pytest.mark.parametrize(
    "command", ["compute incomplete-poly 30 5 --format json", "compute trib-number 10"]
)
def test_compute_loads_no_module_it_does_not_use(capsys, command):
    code, out, loaded = _run_fresh(command)
    assert loaded == [], f"{command} loaded {', '.join(loaded)}"
    assert (code, out) == run_cli(capsys, *command.split())[:2]


def test_gf_loads_neither_the_catalog_nor_the_tilings(capsys):
    command = "gf --s 4 --order 120 --format json"
    code, out, loaded = _run_fresh(command, _UNUSED_BY_GF)
    assert loaded == [], f"{command} loaded {', '.join(loaded)}"
    assert (code, out) == run_cli(capsys, *command.split())[:2]


def test_import_tribpoly_loads_no_submodule():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, tribpoly\nprint(*(m for m in sys.modules if m.startswith('tribpoly.')))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"import tribpoly loaded {proc.stdout.strip()}"


@pytest.mark.parametrize(
    "command, output",
    [
        (
            "verify eq4 --n 1..3",
            "EQ4: 4 passed, 0 failed, 11 filtered, 0 resource-limited\noverall: PASS\n",
        ),
        ("enumerate 4", "rrrr\nrrd\nrdr\nrt\ndrr\ndd\ntr\ncount: 7\nweight: x^8 + 3*x^5 + 3*x^2\n"),
    ],
)
def test_other_commands_load_what_they_use(command, output):
    code, out, _ = _run_fresh(command)
    assert (code, out) == (0, output)


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


# ----------------------------------------------------------------------
# any small command line ends in an answer, a failed check or a usage error

INDICES = st.integers(-3, 12).map(str)
RANGES = st.one_of(
    st.builds("{}..{}".format, INDICES, INDICES),
    INDICES,
    st.sampled_from(["", "..", "3..", "..3", "1...2", "1..2..3", "a..b", "x"]),
)


def _maybe(flag, values):
    """No option, or ``flag=value``; the = form keeps a leading minus a value."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["compute", "enumerate", "verify", "gf"]))
    argv = [command, "--format=" + draw(st.sampled_from(["text", "json", "csv"]))]
    if command == "compute":
        argv.append(draw(st.sampled_from(sorted(cli.FAMILIES))))
        argv += draw(st.lists(INDICES, min_size=1, max_size=3))
    elif command == "enumerate":
        argv.append(draw(INDICES))
        argv += draw(_maybe("--max-longer", INDICES)) + draw(_maybe("--cap", INDICES))
    elif command == "verify":
        argv.append(draw(st.sampled_from(["all", *identities.ALL_IDENTITY_IDS])).lower())
        for flag in ("--n", "--s", "--h"):
            argv += draw(_maybe(flag, RANGES))
        argv += draw(_maybe("--order", INDICES)) + draw(_maybe("--cap", INDICES))
    else:
        argv += [f"--s={draw(INDICES)}", f"--order={draw(INDICES)}"]
        argv += draw(st.sampled_from([[], ["--x1"]]))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_small_command_lines_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    # a usage error comes before any output
    assert code != 2 or out.getvalue() == "", argv
