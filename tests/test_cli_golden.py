"""CLI output pinned byte for byte, apart from elapsed_ms: each command's
stdout, with the elapsed_ms JSON lines and CSV column dropped, hashes to
the recorded prefix.  GOLDEN covers every subcommand in every format;
FAILING_VERIFY pins a verify that fails, in every format.  HELP and
USAGE_ERRORS pin argparse's own text in full."""

import hashlib
import re

import pytest

from tribpoly import Polynomial, cli, tribonacci as trib

# command -> sha256 prefix of its stdout without elapsed_ms
GOLDEN = {
    "verify all --format json": "835c58f636f4f6c0",
    "verify all --format csv": "76a5e01c358c4039",
    "verify all --format text": "6485773bed11c852",
    "gf --s 3 --order 40 --format json": "949fa47838e982f9",
    "gf --s 4 --order 60 --x1 --format csv": "c0f07fd9ebd2979f",
    "compute trib-number 60 --format json": "75f4361e6b39ef33",
    "compute trib-poly 12 --format json": "3f89e2b158ab26b3",
    "compute incomplete-poly 15 4 --format json": "968474b3ebe0b834",
    "compute incomplete-number 30 6 --format json": "3797bb6c54e335d9",
    "compute b-poly 9 4 --format json": "3735fadee705ef8e",
    "compute b-poly -1 0 --format json": "0c29a21720fb9bcd",
    "compute fib-incomplete 13 3 --format json": "c28cc3310b7087e5",
    "compute r-poly 0 0 --format json": "550884210e92b195",
    "compute r-poly 2 3 --format json": "a4a709f3167f2036",
    "compute r-poly 40 7 --format json": "9160110867b92977",
    "enumerate 5 --max-longer 1 --format csv": "829d1feb06eeb966",
    "enumerate 7": "fbceedff6a0e6d23",
    "enumerate 6 --format json": "3f3ee1f86135278a",
    "enumerate 8 --max-longer 2 --format csv": "bb5b44758229b7b2",
    "compute trib-poly 12": "0d9288958d5aa06a",
    "compute incomplete-number 30 6": "6c41c106ebdc8b13",
    "compute incomplete-poly 15 4 --format csv": "147324a4cbd557e6",
    "compute trib-number 60 --format csv": "1a749e3268288aa9",
    "gf --s 2 --order 20": "5900484b8abb7710",
    "gf --s 1 --order 12 --x1 --format json": "d3d2199e8abdf6cc",
    "gf --s 4 --order 120 --format json": "1bb5902bd6f2a48c",
    "gf --s 4 --order 120 --x1 --format csv": "a9eea911b534fc66",
}

# format -> sha256 prefix of FAILING_COMMAND's stdout without elapsed_ms,
# with overshoot_poly off by one at (n, s) = (5, 0)
FAILING_COMMAND = "verify eq12 --n 1..8 --s 0..1 --format"
FAILING_VERIFY = {
    "text": "9bba4bc9c8e2853a",
    "json": "e73f3a9b7f714fc6",
    "csv": "eb38429cb20182da",
}


def _overshoot_off_by_one(n, s, real=trib.overshoot_poly):
    value = real(n, s)
    return value + Polynomial((1,)) if (n, s) == (5, 0) else value


def _without_elapsed(out):
    if out.startswith("identity_id,"):  # verify csv: elapsed_ms is the last column
        return re.sub(r",[^,\n]*$", "", out, flags=re.M)
    return re.sub(r'^ *"elapsed_ms": .*\n', "", out, flags=re.M)


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_output_is_pinned(capsys, command):
    assert cli.main(command.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    digest = hashlib.sha256(_without_elapsed(out).encode()).hexdigest()
    assert digest.startswith(GOLDEN[command])


@pytest.mark.parametrize("fmt", FAILING_VERIFY)
def test_failing_verify_output_is_pinned(capsys, monkeypatch, fmt):
    monkeypatch.setattr(trib, "overshoot_poly", _overshoot_off_by_one)
    assert cli.main([*FAILING_COMMAND.split(), fmt]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    digest = hashlib.sha256(_without_elapsed(out).encode()).hexdigest()
    assert digest.startswith(FAILING_VERIFY[fmt])


# argparse's own text, byte for byte at COLUMNS=80: each --help on stdout,
# and each usage error on stderr.  The usage lines show every choice list,
# so a list read late or from elsewhere shows here first.
HELP = {
    "--help": """\
usage: tribpoly [-h] {compute,enumerate,verify,gf} ...

Exact tribonacci-polynomial toolkit: compute, enumerate, expand, verify.

positional arguments:
  {compute,enumerate,verify,gf}
    compute             evaluate one family member
    enumerate           list tilings and their weight distribution
    verify              check identities over a parameter grid
    gf                  expand a restriction-level generating function

options:
  -h, --help            show this help message and exit
""",
    "compute --help": """\
usage: tribpoly compute [-h] [--format {text,json,csv}]
                        {b-poly,fib-incomplete,incomplete-number,incomplete-poly,r-poly,trib-number,trib-poly}
                        indices [indices ...]

positional arguments:
  {b-poly,fib-incomplete,incomplete-number,incomplete-poly,r-poly,trib-number,trib-poly}
  indices

options:
  -h, --help            show this help message and exit
  --format {text,json,csv}
                        output format (default: text)
""",
    "enumerate --help": """\
usage: tribpoly enumerate [-h] [--format {text,json,csv}] [--cap CAP]
                          [--max-longer MAX_LONGER]
                          n

positional arguments:
  n

options:
  -h, --help            show this help message and exit
  --format {text,json,csv}
                        output format (default: text)
  --cap CAP             enumeration cap; unset, the library's own applies
                        (default: 18)
  --max-longer MAX_LONGER
                        keep only tilings with at most this many
                        dominos/trominos
""",
    "verify --help": """\
usage: tribpoly verify [-h] [--format {text,json,csv}] [--cap CAP] [--n A..B]
                       [--s A..B] [--h A..B] [--order ORDER]
                       {ALL,EQ4,ID1,ID2,ID3,REMARK_A,ID4,ID5,ID6,EQ12,EQ13,THM1,THM2,COR2}

positional arguments:
  {ALL,EQ4,ID1,ID2,ID3,REMARK_A,ID4,ID5,ID6,EQ12,EQ13,THM1,THM2,COR2}
                        identity id, or 'all' for the whole catalog

options:
  -h, --help            show this help message and exit
  --format {text,json,csv}
                        output format (default: text)
  --cap CAP             enumeration cap; unset, the library's own applies
                        (default: 18)
  --n A..B              n range a..b
  --s A..B              s range a..b
  --h A..B              h range a..b
  --order ORDER         series order of THM2/COR2/REMARK_A
""",
    "gf --help": """\
usage: tribpoly gf [-h] [--format {text,json,csv}] --s S --order ORDER [--x1]

options:
  -h, --help            show this help message and exit
  --format {text,json,csv}
                        output format (default: text)
  --s S                 restriction level
  --order ORDER         series truncation order
  --x1                  evaluate coefficients at x = 1
""",
}

USAGE_ERRORS = {
    "verify xx": """\
usage: tribpoly verify [-h] [--format {text,json,csv}] [--cap CAP] [--n A..B]
                       [--s A..B] [--h A..B] [--order ORDER]
                       {ALL,EQ4,ID1,ID2,ID3,REMARK_A,ID4,ID5,ID6,EQ12,EQ13,THM1,THM2,COR2}
tribpoly verify: error: argument identity: invalid choice: 'XX' (choose from 'ALL', 'EQ4', 'ID1', 'ID2', 'ID3', 'REMARK_A', 'ID4', 'ID5', 'ID6', 'EQ12', 'EQ13', 'THM1', 'THM2', 'COR2')
""",
    "compute nosuch 1": """\
usage: tribpoly compute [-h] [--format {text,json,csv}]
                        {b-poly,fib-incomplete,incomplete-number,incomplete-poly,r-poly,trib-number,trib-poly}
                        indices [indices ...]
tribpoly compute: error: argument family: invalid choice: 'nosuch' (choose from 'b-poly', 'fib-incomplete', 'incomplete-number', 'incomplete-poly', 'r-poly', 'trib-number', 'trib-poly')
""",
}


@pytest.mark.parametrize("command", HELP)
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(command.split())
    assert (exit_.value.code, *capsys.readouterr()) == (0, HELP[command], "")


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(command.split())
    assert (exit_.value.code, *capsys.readouterr()) == (2, "", USAGE_ERRORS[command])


if __name__ == "__main__":
    # print the GOLDEN and FAILING_VERIFY tables for the code on the path,
    # ready to paste: PYTHONPATH=src python tests/test_cli_golden.py
    import contextlib
    import io
    from unittest import mock

    def row(key, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        digest = hashlib.sha256(_without_elapsed(out.getvalue()).encode()).hexdigest()
        print(f'    "{key}": "{digest[:16]}",')

    for command in GOLDEN:
        row(command, command.split())
    with mock.patch.object(trib, "overshoot_poly", _overshoot_off_by_one):
        for fmt in FAILING_VERIFY:
            row(fmt, [*FAILING_COMMAND.split(), fmt])
