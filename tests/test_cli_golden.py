"""CLI output pinned byte for byte, apart from elapsed_ms: each command's
stdout, with the elapsed_ms JSON lines and CSV column dropped, hashes to
the recorded prefix."""

import hashlib
import re

import pytest

from tribpoly import cli

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
}


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


if __name__ == "__main__":
    # print the GOLDEN table for the code on the path, ready to paste:
    # PYTHONPATH=src python tests/test_cli_golden.py
    import contextlib
    import io

    for command in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(command.split())
        digest = hashlib.sha256(_without_elapsed(out.getvalue()).encode()).hexdigest()
        print(f'    "{command}": "{digest[:16]}",')
