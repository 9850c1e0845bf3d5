"""The examples in README.md.  The ``>>>`` examples are run by doctest one
python block at a time: a whole-file ``doctest.testfile`` would read each
closing fence as part of the expected output before it.  Each ``$ tribpoly``
line of a text block is run through ``cli.main`` and must print the lines
under it."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from tribpoly import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
SHELL = []  # (command, the output shown under it) for each "$ " line of a text block
for block in re.findall(r"^```text\n(.*?)^```$", TEXT, re.M | re.S):
    for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, _, shown = example.partition("\n")
        SHELL.append((command, shown))


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("number", range(len(BLOCKS)))
def test_readme_example_runs(number):
    name = f"README block {number}"
    test = doctest.DocTestParser().get_doctest(BLOCKS[number], {}, name, str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_readme_has_shell_examples():
    assert len(SHELL) >= 7


@pytest.mark.parametrize("number", range(len(SHELL)))
def test_readme_shell_example_prints_what_it_shows(capsys, number):
    command, shown = SHELL[number]
    line, pipe, through = command.partition(" | ")
    program, *argv = shlex.split(line)
    assert program == "tribpoly"
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if pipe:
        assert through == "tail -3", f"no stand-in for {through!r}"
        out = "".join(out.splitlines(keepends=True)[-3:])
    assert out == shown, command
