"""The ``>>>`` examples in README.md, run by doctest one python block at a
time: a whole-file ``doctest.testfile`` would read each closing fence as
part of the expected output before it."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


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
