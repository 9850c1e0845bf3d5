"""Every source file parses at the oldest Python that pyproject.toml admits.

``ast.parse(..., feature_version=...)`` rejects syntax newer than the floor
(``except*`` before 3.11, for one), so a newer construct fails here on any
interpreter at or above the floor, not only on a CI job that runs the floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_FLOOR = re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE
)
FLOOR = (int(_FLOOR[1]), int(_FLOOR[2]))
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_every_tree_has_sources():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_rejected_at_the_floor():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)
