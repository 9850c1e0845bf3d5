"""The runtime needs nothing beyond the standard library.

Every import in the package is relative or names a standard-library
module, and ``pyproject.toml`` declares no runtime dependency, so an
install pulls in nothing else.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tribpoly").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_project_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
