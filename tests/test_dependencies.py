"""The package imports exactly the third-party distributions that
pyproject.toml declares: none undeclared, and none declared but unused."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    names = set()
    for path in (ROOT / "src" / "equifred").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "equifred"}


def _declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in project["dependencies"]}


def test_imports_match_the_declared_dependencies():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}
