"""The package has no runtime dependencies (``dependencies = []``): every
import under src/sympsheaf is relative or from the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sympsheaf").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_guard_flags_foreign_imports():
    source = "import json\nimport numpy.linalg\nfrom . import qlinalg\nfrom sympy import Matrix\n"
    assert foreign_imports(source) == ["numpy.linalg", "sympy"]


def test_package_sources_are_found():
    assert "symplectic.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
