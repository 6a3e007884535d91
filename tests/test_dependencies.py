"""The package has no runtime dependencies (``dependencies = []``): every
import under src/sympsheaf is relative or from the standard library.  The
CLI's cold path, ``import sympsheaf.cli``, leaves out the standard-library
modules it has no use for."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "sympsheaf").glob("*.py"))


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


def test_cli_import_leaves_out_unused_modules():
    # -S: no site module, whose .pth files may import anything before the probe
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import sympsheaf.cli\n"
             "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))\n")
    unused = ["dataclasses", "inspect", "random"]
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC), *unused],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []
