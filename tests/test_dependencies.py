"""The package has no runtime dependencies (``dependencies = []``): every
import under src/sympsheaf is relative or from the standard library.  The
CLI's cold path, ``import sympsheaf.cli``, leaves out the standard-library
modules it has no use for, and each command loads only the package modules
it calls."""

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


# what `import sympsheaf.cli` loads of the package: the parser and the loader
CLI = {"sympsheaf", "sympsheaf.cli", "sympsheaf.errors", "sympsheaf.jsonio", "sympsheaf.site"}
# section matrices and vectors, with the stalk kernels under them
MODULES = {"sympsheaf.modules", "sympsheaf.qlinalg", "sympsheaf.sections"}
# command -> its golden input with exit code 0, and the modules it loads beyond CLI
COMMANDS = {
    "darboux": ("form_J", MODULES | {"sympsheaf.symplectic"}),
    "normal-form": ("form_rank2", MODULES | {"sympsheaf.symplectic"}),
    "check-symplectic": ("shear", MODULES | {"sympsheaf.symplectic"}),
    "charpoly": ("rot", MODULES | {"sympsheaf.charpoly"}),
    "eigen": ("eigen_sections", MODULES | {"sympsheaf.charpoly"}),
    "sheaf-check": ("sheaf_functions", {"sympsheaf.presheaf", "sympsheaf.sections"}),
    "wedge": ("wedge_basic", MODULES | {"sympsheaf.exterior"}),
}
DATA = Path(__file__).parent / "data"


def loaded_package_modules(statements: str) -> set[str]:
    """The sympsheaf modules that a fresh interpreter (-S, as above) has
    loaded after running statements."""
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             f"{statements}\n"
             "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'sympsheaf'))\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.splitlines()[-1].split())


def main_call(command: str, case: str, code: int) -> str:
    """Statements that run the CLI on a data file and check its exit code."""
    path = str(DATA / f"{case}.json")
    return f"from sympsheaf.cli import main\nassert main([{command!r}, '--input', {path!r}]) == {code}"


def test_package_import_loads_no_submodule():
    assert loaded_package_modules("import sympsheaf") == {"sympsheaf"}


def test_cli_import_loads_the_parser_and_the_loader_alone():
    assert loaded_package_modules("import sympsheaf.cli") == CLI


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_calls(command):
    case, extra = COMMANDS[command]
    assert loaded_package_modules(main_call(command, case, 0)) == CLI | extra


# command -> an input whose entry, form index or presheaf kind its reader rejects
MALFORMED = {"darboux": "unknown_point", "normal-form": "unknown_point",
             "check-symplectic": "not_rational", "charpoly": "not_rational",
             "eigen": "not_rational", "sheaf-check": "presheaf_kind_unknown",
             "wedge": "wedge_index_not_integer"}


@pytest.mark.parametrize("command", MALFORMED)
def test_a_malformed_file_loads_nothing_beyond_the_cli(command):
    assert loaded_package_modules(main_call(command, MALFORMED[command], 2)) == CLI
