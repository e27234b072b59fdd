"""Source hygiene of the hklab package and its tests, checked on their syntax trees."""

import ast
from pathlib import Path

import hklab

PACKAGE = Path(hklab.__file__).parent
TESTS = Path(__file__).parent
HKBENCH = TESTS.parent / "hkbench"

# Top-level names that only tests call, each kept for the reason given.
TEST_ONLY_NAMES = {
    "output.read_samples": "reads samples.csv back",
    "output.read_survival": "reads survival.csv back",
    "output.read_summary": "reads summary.json back",
    "presets.scaled_preset": "the acceptance fixtures shrink presets with it",
    "projected.trajectory": "the plain step loop hitting_time_td is checked against",
    "projected.sampled_audit": "AC-6 certifies the declared coefficients with it",
}


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as 'name (line k)'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from . import walks\n"
        "from .a import b, c as d\n"
        "np.zeros(walks.N, b)\n"
    )
    assert _unused_imports(source) == ["d (line 5)", "os (line 2)"]


def test_package_has_no_unused_imports():
    # The package's __init__.py imports to re-export, so it is left out.
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unused = {
        f"{path.parent.name}/{path.name}": _unused_imports(path.read_text())
        for path in paths + sorted(TESTS.glob("*.py"))
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _names_read(source: str) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_package_name_is_called_only_by_tests():
    # A top-level function or class must be read somewhere in the package
    # (its own module included) or in hkbench; __init__.py's re-exports do
    # not count.  The exceptions are listed, with reasons, in TEST_ONLY_NAMES.
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    read = set()
    for path in modules + sorted(HKBENCH.glob("*.py")):
        read |= _names_read(path.read_text())
    unread = {
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    }
    assert unread == set(TEST_ONLY_NAMES)
