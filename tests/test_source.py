"""Source hygiene of the hklab package and its tests, checked on their syntax trees."""

import ast
from pathlib import Path

import hklab

PACKAGE = Path(hklab.__file__).parent
TESTS = Path(__file__).parent


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
