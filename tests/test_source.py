"""Source hygiene of the package, read with the standard library's `ast`."""

import ast
import pathlib

import pytest

import lbstates

PACKAGE = pathlib.Path(lbstates.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import of a module -> its line ('from __future__'
    imports bind nothing)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def stale_imports(source: str) -> dict:
    """The imported names that the module never reads, with their lines."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported_names(tree).items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    stale = stale_imports(path.read_text())
    assert not stale, f"{path.name} imports names it never uses: {stale}"


def test_a_stale_import_is_found():
    source = ("from __future__ import annotations\nimport math\nimport scipy.sparse as sp\n"
              "from .levels import alpha, theta_table\nalpha(1, 0.5, 'plus')\nsp.eye(2)\n")
    assert stale_imports(source) == {"math": 2, "theta_table": 4}
