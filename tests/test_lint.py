"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cceq"
# __init__.py imports to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads as a name and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from math import inf, pi as PI\nimport numpy as np\n"
              "__all__ = ['inf']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["PI", "json", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
