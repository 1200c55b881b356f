"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cceq"
# __init__.py imports to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level imports."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def exported_names(tree: ast.Module) -> set[str]:
    """The names the module lists in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return exported


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads as a name and does not list in ``__all__``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - read - exported_names(tree))


def stale_exports(source: str) -> list[str]:
    """Names the module lists in ``__all__`` but neither defines nor imports
    at its top level."""
    tree = ast.parse(source)
    bound = imported_names(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(exported_names(tree) - bound)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from math import inf, pi as PI\nimport numpy as np\n"
              "__all__ = ['inf']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["PI", "json", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_stale_exports_are_found():
    source = ("from math import inf\nimport numpy as np\n"
              "__all__ = ['inf', 'np', 'LIMIT', 'Kind', 'gone', 'solve', 'size']\n"
              "LIMIT = 3\nsize: int = 2\nclass Kind: pass\ndef solve(): pass\n"
              "def helper():\n    gone = 1\n")
    assert stale_exports(source) == ["gone"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_export_is_defined(module):
    assert stale_exports((PACKAGE / module).read_text()) == []
