"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import slotlogic

MODULES = sorted(p for p in Path(slotlogic.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
    quoted = [ast.parse(a.value, mode="eval") for a in annotations
              if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in (tree, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"
