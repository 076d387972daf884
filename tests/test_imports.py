"""Every name a sislip module imports is used there or re-exported."""

import ast
from pathlib import Path

import pytest

import sislip

SRC = Path(sislip.__file__).resolve().parent


def unused_imports(source):
    """Imported names never referenced in the module and not in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {
        n.value.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
    }
    return sorted(name for name in imported if name not in used | exported)


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport math\nfrom os import path, sep\n"
    src += "__all__ = ['sep']\n"
    assert unused_imports(src) == ["math", "path"]
    assert unused_imports("import math\nprint(math.pi)\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
