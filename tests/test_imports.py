"""Imports: every name a sislip module imports is used there or
re-exported, and no request imports sympy."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sislip

SRC = Path(sislip.__file__).resolve().parent

# benchmark pool inputs (perfbench/gen.py): rational and conjugate points,
# and the paper's sextic pair
CUBIC = "y^3 + x*z^2 - x^4"
CONICS = "(y*z - x^2)*(x*z - y^2 + 3*z^2) + (x + y + z)^5"
PAIR_A = "(y^3 - z^2*x)*(y^3 + z^2*x) + (x + y + z)^7"
PAIR_B = "(y^3 - z^2*x)*(y^3 + 2*z^2*x) + (x + y + z)^7"


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


def test_requests_never_import_sympy():
    # sympy is the test oracle only: no request loads it
    script = textwrap.dedent(f"""
        import io, sys
        from contextlib import redirect_stdout
        from sislip.cli import main
        requests = [
            ["check", {CUBIC!r}],
            ["inner-rates", {CONICS!r}],
            ["polar", {CUBIC!r}, "--samples", "3"],
            ["compare", {PAIR_A!r}, {PAIR_B!r}, "--polar", "--samples", "3"],
        ]
        for argv in requests:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        sys.exit("sympy" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
