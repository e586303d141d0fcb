"""Checks on the package as a whole: what importing it loads, and what its
modules import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hyperk

PACKAGE = Path(hyperk.__file__).parent


def test_import_does_not_load_scipy():
    # the realizability solver imports linprog only when it needs it
    code = "import sys, hyperk\nprint('scipy' in sys.modules)\n"
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_unused_import_check_sees_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Tuple as T\n"
        "def f(x: List[int]):\n"
        "    from math import sqrt\n"
        "    return x\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "T"), (5, "sqrt")]
