"""Every import in the package and the tests is used, and the package
imports only the standard library and its declared dependencies (stdlib
`ast` only).

Package `__init__.py` files re-export, and a line marked `# noqa: F401`
keeps a name that only the benchmark's tracer binds; both are exempt
from the first check.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "alexkit").glob("*.py"))
_FILES = sorted(p for p in [*_PACKAGE, *(_ROOT / "tests").glob("*.py")]
                if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", _FILES, ids=lambda p: "%s/%s" % (
    p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("import os\nimport sys  # noqa: F401\nfrom a import (b,\n"
              "    c)\nfrom d import e as f\nprint(b, f.g)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def declared_dependencies(pyproject):
    """The import names of the projects in pyproject.toml's `dependencies`,
    read with a regex because Python 3.10 has no tomllib."""
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject,
                       re.MULTILINE | re.DOTALL)[1]
    return {name.lower().replace("-", "_")
            for name in re.findall(r"[\"']([A-Za-z0-9_.-]+)", listed)}


def foreign_imports(source, allowed):
    """(line, module) of each absolute import whose top-level module is
    neither in the standard library nor among `allowed`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in
                  sys.stdlib_module_names | allowed]
    return found


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_package_imports_stdlib_and_dependencies(path):
    allowed = declared_dependencies((_ROOT / "pyproject.toml").read_text())
    assert foreign_imports(path.read_text(), allowed) == []


def test_foreign_imports_are_found():
    assert declared_dependencies(
        'name = "x"\ndependencies = [\n  "numpy>=1.24",\n  \'SciPy\',\n]\n'
        '[project.optional-dependencies]\ntest = ["sympy"]\n') == {
            "numpy", "scipy"}
    source = ("from __future__ import annotations\nimport os.path, sympy\n"
              "from . import laurent\nfrom .fields import Mat\n"
              "def f():\n    import numpy.linalg\n    from sympy import S\n")
    assert foreign_imports(source, {"numpy"}) == [(2, "sympy"),
                                                  (7, "sympy")]
