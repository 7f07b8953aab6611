"""Every import in the package and the tests is used, and the package
imports only the standard library and its declared dependencies (stdlib
`ast` only).

Package `__init__.py` files re-export, and a line marked `# noqa: F401`
keeps a name that only the benchmark's tracer binds; both are exempt
from the first check, and each such line must name a binding that the
tracer wraps.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

from util import traced_bindings

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "alexkit").glob("*.py"))
_FILES = sorted(p for p in [*_PACKAGE, *(_ROOT / "tests").glob("*.py")]
                if p.name != "__init__.py")


def imports(source):
    """(line, name, marked) of each imported name, `marked` when its
    import carries `# noqa: F401`."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                yield (node.lineno, alias.asname or alias.name.split(".")[0],
                       marked)


def unused_imports(source):
    """(line, name) of each unmarked imported name that the module never
    reads."""
    used = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name)}
    return [(line, name) for line, name, marked in imports(source)
            if not marked and name not in used]


def stale_tracer_imports(owner, source, bindings):
    """(line, name) of each marked import of module `owner` that is not
    an (owner, name) binding."""
    return [(line, name) for line, name, marked in imports(source)
            if marked and (owner, name) not in bindings]


@pytest.mark.parametrize("path", _FILES, ids=lambda p: "%s/%s" % (
    p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("import os\nimport sys  # noqa: F401\nfrom a import (b,\n"
              "    c)\nfrom d import e as f\nprint(b, f.g)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_tracer_only_imports_are_traced(path):
    assert stale_tracer_imports(path.stem, path.read_text(),
                                set(traced_bindings())) == []


def test_stale_tracer_imports_are_found():
    source = ("from .laurent import gcd_multivariate  # noqa: F401\n"
              "from .snf import (poly_det,  # noqa: F401\n"
              "    smith_normal_form)\nimport os\n")
    bindings = {("alexander", "gcd_multivariate"), ("tangles", "poly_det")}
    assert stale_tracer_imports("alexander", source, bindings) == [
        (2, "poly_det"), (2, "smith_normal_form")]


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
