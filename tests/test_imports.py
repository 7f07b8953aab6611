"""Every import in the package and the tests is used (stdlib `ast` only).

Package `__init__.py` files re-export, and a line marked `# noqa: F401`
keeps a name that only the benchmark's tracer binds; both are exempt.
"""
import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_FILES = sorted(p for p in [*(_ROOT / "src" / "alexkit").glob("*.py"),
                            *(_ROOT / "tests").glob("*.py")]
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
