"""The benchmark's per-layer tracer wraps alexkit bindings by name; each
one it names must exist, so a rename fails here rather than in a traced
benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({binding for bindings in module.BINDINGS.values()
                   for binding in bindings if binding[0] != "api"})


@pytest.mark.parametrize("owner,attr", _bindings())
def test_traced_binding_exists(owner, attr):
    assert hasattr(importlib.import_module("alexkit." + owner), attr)
