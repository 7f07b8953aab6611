"""The benchmark's per-layer tracer wraps alexkit bindings by name; each
one it names must exist, so a rename fails here rather than in a traced
benchmark run."""
import importlib

import pytest

from util import traced_bindings


@pytest.mark.parametrize("owner,attr", traced_bindings())
def test_traced_binding_exists(owner, attr):
    assert hasattr(importlib.import_module("alexkit." + owner), attr)
