"""One pass of every benchmark workload at seed 1, run and checked as the
benchmark does it, so an API change that would break the benchmark, or
make it read its outputs as wrong, fails here first."""
import importlib.util
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_pass(workload, tmp_path):
    api = workloads.make_api()
    checker = workloads.Checker()
    cases = workloads.make_corpus(workload, random.Random(1), str(tmp_path))
    assert cases
    for case in cases:
        workloads.check(case, workloads.execute(case, api), checker)
