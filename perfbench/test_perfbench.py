"""Self-tests of the benchmark: `python -m pytest perfbench` from the
repository root."""
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from alexkit import alexander, codes  # noqa: E402
from alexkit.laurent import canonical_poly  # noqa: E402


def test_random_braid_needs_matching_parity():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        workloads.random_braid(rng, 4, 10, components=1)
    b = workloads.random_braid(rng, 4, workloads.parity_length(4, 10), 1)
    assert b.component_count() == 1
    link = workloads.random_braid(rng, 4, workloads.parity_length(4, 9, 2),
                                  2)
    assert link.component_count() == 2


def test_pd_code_of_braid_closure_has_same_delta():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        b = workloads.random_braid(rng, n, workloads.parity_length(n, 9))
        pd = codes.parse_pd(workloads.braid_to_pd(b))
        assert (canonical_poly(alexander.knot_delta(pd))
                == canonical_poly(alexander.knot_delta(codes.braid_closure(b))))


def test_same_seed_same_corpus(tmp_path):
    texts = []
    for _ in range(2):
        cases = workloads.make_corpus("cli_mixed", random.Random(7),
                                      str(tmp_path))
        texts.append(workloads.corpus_digest_text(cases))
    assert texts[0] == texts[1]


def test_smoke_mode():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fox_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
