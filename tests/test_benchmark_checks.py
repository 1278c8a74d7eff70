"""The benchmark's correctness checks pass on this package.

perfbench/run.py checks each workload's results against what the package
exposes (records, frequencies, estimates) and traces its calls by name.
This runs each of the four workloads at minimal size, traced, on a copy
of the checkout in a temporary directory, so a change that breaks what the
benchmark reads from the package fails here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """BENCHMARK.json, perfbench/ and src/ copied, without run outputs."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, root / part, ignore=ignore)
    return root


# Uniform draws each smoke run makes at seed 7, as the tracer counts them
# through RandomStream.uniform: sampling that left that path would read 0.
SMOKE_DRAWS = {"fringe_scan": 0, "merit_sweep": 0, "estimator": 5_600,
               "calibration": 6_000}


@pytest.mark.parametrize("workload", list(SMOKE_DRAWS))
def test_traced_smoke_run_is_correct(checkout, workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=checkout, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["metrics"]["numerics.random.draws"]["value"] == SMOKE_DRAWS[workload]


def test_merit_sweep_matches_its_reference_at_seed_0(checkout):
    # at the reference seed the check compares the nbar ~ 5 cells and the
    # visibility boundary with perfbench/reference.json, to SEARCH_RTOL
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "merit_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
