"""Smoke test of the demos: each one runs to the end in a fresh interpreter.

A demo runs with the checkout's src/ on PYTHONPATH, from an empty working
directory, and must exit 0 without writing anything into the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _checkout_state():
    """(size, mtime) of every file and directory of the checkout but .git."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state[path] = (st.st_size, st.st_mtime_ns)
    return state


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_without_writing_into_the_checkout(demo, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    before = _checkout_state()
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert _checkout_state() == before
    assert list(tmp_path.iterdir()) == []
