"""A failing property reports its falsifying example, and the session goes on.

pyproject.toml turns warnings into errors.  A warning raised while
hypothesis reports a failure must not become an INTERNALERROR that ends the
session (exit code 3) before the example is printed or later tests run.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_failing_property(n):
    assert n < 10


def test_passing():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_report.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rA",
         "test_report.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "PASSED test_report.py::test_passing" in out
    assert "1 failed, 1 passed" in out
