"""The suite's own pytest settings, run on a throwaway test file.

`filterwarnings = ["error"]` must not turn hypothesis's failure report into
an internal error: printing a falsifying example imports libcst, which
warns on import, and an internal error would stop the run with exit code 3
and no example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_a_failing_given_test_prints_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in out
