"""The repository's pytest settings let every test report.

When a @given test fails, hypothesis's pytest plugin imports libcst to
suggest a patch, and that import warns of mypy_extensions.TypedDict. The
settings turn warnings into errors; without their one exemption for that
warning, the session would stop with an INTERNALERROR (exit code 3) at the
first hypothesis failure, and no later test would run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
from hypothesis import given, settings, strategies as st


def test_plain_failure():
    assert False


@settings(database=None)
@given(st.integers())
def test_hypothesis_failure(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_lets_later_tests_report(tmp_path):
    suite = tmp_path / "test_suite.py"
    suite.write_text(SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), str(suite),
         "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout[-2000:]
    assert "2 failed, 1 passed" in run.stdout
