"""The repository's pytest settings let a failing test report as a failure.

`pyproject.toml` turns DeprecationWarning into an error.  A failing
hypothesis test makes hypothesis import its failure-reporting helpers, one
of which raises a third-party DeprecationWarning; unfiltered, that ended the
whole run with an INTERNALERROR before the next test ran.
"""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = textwrap.dedent("""\
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(n):
        assert n < 0


    def test_passes():
        assert True
    """)


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
