"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis reports a failure through modules that may warn on import;
    # under ``filterwarnings = ["error"]`` such a warning must not turn the
    # report into an INTERNALERROR that ends the run.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY,
                                               encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
