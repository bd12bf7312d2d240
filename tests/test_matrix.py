"""tools/matrix.py on the running interpreter only, on one small test
file, its report of an interpreter that cannot import pytest, and its
usage errors, a path that is not a Python interpreter among them."""

import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "matrix.py"
SPEC = importlib.util.spec_from_file_location("matrix", PATH)
matrix = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(matrix)


def test_one_line_of_counts_for_the_running_interpreter():
    proc = subprocess.run(
        [sys.executable, str(PATH), sys.executable, "--", "-q",
         "-p", "no:cacheprovider", "tests/test_readme.py"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "python": sys.executable, "version": platform.python_version(),
        "passed": 1, "failed": 0, "error": 0, "exit": 0}


def test_an_interpreter_without_a_test_package_is_skipped(tmp_path):
    # ``-S`` leaves site-packages off the path, so pytest finds only the
    # links, and pluggy is not among them.
    python = tmp_path / "python"
    python.write_text(f'#!/bin/sh\nexec "{sys.executable}" -S "$@"\n')
    python.chmod(0o755)
    links = tmp_path / "links"
    links.mkdir()
    matrix.link_packages(links, [name for name in matrix.PACKAGES
                                 if name != "pluggy"])
    probed = matrix.probe(str(python), links)
    assert matrix.run(str(python), links, probed) == {
        "python": str(python), "version": platform.python_version(),
        "skipped": "no module named 'pluggy'"}


def test_help_prints_the_usage():
    proc = subprocess.run([sys.executable, str(PATH), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(
        "usage: matrix.py PYTHON... [-- PYTEST_ARGS...]\n")


@pytest.mark.parametrize("argv, message", [
    (["/no/such/python"], "no interpreter '/no/such/python'"),
    ([sys.executable, "no-such-python-on-path"],
     "no interpreter 'no-such-python-on-path'"),
    (["--bogus", sys.executable], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: PYTHON"),
    (["--", "-q"], "the following arguments are required: PYTHON"),
    ([sys.executable, "/bin/false"], "'/bin/false' is not a Python "
     "interpreter: its probe exited with status 1"),
    (["/bin/true", sys.executable], "'/bin/true' is not a Python "
     "interpreter: its probe printed nothing"),
], ids=["path", "name", "option", "none", "only-pytest-args",
        "probe-fails", "probe-prints-nothing"])
def test_a_bad_argument_is_one_error_line_and_exit_2(argv, message):
    proc = subprocess.run([sys.executable, str(PATH), *argv],
                          capture_output=True, text=True, timeout=60)
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert (proc.returncode, proc.stdout) == (2, "")
    assert errors == [f"matrix.py: error: {message}"], proc.stderr
    assert "Traceback" not in proc.stderr
