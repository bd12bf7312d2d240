"""Run the tier-1 suite under other Python interpreters, one at a time.

    python3 tools/matrix.py python3.12 python3.13 [-- PYTEST_ARGS...]

The interpreters named need no test packages of their own.  The script
makes a throwaway directory of symlinks to the pure-Python test packages
of the interpreter that runs it (pytest, ``_pytest``, pluggy, iniconfig,
packaging, pygments, hypothesis, attrs and sortedcontainers), and runs
``python -m pytest -q --continue-on-collection-errors`` from the
repository root under each interpreter with ``PYTHONPATH=src:<links>``.
Arguments after ``--`` replace that suite's arguments.  ``--help`` prints
the usage.  Every interpreter is probed for its version before any suite
runs; an interpreter that cannot be found, a path whose probe fails or
prints nothing, or an unknown option, exits with status 2 and one
``error:`` line before any suite runs.

It prints one JSON line per interpreter: its version, the passed, failed
and error counts of pytest's summary line and pytest's exit code, or
``skipped`` with the module that ``import pytest`` could not find.  Under Python 3.10, pytest
also needs ``exceptiongroup`` and ``tomli``, which later versions do not;
an interpreter with neither reads as skipped.  Standard library only.
"""

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import names: attrs installs ``attr`` and ``attrs``, and pytest and
# hypothesis import ``py`` and ``_hypothesis_globals``, modules they
# install beside their packages.
PACKAGES = ("pytest", "_pytest", "py", "pluggy", "iniconfig", "packaging",
            "pygments", "hypothesis", "_hypothesis_globals", "attr", "attrs",
            "sortedcontainers")
TIER_1 = ("-q", "--continue-on-collection-errors")
# Prints the version, then the module ``import pytest`` misses, if any.
PROBE = """\
import platform
print(platform.python_version())
try:
    import pytest
except ModuleNotFoundError as exc:
    print(exc.name)
"""


def link_packages(directory: Path, names=PACKAGES) -> None:
    """Link each of ``names`` that this interpreter can import into
    ``directory``: a package by its directory, a module by its file."""
    for name in names:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            continue
        origin = Path(spec.origin)
        if spec.submodule_search_locations:
            (directory / name).symlink_to(origin.parent)
        else:
            (directory / origin.name).symlink_to(origin)


def _env(links: Path) -> dict:
    """This environment with ``src`` and ``links`` as the Python path."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(links)])}


def probe(python: str, links: Path) -> list[str]:
    """What ``python`` prints for ``PROBE`` with ``links`` on its path: its
    version, then the module ``import pytest`` misses, if any.  Raises
    ``ValueError`` when the probe cannot run, fails or prints nothing."""
    try:
        proc = subprocess.run([python, "-c", PROBE], env=_env(links),
                              cwd=ROOT, capture_output=True, text=True)
    except OSError as exc:
        raise ValueError(f"{python!r} cannot run: {exc.strerror}") from None
    words = proc.stdout.split()
    if proc.returncode or not words:
        raise ValueError(f"{python!r} is not a Python interpreter: its probe "
                         + (f"exited with status {proc.returncode}"
                            if proc.returncode else "printed nothing"))
    return words


def run(python: str, links: Path, probed: list[str],
        pytest_args=TIER_1) -> dict:
    """Run pytest under ``python`` with ``links`` on its path, and return
    its record; ``probed`` is what ``probe`` read."""
    version, *missing = probed
    record = {"python": python, "version": version}
    if missing:
        return {**record, "skipped": f"no module named {missing[0]!r}"}
    proc = subprocess.run([python, "-m", "pytest", *pytest_args],
                          env=_env(links), cwd=ROOT, capture_output=True,
                          text=True)
    summary = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {kind: int(match.group(1)) if match else 0
              for kind in ("passed", "failed", "error")
              for match in [re.search(rf"(\d+) {kind}", summary[0])]}
    return {**record, **counts, "exit": proc.returncode}


def main(argv: list[str]) -> int:
    pythons, pytest_args = argv, TIER_1
    if "--" in argv:
        split = argv.index("--")
        pythons, pytest_args = argv[:split], tuple(argv[split + 1:])
    parser = argparse.ArgumentParser(
        usage="%(prog)s PYTHON... [-- PYTEST_ARGS...]",
        description=__doc__.split("\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="an interpreter, by path or by name on PATH")
    pythons = parser.parse_args(pythons).pythons
    for python in pythons:
        if shutil.which(python) is None:
            parser.error(f"no interpreter {python!r}")
    with tempfile.TemporaryDirectory(prefix="matrix-") as links:
        links = Path(links)
        link_packages(links)
        try:
            probed = [probe(python, links) for python in pythons]
        except ValueError as exc:
            parser.error(str(exc))
        for python, found in zip(pythons, probed):
            print(json.dumps(run(python, links, found, pytest_args)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
