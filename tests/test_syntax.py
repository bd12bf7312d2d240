"""pyproject.toml admits Python 3.10: every source, test and benchmark file
must parse with the 3.10 grammar, whichever interpreter runs the suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "benchmarks")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: "
                            f"{exc.msg}")
    assert not failures, failures
