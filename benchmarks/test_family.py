"""Self-test of the buffered-line family, and the writer of expected.json.

    python3 -m pytest -q benchmarks/test_family.py     # validate every size
    python3 benchmarks/test_family.py --write          # re-record the table

For every size that any workload's seeds can draw, it asserts that

* K and K∩L are conditionally decomposable, and the observer, OCC and
  optimality conditions hold (``desc check``, exit 0);
* K∩L ⊆ L, where L = G1 ∥ G2 ∥ Gk;
* the composed ``sup_cc`` result is language-equal to the monolithic
  ``sup_c``, with the same number of states;
* the brute-force oracle (``--oracle-bound``) agrees at a small bound;
* the controllability counterexamples are the closed-form words
  (a1 t1^p1 b1)^(n+1) for K∩L and (a1 b1)^(n+1) for condition (i).

Only then are the outputs of the ops the workloads time (exit code,
digest of the JSON verdict lines, digest of every written generator file)
compared with, or recorded into, ``expected.json``, the table the
benchmark gates every op against.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import family  # noqa: E402
import run  # noqa: E402
from descoord import language_equal, language_subset, sync_product  # noqa: E402
from descoord.cli import load_project, parse_generator, resolve_coordination  # noqa: E402
from descoord.cli import main as desc  # noqa: E402

ORACLE_BOUND = 6
# Worker processes of --write.  Each validates one size at a time and peaks
# below 1 GB, so two fit a small machine.
JOBS = 2
SIZES = sorted({size for grid in family.GRIDS.values() for size in grid})


def call(argv):
    """Run ``desc`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = desc(argv)
    return code, out.getvalue()


def records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def read_generator(path: str):
    return parse_generator(json.loads(Path(path).read_text("utf-8")), path)[1]


def check_properties(size) -> None:
    p1, p2, n = size
    for project in ("K/project.json", "KL/project.json"):
        for which in ("conddec", "observer", "occ", "optimality"):
            code, out = call(["check", which, "-p", project, "--json"])
            assert code == 0, (size, project, which, out)
        code, out = call(["check", "conddec", "-p", project, "--json",
                          "--oracle-bound", str(ORACLE_BOUND)])
        assert code == 0 and "MISMATCH" not in out, (size, project, out)

    kl, g1, g2, gk, _ = resolve_coordination(load_project("KL/project.json"))
    assert language_subset(kl, sync_product(sync_product(g1, g2), gk)).holds

    code, out = call(["check", "controllability", "-p", "KL/project.json",
                      "--json", "--oracle-bound", str(ORACLE_BOUND)])
    verdict, oracle = records(out)
    assert code == 1 and oracle["consistent"], (size, out)
    assert verdict["counterexample"] == (
        ["a1"] + ["t1"] * p1 + ["b1"]) * (n + 1), size
    code, out = call(["check", "condctrl", "-p", "KL/project.json",
                      "--json"])
    assert records(out)[0]["counterexample"] == ["a1", "b1"] * (n + 1)

    for mode in ("supcc", "supc"):
        code, out = call(["synth", mode, "-p", "K/project.json", "-o", mode,
                          "--json", "--oracle-bound", str(ORACLE_BOUND)])
        assert code == 0 and "MISMATCH" not in out, (size, mode, out)
        assert records(out)[-1]["consistent"], (size, mode, out)
    distributed = read_generator("supcc/composed.json")
    monolithic = read_generator("supc/supc.json")
    assert language_equal(distributed, monolithic).holds, size
    assert distributed.num_states == monolithic.num_states, size


def op_outputs(workload: str, size) -> dict:
    """What each timed op of ``workload`` produces on ``size``: exit code,
    stdout digest and written-file digests, keyed by command name."""
    wl = run.WORKLOADS[workload]
    project = family.write_project(Path(workload), size, wl.spec, wl.ek)
    outputs = {}
    for verb, name in wl.commands:
        shutil.rmtree("out", ignore_errors=True)
        code, out = call(run.argv_for(verb, name, str(project)))
        entry = {"exit": code,
                 "stdout": hashlib.sha256(out.encode()).hexdigest()}
        if verb == "synth":
            entry["files"] = {p.name: run.sha256_file(p)
                              for p in sorted(Path("out").iterdir())}
        outputs[name] = entry
    return outputs


def validate(size) -> dict:
    """Assert the family properties at ``size`` and return the op outputs
    of every workload whose grid holds it."""
    workdir = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        family.write_project(Path("K"), size, "K", family.EK)
        family.write_project(Path("KL"), size, "K∩L", family.EK)
        check_properties(size)
        return {workload: op_outputs(workload, size)
                for workload, grid in family.GRIDS.items() if size in grid}
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def test_family_size(size):
    expected = run.load_expected()
    for workload, outputs in validate(size).items():
        assert outputs == expected[workload][family.size_key(size)]


def pytest_generate_tests(metafunc):
    if "size" in metafunc.fixturenames:
        metafunc.parametrize("size", SIZES, ids=family.size_key)


def write() -> None:
    import multiprocessing
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        results = pool.map(validate, SIZES, chunksize=1)
    table = {workload: {} for workload in family.GRIDS}
    for size, outputs in zip(SIZES, results):
        for workload, entry in outputs.items():
            table[workload][family.size_key(size)] = entry
    (HERE / "expected.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="validate every size and rewrite expected.json")
    parser.parse_args()
    write()
