"""The summary of tools/bench_pairs.py, on made-up runs, and its argument
checks: the script's benchmark runs themselves are not exercised here."""

import argparse
import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def run(workload, seed, side, p50, ops, failed=0, attempted=10):
    return {"workload": workload, "seed": seed, "side": side, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"latency_p50_s": {"value": p50, "unit": "s"},
                    "ops_per_s": {"value": ops, "unit": "1/s"}}}}


BETTER = {"ops_per_s": "higher", "latency_p50_s": "lower",
          "peak_rss_mb": "lower"}


def test_summary_counts_wins_by_each_metric_direction():
    runs = [run("w", 1, "parent", 4.0, 10.0), run("w", 1, "change", 3.0, 9.0),
            run("w", 2, "change", 2.0, 12.0), run("w", 2, "parent", 5.0, 11.0),
            run("w", 3, "parent", 6.0, 8.0), run("w", 3, "change", 6.0, 13.0,
                                                  failed=1)]
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["w"]
    assert summary["w"]["failed"] == {"parent": [0, 30], "change": [1, 30]}
    metrics = summary["w"]["metrics"]
    # No run has peak_rss_mb, so it is left out.
    assert list(metrics) == ["ops_per_s", "latency_p50_s"]
    p50 = metrics["latency_p50_s"]
    assert p50["parent"] == {"q1": 4.5, "median": 5.0, "q3": 5.5}
    assert p50["change"] == {"q1": 2.5, "median": 3.0, "q3": 4.5}
    # A tie (seed 3) is no win.
    assert p50["change_wins"] == 2
    assert p50["median_change"] == pytest.approx(3.0 / 5.0 - 1)
    ops = metrics["ops_per_s"]
    assert ops["change_wins"] == 2
    assert ops["median_change"] == pytest.approx(12.0 / 10.0 - 1)


def test_summary_keeps_workloads_apart_and_survives_a_failed_run():
    crashed = {"workload": "v", "seed": 1, "side": "change", "result": {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}}
    runs = [run("w", 1, "parent", 1.0, 1.0), run("w", 1, "change", 0.5, 2.0),
            run("v", 1, "parent", 1.0, 1.0), crashed,
            run("v", 2, "change", 0.5, 2.0), run("v", 2, "parent", 1.0, 1.0)]
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["w", "v"]
    assert summary["w"]["metrics"]["latency_p50_s"]["parent"] == {
        "q1": 1.0, "median": 1.0, "q3": 1.0}
    assert summary["v"]["failed"] == {"parent": [0, 20], "change": [1, 11]}
    # The pair with the crashed run counts for neither side.
    assert summary["v"]["metrics"]["ops_per_s"]["change_wins"] == 1


def test_pairs_are_parsed_as_inclusive_seed_ranges():
    assert bench_pairs.parse_pairs("check-line=11-20") == (
        "check-line", list(range(11, 21)))
    assert bench_pairs.parse_pairs("ek-search=3") == ("ek-search", [3])
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_pairs("check-line")


@pytest.mark.parametrize("argv, message", [
    (["--claim", "check-lines:latency_p50_s", "--pairs", "check-line=1"],
     "--claim: workload 'check-lines' is not in the plan"),
    (["--claim", "supc-line:latency_p50_s", "--pairs", "check-line=1"],
     "--claim: workload 'supc-line' is not in the plan"),
    (["--claim", "check-line:latency_p50", "--pairs", "check-line=1"],
     "--claim: 'latency_p50' is not an end-to-end metric of BENCHMARK.json"),
    (["--claim", "check-line", "--pairs", "check-line=1"],
     "--claim: '' is not an end-to-end metric of BENCHMARK.json"),
    (["--pairs", "check-lines=1"], "--pairs: unknown workload 'check-lines'"),
    (["--pairs", "check-line=1", "--seconds", "0"],
     "--seconds must be at least 1"),
])
def test_bad_arguments_exit_2_before_anything_runs(argv, message, tmp_path,
                                                    monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("nothing may be exported or run")

    monkeypatch.setattr(bench_pairs, "export", refuse)
    monkeypatch.setattr(bench_pairs, "run_side", refuse)
    out = tmp_path / "BENCH_x.json"
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--out", str(out),
                                     *argv])
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and message in errors[0], errors
    assert not out.exists()


def test_the_default_plan_and_a_declared_claim_pass_the_checks(
        tmp_path, monkeypatch):
    # The checks accept what BENCHMARK.json declares: the run reaches the
    # export, which stops it here.
    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    monkeypatch.setattr(bench_pairs, "export", stop)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--out", str(tmp_path / "BENCH_x.json"),
        "--claim", "check-line:latency_p50_s", "--seconds", "1"])
    with pytest.raises(Stop):
        bench_pairs.main()
