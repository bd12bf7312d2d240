"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_name.json \\
        --what "what the change does" --claim check-line:latency_p50_s

The parent revision is exported with ``git archive`` into a temporary
directory, so the worktree is never touched; the change side is the
checkout this script lives in, as it stands.  Each pair runs
``benchmarks/run.py --workload W --seed S --seconds T`` once on each side,
one process at a time, and the side that runs first alternates pair by
pair.  The output file holds, per workload, the first, second and third
quartile of each end-to-end metric on each side, the number of pairs the
change wins, the relative change of the medians and the failed and
attempted op counts, followed by every run's result.  It is rewritten
after each pair, so an interrupted session keeps the pairs it finished.
A workload or claim that BENCHMARK.json does not declare, and ``--seconds``
below 1, exit with status 2 before anything is exported or run.
Standard library only.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DEFAULT_PAIRS = ("check-line=11-20", "supcc-line=11-12", "supc-line=11-12",
                 "ek-search=11-12")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: each side's ``[failed, attempted]`` op counts and, for
    each metric in ``better`` (name to "higher" or "lower"), each side's
    quartiles, the number of pairs (runs of one workload and seed) in which
    the change is strictly better, and the relative change of the median,
    change over parent minus one."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_seed: dict[int, dict[str, dict]] = {}
        for run in mine:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
        failed = {side: [sum(run["result"]["failed"] for run in mine
                             if run["side"] == side),
                         sum(run["result"]["attempted"] for run in mine
                             if run["side"] == side)]
                  for side in SIDES}
        metrics = {}
        for name, direction in better.items():
            values = {side: [run["result"]["metrics"][name]["value"]
                             for run in mine if run["side"] == side
                             and name in run["result"]["metrics"]]
                      for side in SIDES}
            if not all(values.values()):
                continue
            wins = 0
            for pair in by_seed.values():
                if not all(name in pair.get(side, {}).get("metrics", {})
                           for side in SIDES):
                    continue
                parent, change = (pair[side]["metrics"][name]["value"]
                                  for side in SIDES)
                wins += (change > parent if direction == "higher"
                         else change < parent)
            medians = [statistics.median(values[side]) for side in SIDES]
            metrics[name] = {
                **{side: quartiles(values[side]) for side in SIDES},
                "change_wins": wins,
                "median_change": (medians[1] / medians[0] - 1
                                  if medians[0] else 0.0),
            }
        out[workload] = {"failed": failed, "metrics": metrics}
    return out


def parse_pairs(text: str) -> tuple[str, list[int]]:
    """``WORKLOAD=FIRST-LAST`` (or ``WORKLOAD=SEED``) to the seeds."""
    workload, _, seeds = text.partition("=")
    first, _, last = seeds.partition("-")
    try:
        return workload, list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD=FIRST-LAST, got {text!r}") from None


def export(rev: str, into: Path) -> str:
    """Extract revision ``rev`` of this repository into ``into``; returns
    its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return sha


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``benchmarks/run.py`` run in checkout ``root``; a run that fails
    counts as one failed op with no metrics."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of the parent side (HEAD)")
    parser.add_argument("--out", required=True, type=Path,
                        help="BENCH_*.json file to write")
    parser.add_argument("--what", default="",
                        help="one sentence on what the change does")
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--pairs", action="append", type=parse_pairs,
                        help="WORKLOAD=FIRST-LAST seeds, one pair per seed; "
                             "repeatable (default: "
                             + ", ".join(DEFAULT_PAIRS) + ")")
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    plan = args.pairs or [parse_pairs(text) for text in DEFAULT_PAIRS]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    better = {metric["name"]: metric["better"]
              for metric in declared["end_to_end"]}
    known = {workload["name"] for workload in declared["workloads"]}
    for workload, _ in plan:
        if workload not in known:
            parser.error(f"--pairs: unknown workload {workload!r}; "
                         f"BENCHMARK.json has {', '.join(sorted(known))}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    doc = {
        "what": args.what,
        "command": (f"python3 benchmarks/run.py --workload <workload> "
                    f"--seed <seed> --seconds {args.seconds} --trace 0"),
        "host": (f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                 f"{platform.python_version()}, one benchmark process at a "
                 f"time"),
        "pairs": "; ".join(f"{workload}: {len(seeds)} pairs, seeds "
                           f"{seeds[0]}..{seeds[-1]}"
                           for workload, seeds in plan)
                 + "; the side run first alternates pair by pair",
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in dict(plan):
            parser.error(f"--claim: workload {workload!r} is not in the plan")
        if metric not in better:
            parser.error(f"--claim: {metric!r} is not an end-to-end metric "
                         f"of BENCHMARK.json")
        doc["claim"] = {"workload": workload, "metric": metric}
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        doc["parent"] = export(args.parent, roots["parent"])
        index = 0
        for workload, seeds in plan:
            for seed in seeds:
                for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                    runs.append({"workload": workload, "seed": seed,
                                 "side": side, "result": run_side(
                                     roots[side], workload, seed,
                                     args.seconds)})
                index += 1
                doc["workloads"] = summarize(runs, better)
                doc["runs"] = runs
                args.out.write_text(json.dumps(doc, indent=1) + "\n",
                                    encoding="utf-8")
                print(f"{workload} seed {seed}: pair {index} done",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
