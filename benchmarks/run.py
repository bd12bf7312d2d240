"""descoord benchmark: buffered-line instances driven through ``desc``.

    python3 benchmarks/run.py --workload supcc-line --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --report      # every workload, every metric

Each run executes one workload in a fresh child process whose address space
is capped (``RLIMIT_AS``), so a blow-up ends as a counted MemoryError rather
than exhausting the machine.  The child imports ``descoord`` from ``src/``
of this checkout, writes the instances as project files under
``.bench_work/``, calls the CLI entry point ``descoord.cli.main`` in-process
in a closed loop (one client, no threads), and gates every op against
``expected.json``.  Op times are CPU seconds scaled by the host's speed
at that moment, measured with a fixed reference kernel right before the op.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import family  # noqa: E402

# Address-space cap of the child.  The largest ek-search instance peaks near
# 0.6 GB resident; the cap leaves room for that and stops a runaway subset
# or label blow-up long before the machine runs out.
MEMORY_LIMIT = 3 << 30
SETUP_REPS = 7
# CPU time of two reference_kernel() calls on the host the benchmark was
# written on: op times are scaled to that speed.
KERNEL_REF_S = 0.02
# Traced runs fail when the layers' spans cover less of the op time.
MIN_COVERAGE = 0.9


@dataclass(frozen=True)
class Workload:
    spec: str          # "K" or "K∩L"
    ek: object         # event list or "auto"
    commands: tuple    # (verb, name) pairs, all run on each project
    pool: int          # projects per run, one per size stratum
    tail_pct: int      # the upper percentile reported as latency_p90_s


# A 25 s run gets through all or nearly all of the pool's distinct ops
# (projects times commands); tail_pct is the highest percentile with at
# least ten distinct ops beyond it.
WORKLOADS = {
    "supcc-line": Workload("K", family.EK, (("synth", "supcc"),), 112, 90),
    "supc-line": Workload("K", family.EK, (("synth", "supc"),), 40, 70),
    "check-line": Workload("K∩L", family.EK,
                           tuple(("check", c) for c in family.CHECKS), 14, 85),
    "ek-search": Workload("K∩L", "auto", (("check", "conddec"),), 32, 65),
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def child_timeout(seconds: int) -> int:
    """A traced run takes about twice --seconds plus its set-ups."""
    return 3 * seconds + 90


def reference_kernel() -> None:
    """Fixed pure-Python work that the library never runs: build, sort and
    drop a table of 15 000 string keys (dict, tuple and str churn, like the
    library's own loops)."""
    table = {}
    for i in range(15000):
        table[str(i)] = (i, i * i)
    sorted(table.items(), key=lambda kv: kv[1][1] % 1000)


def host_scale() -> float:
    """The factor that turns CPU seconds measured just now into seconds at
    the reference speed.  The host's speed drifts by up to 60% over tens of
    seconds (other tenants' load); the reference kernel drifts with it, so
    op time times this factor stays put while raw CPU time does not.  The
    collector is off during the kernel, so that its time does not depend
    on what the heap holds."""
    gc.disable()
    try:
        start = process_time()
        reference_kernel()
        reference_kernel()
        return KERNEL_REF_S / (process_time() - start)
    finally:
        gc.enable()


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def argv_for(verb: str, name: str, project: str) -> list[str]:
    if verb == "synth":
        return ["synth", name, "-p", project, "-o", "out", "--json"]
    return ["check", name, "-p", project, "--json"]


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def fresh_import():
    """Import ``descoord.cli`` from this checkout's ``src/``, discarding any
    earlier import so that each set-up pays the full import cost."""
    for name in [m for m in sys.modules
                 if m == "descoord" or m.startswith("descoord.")]:
        del sys.modules[name]
    cli = importlib.import_module("descoord.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"descoord imported from {cli.__file__}, "
                           f"not from {SRC}")
    return cli


class Runner:
    """Runs and gates ops in the current directory (the run's work dir)."""

    def __init__(self, workload: str, expected: dict):
        self.expected = expected[workload]
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, what: str, problem: str | None) -> None:
        """Count one gated op or check; remember the first failure."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{what}: {problem}"

    def run(self, main, size, project: str, verb: str,
            name: str) -> tuple[float, float]:
        """Run one op and gate its outputs; return its CPU time and the
        ``host_scale()`` measured right before it."""
        want = self.expected[family.size_key(size)][name]
        for stem in want.get("files", {}):
            Path("out", stem).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        # Start every op from a collected heap, so that no op pays for
        # garbage an earlier one left behind.
        gc.collect()
        scale = host_scale()
        argv = argv_for(verb, name, project)
        start = process_time()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except MemoryError:
            code = "MemoryError"
        except (Exception, SystemExit) as exc:  # counted, never fatal
            code = f"{type(exc).__name__}: {exc}"
        elapsed = process_time() - start
        problem = None
        if code != want["exit"]:
            problem = f"exit {code!r}, expected {want['exit']}"
        elif (hashlib.sha256(out.getvalue().encode()).hexdigest()
              != want["stdout"]):
            problem = "stdout differs from the expected verdict lines"
        else:
            for stem, digest in want.get("files", {}).items():
                if sha256_file(Path("out", stem)) != digest:
                    problem = f"{stem} differs from the expected bytes"
                    break
        if problem:
            problem += f" {err.getvalue()[-500:]}"
        self.record(f"{' '.join(argv)} [{family.size_key(size)}]", problem)
        return elapsed, scale


def schedule(wl: Workload, sizes: list, seed: int):
    """Endless closed-loop op sequence: cycles through the pool in the
    order ``family.draw_sizes`` gives and runs the workload's commands on
    each project in a seeded order."""
    rng = random.Random(seed)
    while True:
        for index, size in enumerate(sizes):
            for verb, name in rng.sample(wl.commands, len(wl.commands)):
                yield size, f"i{index}/project.json", verb, name


def smallest_ops(wl: Workload, sizes: list) -> list:
    """One op per command of the workload, on the pool's smallest project."""
    index = sizes.index(min(sizes, key=family.volume))
    return [(sizes[index], f"i{index}/project.json", verb, name)
            for verb, name in wl.commands]


def fresh_setup(wl: Workload, sizes: list, runner: Runner):
    """Import the library afresh and run one warm-up op on the smallest
    project; return the CLI module and the scaled CPU time.  The project
    files are written once before, by the benchmark's own code, which no
    library change can make slower or faster."""
    gc.collect()
    scale = host_scale()
    start = process_time()
    cli = fresh_import()
    import_s = (process_time() - start) * scale
    elapsed, scale = runner.run(cli.main, *smallest_ops(wl, sizes)[0])
    return cli, import_s + elapsed * scale


def measure(main, ops, runner: Runner, seconds: float):
    """Run ops until ``seconds`` have passed; returns the ops run, their
    scaled latencies and their scale factors."""
    done, latencies, scales = [], [], []
    deadline = perf_counter() + seconds
    for op in ops:
        if perf_counter() >= deadline:
            break
        elapsed, scale = runner.run(main, *op)
        latencies.append(elapsed * scale)
        scales.append(scale)
        done.append(op)
    return done, latencies, scales


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def set_up(wl: Workload, sizes: list, runner: Runner):
    """Write the pool's projects, then set up ``SETUP_REPS`` times; return
    the CLI module of the last set-up and the median set-up time."""
    for index, size in enumerate(sizes):
        family.write_project(Path(f"i{index}"), size, wl.spec, wl.ek)
    times = []
    for _ in range(SETUP_REPS):
        cli, elapsed = fresh_setup(wl, sizes, runner)
        times.append(elapsed)
    return cli, statistics.median(times)


def timed_run(args, wl: Workload, sizes: list, runner: Runner) -> dict:
    cli, setup_s = set_up(wl, sizes, runner)
    done, latencies, _ = measure(cli.main, schedule(wl, sizes, args.seed),
                                 runner, args.seconds)
    # Each distinct op (project and command) counts once, at the median of
    # its repetitions, so that the metrics describe the same op mix whether
    # a run got through the pool once or nearly twice.
    repeats = {}
    for op, latency in zip(done, latencies):
        repeats.setdefault(op, []).append(latency)
    per_op = [statistics.median(times) for times in repeats.values()]
    print(f"{args.workload}: {len(latencies)} timed ops, {len(per_op)} "
          f"distinct; latency percentiles p50 and p{wl.tail_pct} of the "
          f"distinct ops", file=sys.stderr)
    raw = {
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_s": statistics.median(per_op),
        "latency_p90_s": percentile(per_op, wl.tail_pct),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}


def traced_run(args, wl: Workload, sizes: list, runner: Runner) -> dict:
    """Audit the wrappers on one op per command, run ops traced for half
    of ``--seconds``, then replay the same ops untraced."""
    from layertrace import Tracer, per_layer_metrics
    cli, _ = set_up(wl, sizes, runner)
    tracer = Tracer()
    tracer.install()
    escaped = 0
    for op in smallest_ops(wl, sizes):
        missed = tracer.audit(lambda: runner.run(cli.main, *op))
        escaped += sum(missed.values())
        runner.record(f"wrapper audit of {op[3]}",
                      f"calls escaped the wrappers: {missed}"
                      if missed else None)
    done, traced, scales = measure(cli.main, schedule(wl, sizes, args.seed),
                                   runner, args.seconds / 2)
    tracer.uninstall()
    plain = [elapsed * scale
             for elapsed, scale in (runner.run(cli.main, *op) for op in done)]
    raw = per_layer_metrics(tracer.spans, scales, sum(traced),
                            (sum(traced) - sum(plain)) / len(done))
    raw["trace.escaped_calls"] = (escaped, "count")
    coverage = raw["trace.coverage"][0]
    runner.record("trace coverage",
                  f"spans cover {coverage:.3f} of op time, below "
                  f"{MIN_COVERAGE}" if coverage < MIN_COVERAGE else None)
    tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return raw


def child(args) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    sizes = family.draw_sizes(args.workload, args.seed, wl.pool)
    runner = Runner(args.workload, load_expected())
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        raw = (traced_run if args.trace else timed_run)(args, wl, sizes,
                                                         runner)
    except MemoryError:
        # Ops catch their own; this is set-up or the trace bookkeeping.
        runner.record(args.workload, "MemoryError outside the timed ops")
        raw = {}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.first_failure:
        print(f"first failed op: {runner.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=child_timeout(seconds),
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def report(seed: int, seconds: int) -> int:
    """Every workload, every metric by name and unit, and the gate."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result = run_child(workload, seed, seconds, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{workload:11} error: {exc}")
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            metrics = dict(result["metrics"])
            if not trace:
                metrics["failed_frac"] = {
                    "value": result["failed"] / result["attempted"],
                    "unit": "fraction"}
            for name, metric in metrics.items():
                print(f"{workload:11} {name:50} {metric['value']:14.6g} "
                      f"{metric['unit']}")
            print(f"{workload:11} gate: {result['attempted']} ops, "
                  f"{result['failed']} failed")
            ok = ok and result["correct"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload with and without tracing "
                             "and print every metric")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "descoord" / "__init__.py").is_file():
        print(f"error: no descoord sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    if args.workload is None and not args.report:
        parser.error("--workload or --report is required")
    try:
        if args.report:
            return report(args.seed, args.seconds)
        result = run_child(args.workload, args.seed, args.seconds,
                           args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
