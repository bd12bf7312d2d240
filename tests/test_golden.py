"""Byte-identity gate: digests of what the coordination layer produces on
seeded random instances, recorded in ``golden_digests.json``.

For each instance (``helpers.mixed_instance``, seeds 0..COUNT-1) the test
hashes (the first 16 hex digits of SHA-256), part by part, the
conditional-decomposability report, the written text of the three
projections of K, the suggested coordinator events, and the outcome of
``sup_cc`` (with and without ``force``) and of ``synthesize_supervisors``:
the written generators, or the precondition error with its report.  Further
parts hash the observer/OCC reports, the conditional-controllability
report, the optimality report and the outcome of ``sup_c`` of K against
the whole plant.
Re-record, only when a change of output is intended, with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from descoord import (
    DescoordError,
    check_optimality_conditions,
    conditionally_decomposable,
    format_word,
    is_conditionally_controllable,
    observer_occ_reports,
    project,
    sup_c,
    suggest_coordinator_events,
    sup_cc,
    sync_product,
    synthesize_supervisors,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import generator_to_text, mixed_instance  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
COUNT = 300


def report_text(report) -> str:
    word = report.counterexample
    return (f"{report.holds}|{None if word is None else format_word(word)}"
            f"|{report.detail}")


def error_text(exc: DescoordError) -> str:
    report = getattr(exc, "report", None)
    return (f"{type(exc).__name__}: {exc}"
            f"|{'' if report is None else report_text(report)}")


def outcome(build) -> str:
    """The text ``build()`` returns, or the error it raises."""
    try:
        return build()
    except DescoordError as exc:
        return error_text(exc)


def written(*named) -> str:
    return "".join(generator_to_text(g, name) for name, g in named)


def parts(seed: int) -> dict[str, str]:
    k, g1, g2, gk, scheme = mixed_instance(random.Random(seed))

    def supcc(force):
        result = sup_cc(k, g1, g2, gk, force=force)
        return written(("sup_k", result.sup_k), ("sup_1k", result.sup_1k),
                       ("sup_2k", result.sup_2k),
                       ("composed", result.composed)) \
            + f"certified: {result.certified}"

    def suggest():
        ek, _ = suggest_coordinator_events(k, g1, g2)
        return f"{sorted(ek.events)}|{sorted(ek.controllable)}"

    def condctrl():
        report = is_conditionally_controllable(k, g1, g2, gk)
        return "\n".join(map(report_text, (report.condition_i,
                                           report.condition_iia,
                                           report.condition_iib)))

    def supc():
        plant = sync_product(sync_product(g1, g2), gk)
        return written(("sup_c", sup_c(k, plant)))

    return {
        "conddec": report_text(conditionally_decomposable(k, scheme)),
        "project": written(*((name, project(k, target.events))
                             for name, target in (("pk", scheme.ek),
                                                  ("p1k", scheme.e1k),
                                                  ("p2k", scheme.e2k)))),
        "suggest": outcome(suggest),
        "sup_cc": outcome(lambda: supcc(False)),
        "sup_cc_forced": outcome(lambda: supcc(True)),
        "supervisors": outcome(lambda: written(*zip(
            ("s_k", "s_1", "s_2"), synthesize_supervisors(k, g1, g2, gk)))),
        "observer_occ": "\n".join(
            f"{name}: {report_text(report)}"
            for name, report in observer_occ_reports(g1, g2, scheme.ek)),
        "condctrl": outcome(condctrl),
        "optimality": outcome(lambda: report_text(
            check_optimality_conditions(g1, g2, gk))),
        "sup_c": outcome(supc),
    }


def digests() -> list[dict[str, str]]:
    return [{part: hashlib.sha256(text.encode()).hexdigest()[:16]
             for part, text in parts(seed).items()}
            for seed in range(COUNT)]


def test_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text("utf-8"))
    assert len(recorded) == COUNT
    changed = [(seed, part) for seed, (now, then)
               in enumerate(zip(digests(), recorded))
               for part in then if now[part] != then[part]]
    assert not changed, f"outputs differ from the recorded digests: " \
                        f"{changed[:10]} ({len(changed)} in all)"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(digests(), indent=0) + "\n",
                       encoding="utf-8")
