"""Command-line front end: parse generator/project files, run checks and
syntheses, emit reports and counterexamples in stable formats.

Exit codes: 0 when every requested check holds (or the synthesis
succeeded), 1 when a check failed and a counterexample was printed, 2 for
usage, parse or resolution errors.

File formats (JSON, UTF-8, no comments):

* generator file: ``name``, ``events`` (list of {name, controllable}),
  ``states``, ``initial``, optional ``marked`` (ignored with a warning
  under the prefix-closed convention), ``transitions`` (list of
  [source, event, target] triples).  A ``recognizes_empty_language`` flag
  marks the generator of the empty language.
* project file: ``generators`` (list of file paths or inline generator
  objects) and ``coordination``: {g1, g2, gk (name or "auto"), spec,
  ek (event list or "auto")}.

All output is deterministic: state names are canonical (``q0``, ``q1``,
...), sets are sorted, counterexamples are shortest-then-lexicographic.
"""

import argparse
import gc
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from types import MappingProxyType

from .automata import (
    Alphabet,
    Generator,
    PropertyReport,
    _canonicalize,
    _validated,
    empty_generator,
    format_word,
    reachable_events,
    shortest_words,
    union_alphabets,
)
from .coordination import (
    check_optimality_conditions,
    conditionally_decomposable,
    conditionally_independent,
    default_coordinator,
    is_conditionally_controllable,
    observer_occ_reports,
    suggest_coordinator_events,
    sup_cc,
    synthesize_supervisors,
)
from .errors import DescoordError, PreconditionError, ProjectError
from .language import (
    CoordinationScheme,
    project as project_generator,
    sync_product,
)
from .oracle import (
    bounded_language,
    bounded_projection,
    brute_product,
    brute_sup_c,
)
from .synthesis import is_controllable, sup_c

CHECKS = ("controllability", "conddec", "condindep", "condctrl", "observer",
          "occ", "optimality")
SYNTH_MODES = ("supc", "supcc", "supervisors")
ORACLES = ("controllability", "conddec", "supc", "supcc")


# ---------------------------------------------------------------------------
# generator file format

def generator_to_text(g: Generator, name: str) -> str:
    """The generator file of ``g``: states are renamed to dense ``q<i>`` ids
    so isomorphic automata serialize to identical bytes.  The text is that
    of ``json.dumps(doc, indent=2) + "\\n"`` for the document with keys
    ``name``, ``events``, ``states``, ``initial``, ``transitions`` and, for
    the empty language only, ``recognizes_empty_language``; it is built
    directly, because ``json`` encodes with ``indent`` in pure Python.
    Names are quoted by ``json.dumps``, once each; ``q<i>`` needs no
    escaping."""
    quoted = {event: json.dumps(event) for event in g.alphabet.sorted_events}
    states = [f'"q{i}"' for i in range(g.num_states)]
    events = [
        f'    {{\n      "name": {text},\n      "controllable": '
        f'{"true" if event in g.alphabet.controllable else "false"}\n    }}'
        for event, text in quoted.items()
    ]
    transitions = [
        f"    [\n      {states[src]},\n      {quoted[event]},\n"
        f"      {states[dst]}\n    ]"
        for src, row in enumerate(g.rows) for event, dst in row.items()
    ]

    def block(items: list[str]) -> str:
        return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"

    fields = [
        f'"name": {json.dumps(name)}',
        f'"events": {block(events)}',
        f'"states": {block(["    " + state for state in states])}',
        f'"initial": {states[0]}',
        f'"transitions": {block(transitions)}',
    ]
    if g.recognizes_empty_language:
        fields.append('"recognizes_empty_language": true')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _strings(value) -> bool:
    return isinstance(value, tuple) and all(isinstance(v, str) for v in value)


def parse_generator(doc: dict, origin: str = "<inline>") -> tuple[str, Generator]:
    """Check the shape of a generator document, then build the generator.
    Every error is a ``ProjectError`` whose message starts with ``origin``."""
    name, entry = _validate_generator(doc, origin)
    return name, _canonicalize(*entry) if type(entry) is tuple else entry


def _validate_generator(doc: dict, origin: str):
    """``parse_generator`` without the build: the name, and the generator
    of the empty language or else the arguments of ``_canonicalize``."""
    def fail(msg: str):
        raise ProjectError(f"{origin}: {msg}")

    if not isinstance(doc, dict):
        fail("generator must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        fail("missing or invalid 'name'")
    events = doc.get("events")
    if not isinstance(events, list):
        fail("missing or invalid 'events'")
    if not all(isinstance(entry, dict) and isinstance(entry.get("name"), str)
               and isinstance(entry.get("controllable"), bool)
               for entry in events):
        fail("each event needs a string 'name' and boolean 'controllable'")
    names = [entry["name"] for entry in events]
    if len(set(names)) != len(names):
        fail("duplicate event names")
    empty = doc.get("recognizes_empty_language", False)
    if not isinstance(empty, bool):
        fail("'recognizes_empty_language' must be a boolean")
    states = doc.get("states")
    initial = doc.get("initial")
    transitions = doc.get("transitions", [])
    if not empty:
        if not isinstance(states, list) or not isinstance(initial, str):
            fail("'states' must be a list of names and 'initial' a name")
        # _validated checks each state name and each triple.
        if not isinstance(transitions, list):
            fail("'transitions' must be [source, event, target] triples")
    if "marked" in doc:
        print(f"warning: {origin}: 'marked' ignored "
              f"(prefix-closed convention)", file=sys.stderr)
    try:
        alphabet = Alphabet(frozenset(names), frozenset(
            entry["name"] for entry in events if entry["controllable"]))
        if empty:
            return name, empty_generator(alphabet)
        return name, (alphabet, *_validated(states, alphabet, transitions,
                                            initial))
    except DescoordError as exc:
        raise ProjectError(f"{origin}: {exc}") from exc


# ---------------------------------------------------------------------------
# project file

class _Generators(Mapping):
    """A project's generators by name, read-only, each validated at load and
    built on its first lookup, which caches it and drops its validated rows."""

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, name: str) -> Generator:
        entry = self._entries[name]
        if type(entry) is tuple:
            entry = self._entries[name] = _canonicalize(*entry)
        return entry

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def alphabet(self, name: str) -> Alphabet:
        entry = self._entries[name]
        return entry[0] if type(entry) is tuple else entry.alphabet


@dataclass(frozen=True)
class ProjectFile:
    generators: Mapping[str, Generator]
    coordination: MappingProxyType[str, object] | None


def _read_json(path: Path):
    try:
        # ValueError: bytes that are not UTF-8, or a NUL in the path.
        raw = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ProjectError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProjectError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ProjectError(f"{path}: JSON nested too deeply") from exc


def load_project(path: str) -> ProjectFile:
    origin = Path(path)
    doc = _read_json(origin)
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"),
                                                   list):
        raise ProjectError(f"{path}: project needs a 'generators' list")
    generators = {}
    for entry in doc["generators"]:
        if isinstance(entry, str):
            gen_path = origin.parent / entry
            name, g = _validate_generator(_read_json(gen_path), str(gen_path))
        else:
            name, g = _validate_generator(entry, f"{path} (inline)")
        if name in generators:
            raise ProjectError(f"{path}: duplicate generator name {name!r}")
        generators[name] = g
    coordination = doc.get("coordination")
    if coordination is not None:
        if not isinstance(coordination, dict):
            raise ProjectError(f"{path}: 'coordination' must be an object")
        if isinstance(coordination.get("ek"), list):
            coordination["ek"] = tuple(coordination["ek"])
        coordination = MappingProxyType(coordination)
    return ProjectFile(_Generators(generators), coordination)


def _lookup(project: ProjectFile, name: str, build: bool = True):
    """Generator ``name``, or with ``build`` false its alphabet, which is
    read without building the generator."""
    generators = project.generators
    if name not in generators:
        raise ProjectError(f"unknown generator name {name!r}")
    return generators[name] if build else generators.alphabet(name)


def resolve_coordination(project: ProjectFile):
    """Returns (K, G1, G2, Gk, scheme) from the project's coordination
    block, building the coordinator when it is declared "auto"."""
    return _resolve(project)[:5]


def _resolve(project: ProjectFile, spec: bool = True):
    """``resolve_coordination`` plus the conditional-decomposability report
    of K under the chosen E_k when the coordinator-event search decided it
    (``"ek": "auto"``), else None.  With ``spec`` false, K is None unless
    the search built it."""
    block = project.coordination
    if block is None:
        raise ProjectError("project has no 'coordination' block")
    for key in ("g1", "g2", "spec"):
        if key not in block:
            raise ProjectError(f"coordination block is missing {key!r}")
    gk_field = block.get("gk", "auto")
    ek_field = block.get("ek", "auto")
    if not all(isinstance(name, str) for name in
               (block["g1"], block["g2"], block["spec"], gk_field)):
        raise ProjectError("coordination 'g1', 'g2', 'gk' and 'spec' must be "
                           "generator names")
    if ek_field != "auto" and not _strings(ek_field):
        raise ProjectError("coordination 'ek' must be \"auto\" or a list of "
                           "event names")
    g1 = _lookup(project, block["g1"])
    g2 = _lookup(project, block["g2"])
    k_alphabet = _lookup(project, block["spec"], build=False)
    k = _lookup(project, block["spec"]) if spec else None
    decomposable = None

    if gk_field == "auto":
        if ek_field == "auto":
            k = _lookup(project, block["spec"])
            ek, decomposable = suggest_coordinator_events(k, g1, g2)
        else:
            pool = union_alphabets(g1.alphabet, g2.alphabet, k_alphabet)
            unknown = set(ek_field) - pool.events
            if unknown:
                raise ProjectError(
                    f"ek lists unknown events: {sorted(unknown)}"
                )
            ek = pool.restrict(ek_field)
        # An E_k that leaves out a reachable shared event is an error in
        # the project, not a failed check, so it exits 2, not 1.
        try:
            gk = default_coordinator(g1, g2, ek)
        except PreconditionError as exc:
            raise ProjectError(str(exc)) from exc
    else:
        gk = _lookup(project, gk_field)
        ek = gk.alphabet
        if ek_field != "auto" and set(ek_field) != set(ek.events):
            raise ProjectError(
                "ek does not match the named coordinator's alphabet"
            )
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, ek)
    if k_alphabet != scheme.full:
        raise ProjectError(
            "the specification alphabet must equal E_1 ∪ E_2 ∪ E_k"
        )
    return k, g1, g2, gk, scheme, decomposable


# ---------------------------------------------------------------------------
# report output

def _emit(json_mode: bool, text: str, record: dict) -> None:
    """The one stdout printer: ``record`` as one JSON line with sorted keys
    under ``--json``, else ``text``."""
    print(json.dumps(record, sort_keys=True) if json_mode else text)


def emit_report(name: str, report: PropertyReport, json_mode: bool) -> None:
    word = report.counterexample
    _emit(json_mode,
          f"[PASS] {name}: {report.detail}" if report.holds else
          f"[FAIL] {name}: counterexample={format_word(word)} "
          f"({report.detail})",
          {"check": name, "holds": report.holds,
           "counterexample": None if word is None else list(word),
           "detail": report.detail})


# ---------------------------------------------------------------------------
# oracle cross-checks (--oracle-bound)

def _oracle_note(what: str, oracle: str, bound: int, consistent: bool,
                 json_mode: bool) -> bool:
    """Print the oracle's verdict on ``what`` and return ``consistent``."""
    text = f"[ORACLE] {what}: {'consistent' if consistent else 'MISMATCH'}"
    _emit(json_mode, text, {"note": text, "oracle": oracle, "bound": bound,
                            "consistent": consistent})
    return consistent


def _agrees(report: PropertyReport, bound: int, violated: bool) -> bool:
    """Does a check's report agree with the oracle, which ``violated`` the
    property within ``bound``?  A counterexample longer than the bound is
    out of the oracle's sight."""
    if report.holds:
        return not violated
    return len(report.counterexample) > bound or violated


def _oracle_controllability(k, plant, report, bound, json_mode) -> bool:
    kw = bounded_language(k, bound)
    lw = bounded_language(plant, bound)
    eu = k.alphabet.uncontrollable
    violated = any(word + (event,) in lw and word + (event,) not in kw
                   for word in kw for event in eu)
    consistent = _agrees(report, bound, violated)
    return _oracle_note(f"controllability at bound {bound}",
                        "controllability", bound, consistent, json_mode)


def _oracle_conddec(k, scheme, report, bound, json_mode) -> bool:
    kw = bounded_language(k, bound)
    p1k, p2k, pk = (bounded_projection(k, alphabet.events, bound)
                    for alphabet in (scheme.e1k, scheme.e2k, scheme.ek))
    composed = brute_product(
        brute_product(p1k, scheme.e1k.events, p2k, scheme.e2k.events, bound),
        scheme.e1k.events | scheme.e2k.events, pk, scheme.ek.events, bound,
    )
    consistent = _agrees(report, bound, composed != kw)
    return _oracle_note(f"conditional decomposability at bound {bound}",
                        "conddec", bound, consistent, json_mode)


# ---------------------------------------------------------------------------
# commands

def cmd_check(args) -> int:
    if args.oracle_bound is not None and args.which not in ORACLES:
        raise DescoordError(f"check {args.which} has no oracle to bound")
    project = load_project(args.project)
    # observer, occ, condindep and optimality are conditions on the plant.
    k, g1, g2, gk, scheme, decomposable = _resolve(
        project, args.which in ("controllability", "conddec", "condctrl"))
    reports: list[tuple[str, PropertyReport]] = []
    oracle = None  # the cross-check of a check in ORACLES

    if args.which == "controllability":
        plant = sync_product(sync_product(g1, g2), gk)
        report = is_controllable(k, plant)
        reports.append(("controllability", report))
        oracle = lambda: _oracle_controllability(
            k, plant, report, args.oracle_bound, args.json)
    elif args.which == "conddec":
        report = (conditionally_decomposable(k, scheme)
                  if decomposable is None else decomposable)
        reports.append(("conditional decomposability", report))
        oracle = lambda: _oracle_conddec(
            k, scheme, report, args.oracle_bound, args.json)
    elif args.which == "condindep":
        reports.append(("conditional independence",
                        conditionally_independent(g1, g2, gk)))
    elif args.which == "condctrl":
        full = is_conditionally_controllable(k, g1, g2, gk)
        reports.append(("condition (i)", full.condition_i))
        reports.append(("condition (ii.a)", full.condition_iia))
        reports.append(("condition (ii.b)", full.condition_iib))
    elif args.which in ("observer", "occ"):
        reports.extend(observer_occ_reports(g1, g2, gk.alphabet,
                                            (args.which,)))
    elif args.which == "optimality":
        reports.append(("optimality conditions",
                        check_optimality_conditions(g1, g2, gk)))

    for name, report in reports:
        emit_report(name, report, args.json)
    ok = ((args.oracle_bound is None or oracle())
          and all(report.holds for _, report in reports))
    return 0 if ok else 1


def _write_generator(path, name: str, g: Generator, json_mode: bool) -> None:
    """Write ``g`` to ``path`` as generator ``name`` and say so."""
    Path(path).write_text(generator_to_text(g, name), encoding="utf-8")
    _emit(json_mode, f"wrote {path} ({g.num_states} states, "
                     f"{g.num_transitions} transitions)",
          {"artifact": name, "path": str(path), "states": g.num_states,
           "transitions": g.num_transitions,
           "empty_language": g.recognizes_empty_language})


def cmd_synth(args) -> int:
    if args.oracle_bound is not None and args.mode not in ORACLES:
        raise DescoordError(f"synth {args.mode} has no oracle to bound")
    if args.force and args.mode != "supcc":
        raise DescoordError(f"synth {args.mode} does not take --force")
    project = load_project(args.project)
    k, g1, g2, gk, scheme = resolve_coordination(project)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    oracle_ok = True

    if args.mode == "supc":
        plant = sync_product(sync_product(g1, g2), gk)
        result = sup_c(k, plant)
        _write_generator(out / "supc.json", "supc", result, args.json)
        if args.oracle_bound is not None:
            bound = args.oracle_bound
            eu = scheme.full.uncontrollable
            kw = bounded_language(k, bound)
            lw = bounded_language(plant, bound + 1)
            low = brute_sup_c(kw, lw, eu, bound)
            high = brute_sup_c(kw, {w for w in lw if len(w) <= bound}, eu,
                               bound)
            got = bounded_language(result, bound)
            oracle_ok = _oracle_note(f"supC at bound {bound}", "supc", bound,
                                     low <= got <= high, args.json)
    elif args.mode == "supcc":
        result = sup_cc(k, g1, g2, gk, force=args.force)
        for stem in ("sup_k", "sup_1k", "sup_2k", "composed"):
            _write_generator(out / f"{stem}.json", stem,
                             getattr(result, stem), args.json)
        text = f"certified supremal: {'yes' if result.certified else 'no'}"
        _emit(args.json, text, {"note": text, "certified": result.certified})
        if args.oracle_bound is not None:
            bound = args.oracle_bound
            left = brute_product(
                bounded_language(result.sup_k, bound),
                scheme.ek.events,
                bounded_language(result.sup_1k, bound),
                scheme.e1k.events, bound)
            composed_w = brute_product(
                left, scheme.ek.events | scheme.e1k.events,
                bounded_language(result.sup_2k, bound),
                scheme.e2k.events, bound)
            oracle_ok = _oracle_note(
                f"composition at bound {bound}", "composition", bound,
                composed_w == bounded_language(result.composed, bound),
                args.json)
    else:  # supervisors
        supervisors = synthesize_supervisors(k, g1, g2, gk)
        for stem, g in zip(("s_k", "s_1", "s_2"), supervisors):
            _write_generator(out / f"{stem}.json", stem, g, args.json)
    return 0 if oracle_ok else 1


def cmd_compose(args) -> int:
    project = load_project(args.project)
    parts = [_lookup(project, name) for name in args.names]
    _write_generator(args.out, "+".join(args.names),
                     reduce(sync_product, parts), args.json)
    return 0


def cmd_project(args) -> int:
    project = load_project(args.project)
    g = _lookup(project, args.name)
    _write_generator(args.out, args.name, project_generator(g, args.events),
                     args.json)
    return 0


def cmd_info(args) -> int:
    project = load_project(args.project)
    g = _lookup(project, args.name)
    events = [
        {"name": e, "controllable": e in g.alphabet.controllable}
        for e in g.alphabet.sorted_events
    ]
    samples = [format_word(w) for w in shortest_words(g, 5)]
    reachable = sorted(reachable_events(g))
    flags = ", ".join(f"{e['name']}{'' if e['controllable'] else ' (u)'}"
                      for e in events)
    _emit(args.json,
          f"generator {args.name}: {g.num_states} states, "
          f"{g.num_transitions} transitions\n  events: {flags}\n"
          f"  reachable events: {', '.join(reachable) or '(none)'}\n"
          + ("  language: empty" if g.recognizes_empty_language
             else f"  sample words: {', '.join(samples)}"),
          {"name": args.name, "events": events,
           "reachable_events": reachable, "states": g.num_states,
           "transitions": g.num_transitions,
           "empty_language": g.recognizes_empty_language,
           "sample_words": samples})
    return 0


def _bound(text: str) -> int:
    """argparse type of ``--oracle-bound``: a word length, so not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desc",
        description="Supervisory control synthesis for modular "
                    "discrete-event systems with a coordinator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("-p", "--project", required=True,
                       help="project file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable one-line JSON records")
        return p

    p_check = command("check", cmd_check, "run a property check")
    p_check.add_argument("which", choices=CHECKS)
    p_check.add_argument("--oracle-bound", type=_bound, default=None,
                         help="also verify against the brute-force oracle "
                              "at this word-length bound")

    p_synth = command("synth", cmd_synth, "run a synthesis")
    p_synth.add_argument("mode", choices=SYNTH_MODES)
    p_synth.add_argument("-o", "--out", required=True,
                         help="output directory for result generators")
    p_synth.add_argument("--force", action="store_true",
                         help="supcc only: compute even when observer/OCC "
                              "preconditions fail (result marked uncertified)")
    p_synth.add_argument("--oracle-bound", type=_bound, default=None,
                         help="supc and supcc only: also verify against "
                              "the brute-force oracle at this bound")

    p_compose = command("compose", cmd_compose,
                        "synchronous product of named generators")
    p_compose.add_argument("-o", "--out", required=True,
                           help="output generator file")
    p_compose.add_argument("names", nargs="+")

    p_project = command("project", cmd_project,
                        "natural projection of a generator")
    p_project.add_argument("-o", "--out", required=True,
                           help="output generator file")
    p_project.add_argument("name")
    p_project.add_argument("events", nargs="+")

    p_info = command("info", cmd_info, "describe a named generator")
    p_info.add_argument("name")

    return parser


def main(argv=None) -> int:
    # No command makes a reference cycle, so the cyclic collector would
    # only cost time: it is paused for the command, then left as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except PreconditionError as exc:
        emit_report(f"precondition: {exc}", exc.report, args.json)
        return 1
    except (DescoordError, OSError) as exc:
        # OSError: an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
