"""Command-line front end: parse generator/project files, run checks and
syntheses, emit reports and counterexamples in stable formats.

Exit codes: 0 when every requested check holds (or the synthesis
succeeded), 1 when a check failed and a counterexample was printed, 2 for
usage, parse or resolution errors and when the host runs out of memory.

File formats (JSON, UTF-8, no comments):

* generator file: ``name``, ``events`` (list of {name, controllable}),
  ``states``, ``initial``, optional ``marked`` (ignored with a warning
  under the prefix-closed convention), ``transitions`` (list of
  [source, event, target] triples).  A ``recognizes_empty_language`` flag
  exempts no field from validation: a valid document with it is read as
  the empty language, and its states and transitions are discarded.
* project file: ``generators`` (list of file paths or inline generator
  objects) and ``coordination``: {g1, g2, spec, gk (name or "auto"),
  ek (event list or "auto")}.  A left-out ``gk`` or ``ek`` is "auto".
  As "auto" always means the default coordinator, a block that writes
  ``"gk": "auto"`` in a project with a generator named ``auto`` is an
  error.

A key that its document, event entry or block does not list, or a key
repeated within one JSON object, is a parse error (exit 2).

All output is deterministic: state names are canonical (``q0``, ``q1``,
...), sets are sorted, counterexamples are shortest-then-lexicographic.
"""

import argparse
import gc
import io
import json
import sys
from functools import cache, partial, reduce
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .automata import (
    Alphabet,
    Generator,
    PropertyReport,
    _Record,
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
    _plant,
    project as project_generator,
    sync_product,
)
from .synthesis import is_controllable, sup_c

CHECKS = ("controllability", "conddec", "condindep", "condctrl", "observer",
          "occ", "optimality")
SYNTH_MODES = ("supc", "supcc", "supervisors")
ORACLES = ("controllability", "conddec", "supc", "supcc")


# ---------------------------------------------------------------------------
# generator file format

def write_generator_text(g: Generator, name: str, write) -> None:
    """Pass the generator file of ``g`` to ``write`` in pieces: states are
    named by ``g.labels``, dense ``q<i>`` ids, so isomorphic automata
    serialize to identical bytes.  The pieces joined are the text of
    ``json.dumps(doc, indent=2) + "\\n"`` for the document with keys
    ``name``, ``events``, ``states``, ``initial``, ``transitions`` and, for
    the empty language only, ``recognizes_empty_language``; it is built
    directly, because ``json`` encodes with ``indent`` in pure Python.
    Event names are quoted by ``json.dumps``, once each; ``q<i>`` needs no
    escaping.  The pieces are the head, the transitions of each run of
    1024 states, joined once per run, and the tail, so no text of the
    file's size is ever built; a run without transitions writes nothing."""
    quoted = {event: json.dumps(event) for event in g.alphabet.sorted_events}
    labels, rows = g.labels, g.rows
    events = ",\n".join(
        f'    {{\n      "name": {text},\n      "controllable": '
        f'{"true" if event in g.alphabet.controllable else "false"}\n    }}'
        for event, text in quoted.items())
    events = f"[\n{events}\n  ]" if events else "[]"
    states = '[\n    "' + '",\n    "'.join(labels) + '"\n  ]'
    write(f'{{\n  "name": {json.dumps(name)},\n  "events": {events},\n'
          f'  "states": {states},\n  "initial": "q0",\n'
          f'  "transitions": [')
    # Each transition carries the comma before it; the first one's is cut,
    # and ``cut`` is 0 once a run is written.
    cut = 1
    for start in range(0, len(rows), 1024):
        run = "".join([f',\n    [\n      "{labels[src]}",\n      '
                       f'{quoted[event]},\n      "{labels[dst]}"\n    ]'
                       for src, row in enumerate(rows[start:start + 1024],
                                                 start)
                       for event, dst in row.items()])
        if run:
            write(run[cut:])
            cut = 0
    write(("]" if cut else "\n  ]")
          + ("\n}\n" if not g.recognizes_empty_language
             else ',\n  "recognizes_empty_language": true\n}\n'))


def _is_text(name: str) -> bool:
    """Whether ``name`` encodes as UTF-8, so that a strict UTF-8 stdout can
    print it: a lone surrogate such as "\\ud800", read from JSON or made
    from an undecodable byte of a command-line argument, cannot."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_generator(doc: dict, origin: str = "<inline>") -> tuple[str, Generator]:
    """Check the shape of a generator document, then build the generator.
    Every error is a ``ProjectError`` whose message starts with ``origin``."""
    name, _, build = _validate_generator(doc, origin)
    return name, build()


def _validate_generator(doc: dict, origin: str):
    """``parse_generator`` up to the build: the name, the alphabet, and the
    call without arguments that builds the generator and cannot fail."""
    def fail(msg: str):
        raise ProjectError(f"{origin}: {msg}")

    if not isinstance(doc, dict):
        fail("generator must be a JSON object")
    if unknown := doc.keys() - {"name", "events", "states", "initial",
                                "transitions", "marked",
                                "recognizes_empty_language"}:
        fail(f"unknown generator keys: {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        fail("missing or invalid 'name'")
    if not _is_text(name):
        fail(f"generator name {name!r} is not valid Unicode text")
    events = doc.get("events")
    if not isinstance(events, list):
        fail("missing or invalid 'events'")
    if not all(isinstance(entry, dict) and isinstance(entry.get("name"), str)
               and isinstance(entry.get("controllable"), bool)
               for entry in events):
        fail("each event needs a string 'name' and boolean 'controllable'")
    if unknown := set().union(*events) - {"name", "controllable"}:
        fail(f"unknown event keys: {sorted(unknown)}")
    names = [entry["name"] for entry in events]
    for event in names:
        if not _is_text(event):
            fail(f"event name {event!r} is not valid Unicode text")
    if len(set(names)) != len(names):
        fail("duplicate event names")
    empty = doc.get("recognizes_empty_language", False)
    if not isinstance(empty, bool):
        fail("'recognizes_empty_language' must be a boolean")
    states = doc.get("states")
    initial = doc.get("initial")
    transitions = doc.get("transitions", [])
    if not isinstance(states, list) or not isinstance(initial, str):
        fail("'states' must be a list of names and 'initial' a name")
    # _validated checks each state name and each triple.
    if not isinstance(transitions, list):
        fail("'transitions' must be [source, event, target] triples")
    if "marked" in doc:
        _warn_marked(origin)
    try:
        alphabet = Alphabet(frozenset(names), frozenset(
            entry["name"] for entry in events if entry["controllable"]))
        rows, start = _validated(states, alphabet, transitions, initial)
    except DescoordError as exc:
        raise ProjectError(f"{origin}: {exc}") from exc
    return name, alphabet, (partial(empty_generator, alphabet) if empty else
                            partial(_canonicalize, alphabet, rows, start))


def _warn_marked(origin: str) -> None:
    print(f"warning: {origin}: 'marked' ignored (prefix-closed convention)",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# project file

class Coordination(NamedTuple):
    """A coordination block as read, one field per key: ``gk`` is None when
    E_k builds the coordinator, ``ek`` when the search chooses E_k."""
    g1: str
    g2: str
    spec: str
    gk: str | None
    ek: Alphabet | None


class ProjectFile(_Record):
    def __init__(self, generators: MappingProxyType[str, Generator],
                 coordination: Coordination | None):
        self._set(generators, coordination)


def _object(path: Path, pairs: list) -> dict:
    """A JSON object from ``pairs``; a repeated key is a ``ProjectError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProjectError(f"{path}: invalid JSON: key {key!r} is "
                               f"repeated in an object")
        obj[key] = value
    return obj


def _read_json(path: Path, files: list):
    """The JSON document in the file at ``path``; appends the path and the
    hash of the file's bytes to ``files``."""
    try:
        raw = path.read_bytes()
        # As read_text decodes: strict UTF-8, universal newlines.
        # ValueError: bytes that are not UTF-8, or a NUL in the path.
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except (OSError, ValueError) as exc:
        raise ProjectError(f"cannot read {path}: {exc}") from exc
    files.append((path, hash(raw)))
    try:
        return json.loads(text, object_pairs_hook=partial(_object, path))
    except json.JSONDecodeError as exc:
        raise ProjectError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ProjectError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # Not a JSONDecodeError: an integer literal too long to convert.
        raise ProjectError(
            f"{path}: invalid JSON: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits") from exc


class _Loaded(NamedTuple):
    """The last project ``load_project`` returned, and what it was read
    from: the path and parser limits, each file read with the hash of its
    bytes, in read order, and the origins that warned of 'marked'."""
    key: tuple
    files: list
    marked: list
    project: ProjectFile


_last: _Loaded | None = None


def _hashed(path: Path) -> int | None:
    try:
        return hash(path.read_bytes())
    except OSError:
        return None


def load_project(path: str) -> ProjectFile:
    """Read the project at ``path`` and check all of it, whatever the
    command: every generator in file order, then the coordination block.
    Only then, with the parsed documents let go, is each generator built,
    so a project that fails to load builds nothing.

    The last project returned is kept, and no other, for a program that
    runs several commands through ``main`` in one process.  The next call
    on the same ``path`` string, under the same recursion and integer-digit
    limits (JSON parsing depends on both), re-reads every file that load
    read; when each has the hash it had (the interpreter's 64-bit hash of
    its bytes, never its size or time), it prints the same warnings and
    returns the same project, its generators already built.  At the first
    difference, or at a file it cannot read, it drops the kept project and
    reads afresh, so every error keeps its text and its order."""
    global _last
    key = (path, sys.getrecursionlimit(), sys.get_int_max_str_digits())
    # Each call compares the files itself; the project is never changed.
    last = _last
    if last is not None and last.key == key and all(
            _hashed(file) == hashed for file, hashed in last.files):
        for where in last.marked:
            _warn_marked(where)
        return last.project
    last = _last = None  # not held while another project is read
    origin, files, marked = Path(path), [], []
    doc = _read_json(origin, files)
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"),
                                                   list):
        raise ProjectError(f"{path}: project needs a 'generators' list")
    if unknown := doc.keys() - {"generators", "coordination"}:
        raise ProjectError(f"{path}: unknown project keys: {sorted(unknown)}")
    builds, alphabets = {}, {}
    for entry in doc["generators"]:
        where = f"{path} (inline)"
        if isinstance(entry, str):
            where = origin.parent / entry
            entry = _read_json(where, files)
        name, alphabet, build = _validate_generator(entry, str(where))
        if "marked" in entry:
            marked.append(str(where))
        if name in builds:
            raise ProjectError(f"{path}: duplicate generator name {name!r}")
        builds[name], alphabets[name] = build, alphabet
    coordination = doc.get("coordination")
    if coordination is not None:
        if not isinstance(coordination, dict):
            raise ProjectError(f"{path}: 'coordination' must be an object")
        coordination = _read_coordination(coordination, alphabets)
    doc = entry = None  # not held while the generators are built
    project = ProjectFile(MappingProxyType(
        {name: build() for name, build in builds.items()}), coordination)
    _last = _Loaded(key, files, marked, project)
    return project


def _read_coordination(block: dict, alphabets: dict) -> Coordination:
    """Check a coordination block on the generators' alphabets alone, and
    read it.  Left to ``resolve_coordination``, as they walk the built
    generators: a reachable shared event outside a listed E_k, and the
    coordinator-event search's own faults."""
    for key in ("g1", "g2", "spec"):
        if key not in block:
            raise ProjectError(f"coordination block is missing {key!r}")
    if unknown := block.keys() - Coordination._fields:
        raise ProjectError(f"unknown coordination keys: {sorted(unknown)}")
    names = (block["g1"], block["g2"], block["spec"])
    gk, ek = block.get("gk", "auto"), block.get("ek", "auto")
    if not all(isinstance(name, str) for name in (*names, gk)):
        raise ProjectError("coordination 'g1', 'g2', 'gk' and 'spec' must be "
                           "generator names")
    if gk == "auto":
        if "gk" in block and "auto" in alphabets:
            raise ProjectError("coordination 'gk' \"auto\" means the default "
                               "coordinator, yet a generator is named 'auto'")
        gk = None
    if ek == "auto":
        ek = None
    elif not (isinstance(ek, list) and all(isinstance(e, str) for e in ek)):
        raise ProjectError("coordination 'ek' must be \"auto\" or a list of "
                           "event names")
    for name in names if gk is None else (*names, gk):
        if name not in alphabets:
            raise ProjectError(f"unknown generator name {name!r}")
    e1, e2, k_alphabet = (alphabets[name] for name in names)
    if gk is not None:
        if ek is not None and set(ek) != alphabets[gk].events:
            raise ProjectError("ek does not match the named coordinator's "
                               "alphabet")
        ek = alphabets[gk]
    elif ek is not None:
        pool = union_alphabets(e1, e2, k_alphabet)
        if unknown := set(ek) - pool.events:
            raise ProjectError(f"ek lists unknown events: {sorted(unknown)}")
        ek = pool.restrict(ek)
    if ek is not None and k_alphabet != union_alphabets(e1, e2, ek):
        raise ProjectError("the specification alphabet must equal "
                           "E_1 ∪ E_2 ∪ E_k")
    return Coordination(*names, gk, ek)


def _lookup(project: ProjectFile, name: str) -> Generator:
    if name not in project.generators:
        raise ProjectError(f"unknown generator name {name!r}")
    return project.generators[name]


def resolve_coordination(project: ProjectFile):
    """(K, G1, G2, Gk, report) from the project's coordination record,
    building the coordinator when the block declares it "auto".  The report
    is the conditional-decomposability verdict of K under the chosen E_k
    when the coordinator-event search decided it (``"ek": "auto"``), else
    None."""
    block = project.coordination
    if block is None:
        raise ProjectError("project has no 'coordination' block")
    generators = project.generators
    g1, g2 = generators[block.g1], generators[block.g2]
    k = generators[block.spec]
    ek, decomposable = block.ek, None
    if ek is None:
        ek, decomposable = suggest_coordinator_events(k, g1, g2)
    if block.gk is not None:
        return k, g1, g2, generators[block.gk], decomposable
    # An E_k that leaves out a reachable shared event is an error in the
    # project, not a failed check, so it exits 2, not 1.
    try:
        gk = default_coordinator(g1, g2, ek)
    except PreconditionError as exc:
        raise ProjectError(str(exc)) from exc
    return k, g1, g2, gk, decomposable


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
# oracle cross-checks (--oracle-bound): each returns (what, oracle,
# consistent) for ``_oracle_note`` to print, and each imports the oracle
# itself, so that no other command loads it

def _oracle_note(what: str, oracle: str, consistent: bool, bound: int,
                 json_mode: bool) -> bool:
    """Print the oracle's verdict on ``what`` and return ``consistent``."""
    text = (f"[ORACLE] {what} at bound {bound}: "
            f"{'consistent' if consistent else 'MISMATCH'}")
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


def _oracle_controllability(k, plant, report, bound):
    from .oracle import bounded_language
    kw = bounded_language(k, bound)
    lw = bounded_language(plant, bound)
    eu = k.alphabet.uncontrollable
    violated = any(word + (event,) in lw and word + (event,) not in kw
                   for word in kw for event in eu)
    return ("controllability", "controllability",
            _agrees(report, bound, violated))


def _oracle_conddec(k, scheme, report, bound):
    from .oracle import bounded_language, bounded_projection, brute_product
    kw = bounded_language(k, bound)
    p1k, p2k, pk = (bounded_projection(k, alphabet.events, bound)
                    for alphabet in (scheme.e1k, scheme.e2k, scheme.ek))
    composed = brute_product(
        brute_product(p1k, scheme.e1k.events, p2k, scheme.e2k.events, bound),
        scheme.e1k.events | scheme.e2k.events, pk, scheme.ek.events, bound,
    )
    return ("conditional decomposability", "conddec",
            _agrees(report, bound, composed != kw))


def _oracle_supc(k, plant, result, bound):
    from .oracle import bounded_language, brute_sup_c
    eu = k.alphabet.uncontrollable
    kw = bounded_language(k, bound)
    lw = bounded_language(plant, bound + 1)
    low = brute_sup_c(kw, lw, eu, bound)
    high = brute_sup_c(kw, {w for w in lw if len(w) <= bound}, eu, bound)
    return "supC", "supc", low <= bounded_language(result, bound) <= high


def _oracle_supcc(result, bound):
    from .oracle import bounded_language, brute_product
    # sup_k, sup_1k and sup_2k are over E_k, E_{1+k} and E_{2+k}.
    ek, e1k, e2k = (g.alphabet.events
                    for g in (result.sup_k, result.sup_1k, result.sup_2k))
    left = brute_product(bounded_language(result.sup_k, bound), ek,
                         bounded_language(result.sup_1k, bound), e1k, bound)
    composed = brute_product(left, ek | e1k,
                             bounded_language(result.sup_2k, bound), e2k,
                             bound)
    return ("composition", "composition",
            composed == bounded_language(result.composed, bound))


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and the project, prints its
# results, and returns whether they hold and the oracle that cross-checks
# them (None when there is none)

def cmd_check(args, project):
    k, g1, g2, gk, _ = resolve_coordination(project)
    reports: list[tuple[str, PropertyReport]] = []
    oracle = None

    if args.which == "controllability":
        plant = _plant(g1, g2, gk)
        report = is_controllable(k, plant)
        reports.append(("controllability", report))
        oracle = partial(_oracle_controllability, k, plant, report)
    elif args.which == "conddec":
        scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
        report = conditionally_decomposable(k, scheme)
        reports.append(("conditional decomposability", report))
        oracle = partial(_oracle_conddec, k, scheme, report)
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
    return all(report.holds for _, report in reports), oracle


def _write_generator(path, name: str, g: Generator, json_mode: bool) -> None:
    """Write ``g`` to ``path`` as generator ``name`` and say so."""
    with open(path, "w", encoding="utf-8") as file:
        write_generator_text(g, name, file.write)
    _emit(json_mode, f"wrote {path} ({g.num_states} states, "
                     f"{g.num_transitions} transitions)",
          {"artifact": name, "path": str(path), "states": g.num_states,
           "transitions": g.num_transitions,
           "empty_language": g.recognizes_empty_language})


def cmd_synth(args, project):
    k, g1, g2, gk, _ = resolve_coordination(project)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "supc":
        plant = _plant(g1, g2, gk)
        result = sup_c(k, plant)
        _write_generator(out / "supc.json", "supc", result, args.json)
        return True, partial(_oracle_supc, k, plant, result)
    if args.mode == "supcc":
        result = sup_cc(k, g1, g2, gk, force=args.force)
        for stem in ("sup_k", "sup_1k", "sup_2k", "composed"):
            _write_generator(out / f"{stem}.json", stem,
                             getattr(result, stem), args.json)
        text = f"certified supremal: {'yes' if result.certified else 'no'}"
        _emit(args.json, text, {"note": text, "certified": result.certified})
        return True, partial(_oracle_supcc, result)
    supervisors = synthesize_supervisors(k, g1, g2, gk)
    for stem, g in zip(("s_k", "s_1", "s_2"), supervisors):
        _write_generator(out / f"{stem}.json", stem, g, args.json)
    return True, None


def cmd_compose(args, project):
    parts = [_lookup(project, name) for name in args.names]
    _write_generator(args.out, "+".join(args.names),
                     reduce(sync_product, parts), args.json)
    return True, None


def cmd_project(args, project):
    g = _lookup(project, args.name)
    _write_generator(args.out, args.name, project_generator(g, args.events),
                     args.json)
    return True, None


def cmd_info(args, project):
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
    return True, None


def _usage_error(parser, message: str):
    """``ArgumentParser.error``, which would print the usage and exit:
    raise ``message`` instead, for ``main`` to print as one line."""
    raise DescoordError(message)


class _Parser(argparse.ArgumentParser):
    error = _usage_error


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``desc`` parser, built once per process."""
    parser = _Parser(
        prog="desc",
        description="Supervisory control synthesis for modular "
                    "discrete-event systems with a coordinator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("-p", "--project", required=True,
                       help="project file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable one-line JSON records")
        return p

    p_check = command("check", "run a property check")
    p_check.add_argument("which", choices=CHECKS)
    p_check.add_argument("--oracle-bound", type=int, default=None,
                         help="also verify against the brute-force oracle "
                              "at this word-length bound")

    p_synth = command("synth", "run a synthesis")
    p_synth.add_argument("mode", choices=SYNTH_MODES)
    p_synth.add_argument("-o", "--out", required=True,
                         help="output directory for result generators")
    p_synth.add_argument("--force", action="store_true",
                         help="supcc only: compute even when observer/OCC "
                              "preconditions fail (result marked uncertified)")
    p_synth.add_argument("--oracle-bound", type=int, default=None,
                         help="supc and supcc only: also verify against "
                              "the brute-force oracle at this bound")

    p_compose = command("compose", "synchronous product of named generators")
    p_compose.add_argument("-o", "--out", required=True,
                           help="output generator file")
    p_compose.add_argument("names", nargs="+")

    p_project = command("project", "natural projection of a generator")
    p_project.add_argument("-o", "--out", required=True,
                           help="output generator file")
    p_project.add_argument("name")
    p_project.add_argument("events", nargs="+")

    p_info = command("info", "describe a named generator")
    p_info.add_argument("name")

    return parser


def main(argv=None) -> int:
    # No command makes a reference cycle, so the cyclic collector would
    # only cost time: it is paused for the command, then left as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # The arguments are checked before the project is read.
        target = getattr(args, "which", getattr(args, "mode", None))
        bound = getattr(args, "oracle_bound", None)
        # The line that announces a written file must print its path.
        if not _is_text(getattr(args, "out", "")):
            raise DescoordError(f"output path {args.out!r} is not valid "
                                f"Unicode text")
        # No file system takes a NUL byte in a path.
        if "\0" in getattr(args, "out", ""):
            raise DescoordError(f"output path {args.out!r} contains a NUL "
                                f"byte")
        if bound is not None and bound < 0:
            raise DescoordError(f"argument --oracle-bound: must be >= 0, "
                                f"got {bound}")
        if bound is not None and target not in ORACLES:
            raise DescoordError(f"{args.command} {target} has no oracle to "
                                f"bound")
        if getattr(args, "force", False) and target != "supcc":
            raise DescoordError(f"synth {target} does not take --force")
        # Looked up per call, not kept in the cached parser, so that a
        # command rebound on this module, as a tracer does, is the one run.
        run = {"check": cmd_check, "synth": cmd_synth, "compose": cmd_compose,
               "project": cmd_project, "info": cmd_info}[args.command]
        ok, oracle = run(args, load_project(args.project))
        if bound is not None:
            ok = _oracle_note(*oracle(bound), bound, args.json) and ok
        return 0 if ok else 1
    except PreconditionError as exc:
        emit_report(f"precondition: {exc}", exc.report, args.json)
        return 1
    except (DescoordError, OSError) as exc:
        # OSError: an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # An exhausted host is not a failed check (exit 1).
        print("error: out of memory: the automata built outgrew the host",
              file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
