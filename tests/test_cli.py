"""End-to-end tests of the command-line interface and its file formats."""

import argparse
import collections
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descoord
from descoord import (
    Alphabet,
    ProjectError,
    automata,
    cli,
    coordination,
    empty_generator,
    from_words,
    language,
    language_equal,
    make_generator,
    oracle,
    project as project_generator,
    sup_c,
    sup_cc,
    sync_product,
    universal_generator,
    widen_alphabet,
)
from descoord.cli import (
    build_parser,
    load_project,
    main,
    parse_generator,
)

from helpers import (
    buffered_line,
    generator_to_text,
    hidden_blow_up,
    serialize_generator,
    traced_peak,
)


def write_project(tmp_path, cell, ek=("a1", "a2", "c", "u"), gk="auto",
                  spec_words=("a2.a1", "a1.a2.u", "c.u1.u2", "c.u2.u1")):
    """Write the workcell as generator files plus a project file; returns
    the project path."""
    named = {
        "g1": cell.g1,
        "g2": cell.g2,
        "spec": from_words(cell.full, list(spec_words)),
    }
    files = []
    for name, g in named.items():
        path = tmp_path / f"{name}.json"
        path.write_text(generator_to_text(g, name), encoding="utf-8")
        files.append(path.name)
    doc = {
        "generators": files,
        "coordination": {
            "g1": "g1", "g2": "g2", "gk": gk, "spec": "spec",
            "ek": list(ek),
        },
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return project


def read_generator(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    return parse_generator(doc, str(path))[1]


def test_round_trip_is_isomorphic_and_byte_stable(cell):
    for g in (cell.g1, cell.g2, cell.k, cell.gk,
              empty_generator(cell.full), universal_generator(cell.ek)):
        text = generator_to_text(g, "x")
        name, parsed = parse_generator(json.loads(text))
        assert name == "x"
        assert language_equal(parsed, g).holds
        assert parsed.recognizes_empty_language == g.recognizes_empty_language
        assert generator_to_text(parsed, "x") == text


def reference_text(g, name) -> str:
    return json.dumps(serialize_generator(g, name), indent=2) + "\n"


NAMES = st.text(st.sampled_from(['a', 'b', '"', '\\', '\n', 'é', '☃', ' ']),
                min_size=1, max_size=4)


@st.composite
def written_generators(draw):
    """Generators over names that need escaping, and the empty alphabet,
    transition table and language among them."""
    events = draw(st.lists(NAMES, unique=True, max_size=4))
    alphabet = Alphabet(frozenset(events),
                        frozenset(draw(st.sets(st.sampled_from(events))))
                        if events else frozenset())
    if draw(st.booleans()):
        return empty_generator(alphabet)
    n = draw(st.integers(1, 4))
    table = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from(events)),
        st.integers(0, n - 1), max_size=n * len(events),
    )) if events else {}
    return make_generator(
        [f"s{i}" for i in range(n)], alphabet,
        [(f"s{q}", event, f"s{t}") for (q, event), t in table.items()], "s0")


@given(written_generators(), NAMES)
@settings(max_examples=200, deadline=None)
def test_written_text_is_the_indent_2_encoding(g, name):
    assert generator_to_text(g, name) == reference_text(g, name)


def test_compose_and_project_write_the_reference_bytes(tmp_path, cell):
    project = write_project(tmp_path, cell)
    named = load_project(str(project)).generators
    out = tmp_path / "written.json"
    assert main(["compose", "-p", str(project), "-o", str(out),
                 "g1", "g2"]) == 0
    plant = sync_product(named["g1"], named["g2"])
    assert out.read_bytes() == reference_text(plant, "g1+g2").encode()
    events = frozenset({"a1", "a2", "c", "u"})
    assert main(["project", "-p", str(project), "-o", str(out),
                 "spec", *sorted(events)]) == 0
    pk = project_generator(named["spec"], events)
    assert out.read_bytes() == reference_text(pk, "spec").encode()


def test_writing_a_generator_builds_its_text_once():
    # K∩L of the buffered line (12, 12, 12), 2548 states.  The writer
    # passes the text in pieces, the transitions of each run of 1024
    # states joined once, and the helper joins the pieces once: the peak
    # reads 2.46-2.57 times the text on Python 3.11-3.13, and read
    # 3.39-3.60 times it when the writer joined the whole text itself.
    kl = buffered_line(12, 12, 12)[0]
    text, peak = traced_peak(generator_to_text, kl, "kl")
    assert text == reference_text(kl, "kl")
    assert peak <= 3.0 * len(text), peak / len(text)


def test_writing_a_file_holds_one_run_of_its_text(tmp_path, capsys):
    # K∩L of the buffered line (24, 24, 24): 16 900 states, 17 runs of
    # 1024.  Its labels are read first, as they belong to the generator and
    # outlive the write.  The peak reads 0.33-0.34 times the file's bytes
    # on Python 3.11-3.13, and read 3.04 times them when the whole text
    # was built before the file was written.
    kl = buffered_line(24, 24, 24)[0]
    kl.labels
    path = tmp_path / "kl.json"
    _, peak = traced_peak(cli._write_generator, path, "kl", kl, False)
    capsys.readouterr()
    size = path.stat().st_size
    assert peak <= 0.75 * size, peak / size


EVENT = Alphabet(frozenset({"go"}), frozenset({"go"}))
BINARY = Alphabet(frozenset({"a", "b"}), frozenset({"a"}))
RUN_BOUNDARIES = {
    # Chains of one state, of a run short by one state, of one whole run,
    # and one state into a second and into a third run.
    **{f"chain-{n}": (lambda n=n: from_words(EVENT, [("go",) * (n - 1)]))
       for n in (1, 1023, 1024, 1025, 2049)},
    # The prefix tree of the 1024 words of length 10 over a and b: its
    # 1024 leaves are states 1023-2046, so its second run has no
    # transition.
    "tree-2047": lambda: from_words(BINARY, itertools.product("ab",
                                                               repeat=10)),
    "empty-language": lambda: empty_generator(BINARY),
    "empty-alphabet": lambda: universal_generator(
        Alphabet(frozenset(), frozenset())),
}


@pytest.mark.parametrize("build", RUN_BOUNDARIES.values(),
                         ids=RUN_BOUNDARIES)
def test_a_file_written_in_runs_is_the_indent_2_encoding(build, tmp_path,
                                                         capsys):
    g = build()
    pieces = []
    cli.write_generator_text(g, "g", pieces.append)
    # The head, each run of 1024 states with a transition, the tail.
    runs = {state // 1024 for state, row in enumerate(g.rows) if row}
    assert len(pieces) == 2 + len(runs) and all(pieces)
    path = tmp_path / "g.json"
    cli._write_generator(path, "g", g, False)
    capsys.readouterr()
    assert path.read_bytes() == "".join(pieces).encode()
    assert "".join(pieces) == reference_text(g, "g")


class Label(str):
    """An event name that is a ``str`` subclass: the load's fast path
    leaves its triple to ``_add_triple``."""


def test_every_row_is_keyed_by_the_alphabets_own_event_string(tmp_path):
    # Names of more than one character: CPython shares one-character
    # strings, which would make any parse pass.
    def assert_keyed_by_the_alphabet(g):
        own = {id(event) for event in g.alphabet.events}
        keys = [event for row in g.rows for event in row]
        assert keys and all(id(key) in own and type(key) is str
                            for key in keys)

    doc = {"name": "g", "events": [
        {"name": "start", "controllable": True},
        {"name": "stop", "controllable": False}],
        "states": ["idle", "busy"], "initial": "idle",
        # The repeated identical triple is accepted by the fast path.
        "transitions": [["idle", "start", "busy"], ["busy", "stop", "idle"],
                        ["idle", "start", "busy"]]}
    assert_keyed_by_the_alphabet(parse_generator(doc)[1])
    (tmp_path / "p.json").write_text(json.dumps({"generators": [doc]}),
                                     encoding="utf-8")
    assert_keyed_by_the_alphabet(
        load_project(str(tmp_path / "p.json")).generators["g"])
    # Strings built at run time, so that none is the alphabet's own; the
    # states are out of canonical order, so the rows are renumbered.
    start, stop = "".join(["st", "art"]), "".join(["st", "op"])
    alphabet = Alphabet(frozenset({start, stop}), frozenset({start}))
    triples = [("idle", "".join(["st", "art"]), "busy"),
               ("busy", Label("stop"), "idle"),
               ("busy", Label("stop"), "idle"),
               ("idle", "".join(["st", "art"]), "busy")]
    g = make_generator(["busy", "idle"], alphabet, triples, "idle")
    assert [dict(row) for row in g.rows] == [{"start": 1}, {"stop": 0}]
    assert_keyed_by_the_alphabet(g)


def test_marked_field_is_ignored_with_a_warning(cell, capsys):
    doc = serialize_generator(cell.g1, "g1")
    doc["marked"] = ["q0"]
    _, parsed = parse_generator(doc)
    assert language_equal(parsed, cell.g1).holds
    assert "marked" in capsys.readouterr().err


def test_check_conddec_passes(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "conddec", "-p", str(project)]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_check_conddec_fails_for_shared_only_coordinator(tmp_path, cell,
                                                         capsys):
    project = write_project(tmp_path, cell, ek=("c", "u"))
    assert main(["check", "conddec", "-p", str(project)]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_check_occ_reports_the_narrative_counterexample(tmp_path, cell,
                                                        capsys):
    project = write_project(tmp_path, cell, ek=("c", "u"))
    assert main(["check", "occ", "-p", str(project)]) == 1
    out = capsys.readouterr().out
    assert "a1.u" in out


def test_check_condctrl_and_optimality(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "condctrl", "-p", str(project)]) == 1
    assert main(["check", "optimality", "-p", str(project)]) == 0
    assert main(["check", "condindep", "-p", str(project)]) == 0
    assert main(["check", "observer", "-p", str(project)]) == 0
    capsys.readouterr()


def test_check_json_mode(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "conddec", "-p", str(project), "--json"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        record = json.loads(line)
        assert record["holds"] is True


def test_synth_supcc_writes_golden_results(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    out = tmp_path / "out"
    assert main(["synth", "supcc", "-p", str(project),
                 "-o", str(out)]) == 0
    composed = read_generator(out / "composed.json")
    expected = cell.over_full("a1.a2.u", "a2", "c.u1.u2", "c.u2.u1")
    assert language_equal(composed, expected).holds
    assert (out / "sup_k.json").exists()
    assert (out / "sup_1k.json").exists()
    assert (out / "sup_2k.json").exists()
    assert "certified supremal: yes" in capsys.readouterr().out


def test_synth_output_is_byte_stable_across_runs(tmp_path, cell):
    project = write_project(tmp_path, cell)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["synth", "supcc", "-p", str(project), "-o", str(out1)]) == 0
    assert main(["synth", "supcc", "-p", str(project), "-o", str(out2)]) == 0
    for name in ("sup_k", "sup_1k", "sup_2k", "composed"):
        assert ((out1 / f"{name}.json").read_bytes()
                == (out2 / f"{name}.json").read_bytes())


def test_synth_supc_on_plant_specification(tmp_path, cell):
    plant = sync_product(sync_product(cell.g1, cell.g2), cell.gk)
    named = {"g1": cell.g1, "g2": cell.g2, "spec": plant}
    for name, g in named.items():
        (tmp_path / f"{name}.json").write_text(generator_to_text(g, name),
                                               encoding="utf-8")
    doc = {
        "generators": ["g1.json", "g2.json", "spec.json"],
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec", "ek": ["a1", "a2", "c", "u"]},
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "supc", "-p", str(project), "-o", str(out)]) == 0
    result = read_generator(out / "supc.json")
    # The plant language is controllable with respect to itself.
    assert language_equal(result, plant).holds


def test_synthesized_language_is_conditionally_controllable(tmp_path, cell):
    project = write_project(tmp_path, cell)
    out = tmp_path / "out"
    assert main(["synth", "supcc", "-p", str(project), "-o", str(out)]) == 0
    composed = read_generator(out / "composed.json")

    # Feed the result back as the specification: condctrl must now hold.
    (tmp_path / "spec.json").write_text(generator_to_text(composed, "spec"),
                                        encoding="utf-8")
    assert main(["check", "condctrl", "-p",
                 str(tmp_path / "project.json")]) == 0


def test_synth_supcc_force_flag(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell, ek=("a1", "c", "u"))
    out = tmp_path / "out"
    assert main(["synth", "supcc", "-p", str(project), "-o", str(out)]) == 1
    assert main(["synth", "supcc", "-p", str(project), "-o", str(out),
                 "--force"]) == 0
    assert "certified supremal: no" in capsys.readouterr().out


def test_synth_supervisors(tmp_path, cell):
    project = write_project(
        tmp_path, cell,
        spec_words=("a1.a2.u", "a2", "c.u1.u2", "c.u2.u1"))
    out = tmp_path / "out"
    assert main(["synth", "supervisors", "-p", str(project),
                 "-o", str(out)]) == 0
    s_k = read_generator(out / "s_k.json")
    assert language_equal(s_k, cell.over_ek("a2", "c", "a1.a2.u")).holds


def test_compose_command(tmp_path, cell):
    project = write_project(tmp_path, cell)
    out = tmp_path / "plant.json"
    assert main(["compose", "-p", str(project), "-o", str(out),
                 "g1", "g2"]) == 0
    plant = read_generator(out)
    expected = cell.over_full("a1.a2.u", "a2.a1.u", "c.u1.u2", "c.u2.u1")
    assert language_equal(plant, expected).holds


def test_project_command_identity_is_byte_identical(tmp_path, cell):
    project = write_project(tmp_path, cell)
    out = tmp_path / "projected.json"
    events = sorted(cell.g1.alphabet.events)
    assert main(["project", "-p", str(project), "-o", str(out),
                 "g1", *events]) == 0
    assert out.read_bytes() == (tmp_path / "g1.json").read_bytes()


def test_project_command_onto_coordinator_events(tmp_path, cell):
    project = write_project(tmp_path, cell)
    out = tmp_path / "pk.json"
    assert main(["project", "-p", str(project), "-o", str(out),
                 "spec", "a1", "a2", "c", "u"]) == 0
    assert language_equal(read_generator(out),
                          cell.over_ek("a2.a1", "c", "a1.a2.u")).holds


def test_project_command_rejects_events_outside_the_generator(tmp_path, cell,
                                                             capsys):
    project = write_project(tmp_path, cell)
    out = tmp_path / "p1.json"
    assert main(["project", "-p", str(project), "-o", str(out),
                 "g1", "a1", "a2", "u2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown events: ['a2', 'u2']\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["compose", "g1", "g2"], "g1+g2"),
    (["project", "spec", "a1", "a2", "c", "u"], "spec"),
], ids=["compose", "project"])
def test_every_written_generator_is_announced_by_one_record(
        tmp_path, cell, capsys, argv, name):
    project = write_project(tmp_path, cell)
    assert main(["synth", "supc", "-p", str(project),
                 "-o", str(tmp_path / "out"), "--json"]) == 0
    synth = json.loads(capsys.readouterr().out)
    out = tmp_path / "result.json"
    assert main([argv[0], "-p", str(project), "-o", str(out), "--json",
                 *argv[1:]]) == 0
    record = json.loads(capsys.readouterr().out)
    g = read_generator(out)
    assert record.keys() == synth.keys()
    assert record == {"artifact": name, "empty_language": False,
                      "path": str(out), "states": g.num_states,
                      "transitions": g.num_transitions}


def test_info_command(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["info", "-p", str(project), "g1"]) == 0
    out = capsys.readouterr().out
    assert "a1" in out and "states" in out
    assert main(["info", "-p", str(project), "g1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["reachable_events"] == ["a1", "c", "u", "u1"]
    assert record["sample_words"][0] == "ε"


def test_commands_on_a_generator_of_the_empty_language(tmp_path, cell,
                                                       capsys):
    doc = inline_project(cell)
    doc["generators"][0] = serialize_generator(empty_generator(cell.e1), "g1")
    project = tmp_path / "p.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    for which in ("observer", "occ"):
        assert main(["check", which, "-p", str(project)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"[PASS] {which}(subsystem 1): empty language"
    assert main(["info", "-p", str(project), "g1"]) == 0
    assert capsys.readouterr().out == (
        "generator g1: 1 states, 0 transitions\n"
        "  events: a1, c, u (u), u1 (u)\n"
        "  reachable events: (none)\n"
        "  language: empty\n")


def test_only_the_accessible_part_of_a_file_is_kept(tmp_path, capsys):
    doc = {
        "name": "g",
        "events": [{"name": "a", "controllable": True},
                   {"name": "b", "controllable": False}],
        "states": ["dead", "x", "y"],
        "initial": "x",
        "transitions": [["dead", "b", "x"], ["x", "a", "y"],
                        ["dead", "a", "dead"]],
    }
    (tmp_path / "g.json").write_text(json.dumps(doc), encoding="utf-8")
    project = tmp_path / "p.json"
    project.write_text(json.dumps({"generators": ["g.json"]}),
                       encoding="utf-8")
    assert main(["info", "-p", str(project), "g"]) == 0
    assert capsys.readouterr().out == (
        "generator g: 2 states, 1 transitions\n"
        "  events: a, b (u)\n"
        "  reachable events: a\n"
        "  sample words: ε, a\n")
    assert main(["info", "-p", str(project), "g", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["states"], record["transitions"],
            record["reachable_events"]) == (2, 1, ["a"])
    out = tmp_path / "g-out.json"
    assert main(["compose", "-p", str(project), "-o", str(out), "g"]) == 0
    assert capsys.readouterr().out == f"wrote {out} (2 states, 1 transitions)\n"
    assert out.read_text(encoding="utf-8") == """{
  "name": "g",
  "events": [
    {
      "name": "a",
      "controllable": true
    },
    {
      "name": "b",
      "controllable": false
    }
  ],
  "states": [
    "q0",
    "q1"
  ],
  "initial": "q0",
  "transitions": [
    [
      "q0",
      "a",
      "q1"
    ]
  ]
}
"""


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", "conddec", "-p", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err

    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert main(["check", "conddec", "-p", str(empty)]) == 2


def test_unresolved_names_exit_2(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["info", "-p", str(project), "ghost"]) == 2
    assert "ghost" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for argv in (["synth", "supc", "-o", str(taken)],
                 ["compose", "-o", str(tmp_path / "no" / "x.json"), "g1"]):
        assert main([argv[0], "-p", str(project), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["synth", "supc"],
                                  ["compose", "g1", "g2"],
                                  ["project", "g1", "a1"]],
                         ids=["synth", "compose", "project"])
def test_an_output_path_that_is_not_text_exits_2(tmp_path, cell, capsys,
                                                 argv):
    # An undecodable byte 0xff of a command-line argument arrives as
    # "\udcff", which the line announcing the written file cannot print.
    project = write_project(tmp_path, cell)
    before = sorted(tmp_path.iterdir())
    out = str(tmp_path / "out\udcff")
    assert main([argv[0], "-p", str(project), "-o", out, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: output path {out!r} is not valid "
                            f"Unicode text\n")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [["synth", "supc"],
                                  ["compose", "g1", "g2"],
                                  ["project", "g1", "a1"]],
                         ids=["synth", "compose", "project"])
def test_an_output_path_with_a_nul_byte_exits_2(tmp_path, cell, capsys,
                                                argv):
    # A shell cannot pass a NUL, but a caller of main can.
    project = write_project(tmp_path, cell)
    before = sorted(tmp_path.iterdir())
    out = str(tmp_path / "out\0dir")
    assert main([argv[0], "-p", str(project), "-o", out, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output path {out!r} contains a NUL byte\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_usage_error_exits_2(capsys):
    assert main(["check", "not-a-check", "-p", "x.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument which: invalid choice: "
                                   "'not-a-check'")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bogus", "-p", "{p}"],
    ["check", "nope", "-p", "{p}"],
    ["synth", "nope", "-p", "{p}", "-o", "{o}"],
    ["check", "conddec"],
    ["synth", "supcc", "-p", "{p}"],
    ["check", "conddec", "-p", "{p}", "--no-such-flag"],
    ["check", "conddec", "-p", "{p}", "--oracle-bound", "x"],
    ["check", "conddec", "-p", "{p}", "--oracle-bound", "-1"],
    ["check", "observer", "-p", "{p}", "--oracle-bound", "2"],
    ["synth", "supervisors", "-p", "{p}", "-o", "{o}", "--oracle-bound", "2"],
    ["synth", "supc", "-p", "{p}", "-o", "{o}", "--force"],
    ["synth", "supc", "-p", "{p}", "-o", "{o}\udcff"],
], ids=["unknown-command", "invalid-check", "invalid-mode", "missing-p",
        "missing-o", "unrecognized-flag", "bound-x", "bound-negative",
        "bound-on-observer", "bound-on-supervisors", "force-on-supc",
        "non-text-o"])
def test_every_bad_argument_is_one_error_line(tmp_path, cell, capsys, argv):
    project = write_project(tmp_path, cell)
    before = sorted(tmp_path.iterdir())
    assert main([arg.format(p=project, o=tmp_path / "out")
                 for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_oracle_bound_flags(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "conddec", "-p", str(project),
                 "--oracle-bound", "6"]) == 0
    out = tmp_path / "out"
    assert main(["synth", "supc", "-p", str(project), "-o", str(out),
                 "--oracle-bound", "8"]) == 0
    assert main(["synth", "supcc", "-p", str(project), "-o", str(out),
                 "--oracle-bound", "6"]) == 0
    output = capsys.readouterr().out
    assert "MISMATCH" not in output
    assert "consistent" in output


@pytest.mark.parametrize("bound", ["0", "1"])
@pytest.mark.parametrize("argv", [["check", "controllability"],
                                  ["check", "conddec"],
                                  ["synth", "supc"], ["synth", "supcc"]],
                         ids="-".join)
def test_oracle_bounds_0_and_1_run_a_consistent_oracle(tmp_path, cell, capsys,
                                                       argv, bound):
    project = write_project(tmp_path, cell)
    out = ["-o", str(tmp_path / "out")] if argv[0] == "synth" else []
    main([*argv, "-p", str(project), *out, "--oracle-bound", bound])
    oracle_lines = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("[ORACLE]")]
    assert len(oracle_lines) == 1, oracle_lines
    assert oracle_lines[0].endswith(": consistent"), oracle_lines


def test_negative_oracle_bound_is_a_usage_error(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    for argv in (["check", "conddec"],
                 ["synth", "supc", "-o", str(tmp_path / "out")]):
        assert main([*argv, "-p", str(project), "--oracle-bound", "-1"]) == 2
        assert capsys.readouterr().err == ("error: argument --oracle-bound: "
                                           "must be >= 0, got -1\n")


def test_a_non_integer_oracle_bound_is_a_usage_error(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "conddec", "-p", str(project),
                 "--oracle-bound", "x"]) == 2
    assert capsys.readouterr().err == ("error: argument --oracle-bound: "
                                       "invalid int value: 'x'\n")


def test_the_parser_is_built_once_and_runs_the_commands_bound_now(
        tmp_path, cell, monkeypatch, capsys):
    # A function rebound on the module after the parser was built, as a
    # tracer's wrapper is, is the one that runs.
    assert build_parser() is build_parser()
    project = write_project(tmp_path, cell)
    original, calls = cli.cmd_info, []

    def traced(args, loaded):
        calls.append(args.name)
        return original(args, loaded)

    monkeypatch.setattr(cli, "cmd_info", traced)
    assert main(["info", "-p", str(project), "g1"]) == 0
    assert calls == ["g1"]
    assert capsys.readouterr().out.startswith("generator g1: ")


def test_every_optional_flag_of_every_command_has_help():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands) == ["check", "compose", "info", "project",
                                "synth"]
    missing = [f"{name} {action.option_strings[-1]}"
               for name, parser in commands.items()
               for action in parser._actions
               if action.option_strings and not action.help]
    assert missing == []


def test_oracle_bound_beyond_the_word_limit_exits_2(tmp_path, capsys):
    # L(spec) = {a, b}*: 2^41 - 1 words of length at most 40.
    named = {"g1": universal_generator(Alphabet({"a"}, {"a"})),
             "g2": universal_generator(Alphabet({"b"}, {"b"})),
             "spec": universal_generator(Alphabet({"a", "b"}, {"a", "b"}))}
    doc = {
        "generators": [serialize_generator(g, name)
                       for name, g in named.items()],
        "coordination": {"g1": "g1", "g2": "g2", "spec": "spec", "ek": []},
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", "conddec", "-p", str(project),
                 "--oracle-bound", "40"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: oracle bound 40 admits more than "
                   f"{oracle.MAX_WORDS} words; use a smaller bound\n")


@pytest.mark.parametrize("argv, ek", [
    (["project", "-o", "out.json", "spec", "a", "b"], ["a", "b"]),
    (["check", "conddec"], ["a", "b"]),
    (["check", "conddec"], "auto"),
    (["check", "condctrl"], ["a", "b"]),
], ids=["project", "conddec", "conddec-auto", "condctrl"])
def test_a_projection_past_the_subset_limit_exits_2(tmp_path, capsys,
                                                    monkeypatch, argv, ek):
    # P_{1+k}(spec) onto {a, b} has 2^30 subsets; P_{2+k} is the identity.
    project = write_blow_up_project(tmp_path, ek, universal_generator(
        Alphabet({"a", "b", "h"}, {"a", "b", "h"})))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(language, "MAX_SUBSETS", 100)
    assert main([*argv, "-p", str(project)]) == 2
    assert capsys.readouterr() == ("", (
        "error: the projection of a 32-state, 62-transition generator onto "
        "{a, b} stopped after 100 subsets, the limit\n"))
    assert not (tmp_path / "out.json").exists()


def test_condctrl_past_the_subset_limit_still_fails_its_precondition(
        tmp_path, capsys, monkeypatch):
    # As above, but h never occurs in G2, so the spec's word h is outside
    # the plant: the precondition fails as it does below the limit.
    project = write_blow_up_project(tmp_path, ["a", "b"], widen_alphabet(
        universal_generator(Alphabet({"a", "b"}, {"a", "b"})),
        Alphabet({"a", "b", "h"}, {"a", "b", "h"})))
    monkeypatch.setattr(language, "MAX_SUBSETS", 100)
    assert main(["check", "condctrl", "-p", str(project)]) == 1
    assert capsys.readouterr() == (
        "[FAIL] precondition: specification is not contained in the plant "
        "language: counterexample=h (word is in the left language only)\n",
        "")


def write_blow_up_project(tmp_path, ek, g2):
    """Write a project of ``hidden_blow_up(30)`` as the spec, G1 universal
    over {a, b}, ``g2`` over {a, b, h}, the default coordinator and
    ``ek``; returns its path."""
    named = {"g1": universal_generator(Alphabet({"a", "b"}, {"a", "b"})),
             "g2": g2, "spec": hidden_blow_up(30)}
    doc = {
        "generators": [serialize_generator(g, name)
                       for name, g in named.items()],
        "coordination": {"g1": "g1", "g2": "g2", "spec": "spec", "ek": ek},
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    return project


def write_line_project(tmp_path, ek, size=(3, 2, 2)):
    """Write ``buffered_line(*size)`` as a project with inline generators,
    an automatic coordinator and ``ek``; returns its path."""
    k, g1, g2 = buffered_line(*size)
    doc = {
        "generators": [serialize_generator(g, name) for name, g in
                       (("g1", g1), ("g2", g2), ("spec", k))],
        "coordination": {"g1": "g1", "g2": "g2", "spec": "spec", "ek": ek},
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    return project


@pytest.mark.parametrize("argv", [["check", "condindep"],
                                  ["check", "condctrl"],
                                  ["check", "observer"], ["check", "occ"],
                                  ["check", "optimality"],
                                  ["synth", "supervisors"]], ids="-".join)
def test_oracle_bound_without_an_oracle_exits_2(tmp_path, capsys, argv):
    project = write_line_project(tmp_path, ["a1", "a2", "b1", "b2"])
    out = tmp_path / "out"
    synth = ["-o", str(out)] if argv[0] == "synth" else []
    assert main([*argv, "-p", str(project), *synth,
                 "--oracle-bound", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {' '.join(argv)} has no oracle to bound\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["supc", "supervisors"])
def test_force_outside_supcc_exits_2(tmp_path, capsys, mode):
    project = write_line_project(tmp_path, ["a1", "a2", "b1", "b2"])
    out = tmp_path / "out"
    assert main(["synth", mode, "-p", str(project), "-o", str(out),
                 "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: synth {mode} does not take --force\n"
    assert not out.exists()


def test_conddec_oracle_confirms_a_failing_verdict(tmp_path, capsys):
    # With E_k = ∅ the line is not decomposable: a2 empties a buffer that
    # starts empty.  The oracle projects K exactly up to the bound, so it
    # sees a2 in P_{2+k}(K) at every bound from 1 on, although its shortest
    # witness in K, a1.t1.t1.t1.b1.a2, is six events long: projecting only
    # K's words up to the bound would miss it at bounds 1 to 5.
    project = write_line_project(tmp_path, [])
    for bound in range(8):
        assert main(["check", "conddec", "-p", str(project),
                     "--oracle-bound", str(bound)]) == 1
        fail, note = capsys.readouterr().out.splitlines()
        assert fail.startswith("[FAIL] conditional decomposability: "
                               "counterexample=a2 ")
        assert note == (f"[ORACLE] conditional decomposability at bound "
                        f"{bound}: consistent")


def write_deletion_chain(tmp_path):
    """The plant a.u.u.u against K = a.u.u, with ``"ek": []``: the
    uncontrollable chain after the controllable a ends outside K, so
    supC = {ε}.  Every language of the project is finite."""
    full = Alphabet({"a", "c", "u"}, {"a", "c"})
    named = {"g1": from_words(full.restrict({"a", "u"}), ["a.u.u.u"]),
             "g2": from_words(full.restrict({"c"}), []),
             "spec": from_words(full, ["a.u.u"])}
    doc = {
        "generators": [serialize_generator(g, name)
                       for name, g in named.items()],
        "coordination": {"g1": "g1", "g2": "g2", "spec": "spec", "ek": []},
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    return project


def test_supc_oracle_sees_a_deletion_chain_longer_than_the_bound(tmp_path,
                                                                 capsys):
    # At bound 3 the chain's last u is out of sight, so the fixpoint on the
    # words up to 3 keeps a·u·u, and a comparison truncated to bound 1
    # would read MISMATCH.  The two-sided check holds at every bound.
    project = write_deletion_chain(tmp_path)
    for bound in range(8):
        assert main(["synth", "supc", "-p", str(project), "-o",
                     str(tmp_path / "out"), "--oracle-bound",
                     str(bound)]) == 0
        wrote, note = capsys.readouterr().out.splitlines()
        assert wrote.endswith("supc.json (1 states, 0 transitions)")
        assert note == f"[ORACLE] supC at bound {bound}: consistent"


def test_oracle_bound_past_a_finite_language_costs_nothing(tmp_path, capsys):
    # Each oracle loop stops once no word grows, so a bound of 10^12 on
    # finite languages is answered at once, and as at bound 8.
    project = write_deletion_chain(tmp_path)
    out = ["-o", str(tmp_path / "out")]
    for argv in (["synth", "supc", *out], ["synth", "supcc", *out],
                 ["check", "controllability"], ["check", "conddec"]):
        verdicts = []
        for bound in ("8", str(10 ** 12)):
            code = main([*argv, "-p", str(project), "--oracle-bound", bound])
            notes = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("[ORACLE]")]
            assert len(notes) == 1, notes
            assert notes[0].endswith(f" at bound {bound}: consistent")
            verdicts.append(code)
        assert verdicts[0] == verdicts[1], (argv, verdicts)


def test_the_supcc_oracle_compares_composed_with_the_three_way_product(
        cell, capsys):
    # The oracle reads E_k, E_{1+k} and E_{2+k} off the three parts, so a
    # composed generator that is not their product reads MISMATCH.
    result = sup_cc(cell.k, cell.g1, cell.g2, cell.gk, force=True)
    wrong = dataclasses.replace(result,
                                composed=universal_generator(cell.full))
    for given_result, verdict in ((result, "consistent"),
                                  (wrong, "MISMATCH")):
        consistent = verdict == "consistent"
        assert cli._oracle_note(*cli._oracle_supcc(given_result, 4), 4,
                                False) is consistent
        assert capsys.readouterr().out == (
            f"[ORACLE] composition at bound 4: {verdict}\n")


def test_auto_everything_project(tmp_path, cell):
    named = {"g1": cell.g1, "g2": cell.g2, "spec": cell.k}
    for name, g in named.items():
        (tmp_path / f"{name}.json").write_text(generator_to_text(g, name),
                                               encoding="utf-8")
    doc = {
        "generators": ["g1.json", "g2.json", "spec.json"],
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec", "ek": "auto"},
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", "conddec", "-p", str(project)]) == 0
    assert main(["check", "occ", "-p", str(project)]) == 0


def test_inline_generators_load(tmp_path, cell):
    doc = {
        "generators": [serialize_generator(cell.g1, "g1")],
    }
    project = tmp_path / "project.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_project(str(project))
    assert language_equal(loaded.generators["g1"], cell.g1).holds


def inline_project(cell) -> dict:
    """A valid project document with the workcell's generators inline."""
    return {
        "generators": [serialize_generator(g, name) for name, g in
                       (("g1", cell.g1), ("g2", cell.g2), ("spec", cell.k))],
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec", "ek": ["a1", "a2", "c", "u"]},
    }


@pytest.mark.parametrize("ek", ["auto", ["a1", "a2", "c", "u"]],
                         ids=["ek-auto", "ek-listed"])
def test_the_resolver_returns_the_search_report_under_auto_ek(tmp_path, cell,
                                                              ek):
    # The fifth value is the coordinator-event search's decomposability
    # verdict on K, and None when no search ran.
    doc = inline_project(cell)
    doc["coordination"]["ek"] = ek
    project = tmp_path / "p.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    k, g1, g2, gk, report = cli.resolve_coordination(
        load_project(str(project)))
    assert [g.alphabet for g in (k, g1, g2)] == [cell.full, cell.e1, cell.e2]
    if ek == "auto":
        assert report.holds
    else:
        assert report is None
        assert gk.alphabet == cell.ek


def put(doc, path, value):
    """``doc`` with the field at ``path`` (keys and indices) set to
    ``value``, where an index one past a list's end appends to the list;
    the empty path replaces the whole document."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, list) and path[-1] == len(node):
        node.append(value)
    else:
        node[path[-1]] = value
    return doc


GEN = ("generators", 0)
SPEC = ("generators", 2)
TRIPLES = "'transitions' must be [source, event, target] triples"
EK = "coordination 'ek' must be \"auto\" or a list of event names"
LONG = "an integer literal has more than 4300 digits"


def empty_g1(**fault) -> dict:
    """The workcell's g1 as a document of the empty language over its
    events, with the fields in ``fault`` replaced."""
    return {**serialize_generator(empty_generator(Alphabet(
        {"a1", "c", "u", "u1"}, {"a1", "c"})), "g1"), **fault}


# A generator named "auto": over {c}, with no transition.
AUTO = {"name": "auto", "events": [{"name": "c", "controllable": True}],
        "states": ["q0"], "initial": "q0", "transitions": []}


MALFORMED = [
    pytest.param(
        (*GEN, "states", 0), ["q0"],
        "{p} (inline): invalid state name: ['q0']",
        id="state-as-list"),
    pytest.param(
        (*GEN, "events", 0, "name"), ["a1"],
        "{p} (inline): each event needs a string 'name' and boolean "
        "'controllable'",
        id="event-name-as-list"),
    pytest.param((*GEN, "transitions", 0, 1), ["c"],
                 "{p} (inline): " + TRIPLES, id="transition-event-as-list"),
    pytest.param((*GEN, "transitions", 0), ["q0", "c"],
                 "{p} (inline): " + TRIPLES, id="origin-prefixed-once"),
    pytest.param((*GEN, "transitions"), 5, "{p} (inline): " + TRIPLES,
                 id="transitions-not-a-list"),
    pytest.param(
        (*GEN, "recognizes_empty_language"), "yes",
        "{p} (inline): 'recognizes_empty_language' must be a boolean",
        id="empty-flag-not-boolean"),
    # The empty-language flag exempts no field from validation.
    pytest.param(GEN, empty_g1(states=5),
                 "{p} (inline): 'states' must be a list of names and "
                 "'initial' a name", id="empty-states-not-a-list"),
    pytest.param(GEN, empty_g1(initial="zz"),
                 "{p} (inline): unknown initial state: 'zz'",
                 id="empty-unknown-initial-state"),
    pytest.param(GEN, empty_g1(transitions=[["q0", "zz", "q0"]]),
                 "{p} (inline): transition label 'zz' not in the alphabet",
                 id="empty-unknown-event"),
    pytest.param(
        ("coordination", "g1"), ["g1"],
        "coordination 'g1', 'g2', 'gk' and 'spec' must be generator names",
        id="g1-as-list"),
    pytest.param(("coordination",), {"g2": "g2", "spec": "spec"},
                 "coordination block is missing 'g1'",
                 id="coordination-without-g1"),
    pytest.param(("coordination", "ek"), 5, EK, id="ek-as-number"),
    pytest.param(("coordination", "ek"), "ab", EK, id="ek-as-string"),
    pytest.param(("coordination", "ek"), ["zz"],
                 "ek lists unknown events: ['zz']",
                 id="ek-lists-unknown-events"),
    pytest.param(("generators", 1, "events", 1, "controllable"), False,
                 "events ['c'] are controllable in one alphabet and "
                 "uncontrollable in another",
                 id="controllability-conflict"),
    pytest.param(("coordination", "ek"), ["a1", "a2", "u"],
                 "shared events ['c'] are outside the coordinator event set",
                 id="ek-leaves-a-shared-event-out"),
    pytest.param(("generators",), "g.json",
                 "{p}: project needs a 'generators' list",
                 id="generators-as-string"),
    pytest.param(("generators", 1, "name"), "g1",
                 "{p}: duplicate generator name 'g1'",
                 id="duplicate-generator-name"),
    pytest.param((*GEN, "events", 1, "name"), "a1",
                 "{p} (inline): duplicate event names",
                 id="duplicate-event-name"),
    pytest.param((), b"\xff{}",
                 "cannot read {p}: 'utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte",
                 id="not-utf-8"),
    pytest.param((), b"[" * 100000, "{p}: JSON nested too deeply",
                 id="nested-too-deeply"),
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal longer than sys.get_int_max_str_digits() (4300).
    pytest.param((), b'{"generators": [' + b"9" * 5000 + b"]}",
                 "{p}: invalid JSON: " + LONG, id="project-long-integer"),
    pytest.param(GEN, b'{"name": "g1", "events": [], "states": ['
                 + b"9" * 5000 + b"]}",
                 "{p.parent}/g.json: invalid JSON: " + LONG,
                 id="generator-file-long-integer"),
    # A lone surrogate decodes from JSON but cannot be printed as text.
    pytest.param((*GEN, "events", 0, "name"), "\ud800",
                 "{p} (inline): event name '\\ud800' is not valid Unicode "
                 "text", id="event-name-lone-surrogate"),
    pytest.param((*GEN, "name"), "\udcff",
                 "{p} (inline): generator name '\\udcff' is not valid "
                 "Unicode text", id="generator-name-lone-surrogate"),
    # The specification, which the plant-only checks never read.
    pytest.param((*SPEC, "states", 1), "q0",
                 "{p} (inline): duplicate state names",
                 id="spec-duplicate-states"),
    pytest.param((*SPEC, "initial"), "zz",
                 "{p} (inline): unknown initial state: 'zz'",
                 id="spec-unknown-initial-state"),
    pytest.param((*SPEC, "transitions", 1), ["q0", "a1", "q2"],
                 "{p} (inline): duplicate transition on ('q0', 'a1')",
                 id="spec-nondeterministic"),
    pytest.param((*SPEC, "transitions", 0), ["q0", "a1", "zz"],
                 "{p} (inline): transition 'q0'-'a1'->'zz' references an "
                 "unknown state", id="spec-unknown-state"),
    pytest.param((*SPEC, "transitions", 0), ["q0", "zz", "q1"],
                 "{p} (inline): transition label 'zz' not in the alphabet",
                 id="spec-unknown-event"),
    pytest.param((*SPEC, "transitions", 0), ["q0", "a1"],
                 "{p} (inline): " + TRIPLES, id="spec-bad-triple"),
    # Every document kind has a closed key set, so a misspelled optional
    # key is an error, not a default: "Ek" would run the search.
    pytest.param(("generator",), [],
                 "{p}: unknown project keys: ['generator']",
                 id="unknown-project-key"),
    pytest.param((*GEN, "transition"), [["q0", "c", "q1"]],
                 "{p} (inline): unknown generator keys: ['transition']",
                 id="unknown-generator-key"),
    pytest.param((*GEN, "events", 0, "controlable"), True,
                 "{p} (inline): unknown event keys: ['controlable']",
                 id="unknown-event-key"),
    pytest.param(("coordination",),
                 {"g1": "g1", "g2": "g2", "gk": "auto", "spec": "spec",
                  "Ek": ["a1", "a2", "c", "u"]},
                 "unknown coordination keys: ['Ek']",
                 id="unknown-coordination-key"),
    # "auto" as 'gk' always means the default coordinator, so it cannot
    # also name a generator: here one over {c} with no transition, which as
    # the coordinator would disable c.
    pytest.param(("generators", 3), AUTO,
                 "coordination 'gk' \"auto\" means the default coordinator, "
                 "yet a generator is named 'auto'",
                 id="gk-auto-names-a-generator"),
    pytest.param((), b'{"generators": [], "generators": []}',
                 "{p}: invalid JSON: key 'generators' is repeated in an "
                 "object", id="project-repeated-key"),
    pytest.param(GEN, b'{"name": "g1", "transitions": [], "transitions": []}',
                 "{p.parent}/g.json: invalid JSON: key 'transitions' is "
                 "repeated in an object", id="generator-file-repeated-key"),
]


def malformed_project(tmp_path, cell, path, value):
    """The workcell's inline project with ``value`` at ``path``, written to
    a file; returns its path.  Bytes at a non-empty path are written to the
    generator file ``g.json`` beside it, which the path then names."""
    project = tmp_path / "p.json"
    if path and isinstance(value, bytes):
        (tmp_path / "g.json").write_bytes(value)
        value = "g.json"
    doc = put(inline_project(cell), path, value)
    project.write_bytes(doc if isinstance(doc, bytes)
                        else json.dumps(doc).encode())
    return project


@pytest.mark.parametrize("path, value, message", MALFORMED)
def test_malformed_input_exits_2_with_one_line(tmp_path, cell, capsys, path,
                                               value, message):
    project = malformed_project(tmp_path, cell, path, value)
    assert main(["check", "conddec", "-p", str(project)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(p=project)}\n"
    assert captured.out == ""


def test_an_omitted_gk_means_the_default_coordinator_beside_one_named_auto(
        tmp_path, cell):
    doc = put(inline_project(cell), ("generators", 3), AUTO)
    del doc["coordination"]["gk"]
    project = tmp_path / "p.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    assert load_project(str(project)).coordination.gk is None


LOADING_FORMS = {
    **{which: ["check", which] for which in ("observer", "occ", "condindep",
                                             "optimality")},
    "info": ["info", "g1"],
    "compose": ["compose", "-o", "out.json", "g1", "g2"],
    "project": ["project", "-o", "out.json", "g1", "a1"],
}
# Only check and synth resolve the coordination block, and two of its
# faults show only then: a shared event left out of a listed E_k needs the
# built generators, and under "ek": "auto" the coordinator-event search
# checks that the spec covers E_1 ∪ E_2
# (test_auto_ek_needs_a_spec_over_both_subsystem_alphabets).
RESOLVED_ONLY = {"ek-leaves-a-shared-event-out"}


@pytest.mark.parametrize("path, value, message, form", [
    pytest.param(*case.values, LOADING_FORMS[name], id=f"{case.id}-{name}")
    for case in MALFORMED for name in LOADING_FORMS
    if LOADING_FORMS[name][0] == "check" or case.id not in RESOLVED_ONLY])
def test_checks_that_never_build_the_spec_still_validate_it(
        tmp_path, cell, capsys, monkeypatch, path, value, message, form):
    # Every generator and the coordination block are validated at load,
    # also by a command that never reads the spec or the block, so
    # the exit code and the line are those of check conddec, and no file
    # is written.
    project = malformed_project(tmp_path, cell, path, value)
    monkeypatch.chdir(tmp_path)
    files = sorted(tmp_path.iterdir())
    assert main([*form, "-p", str(project)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(p=project)}\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == files


def with_named_coordinator(cell, gk, ek) -> dict:
    """``inline_project(cell)`` with ``gk`` as the generator named "gk"
    and as the coordinator, and ``ek`` as its 'ek' (left out when None)."""
    doc = inline_project(cell)
    doc["generators"].append(serialize_generator(gk, "gk"))
    doc["coordination"]["gk"] = "gk"
    if ek is None:
        del doc["coordination"]["ek"]
    else:
        doc["coordination"]["ek"] = ek
    return doc


def every_output(directory, doc, monkeypatch) -> list:
    """Exit code, ``--json`` stdout and written files of every check and
    synthesis on the project ``doc``, run in ``directory`` with relative
    paths, so that runs in two directories print the same paths."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    (directory / "p.json").write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for argv in ([["check", which] for which in cli.CHECKS]
                 + [["synth", mode, "-o", "out"] for mode in cli.SYNTH_MODES]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "-p", "p.json", "--json"])
        outputs.append((argv, code, stdout.getvalue()))
    outputs.append({path.name: path.read_bytes()
                    for path in sorted((directory / "out").iterdir())})
    return outputs


@pytest.mark.parametrize("ek", [["a1", "a2", "c", "u"], None],
                         ids=["ek-listed", "ek-left-out"])
def test_a_named_coordinator_gives_the_outputs_of_the_built_one(
        tmp_path, cell, monkeypatch, ek):
    # cell.gk is the coordinator that "gk": "auto" builds for these events.
    built = every_output(tmp_path / "auto", inline_project(cell),
                         monkeypatch)
    named = every_output(tmp_path / "named",
                         with_named_coordinator(cell, cell.gk, ek),
                         monkeypatch)
    assert named == built
    # supc and supcc write five generators; K is not conditionally
    # controllable, so supervisors writes none.
    assert sorted(built[-1]) == ["composed.json", "sup_1k.json",
                                 "sup_2k.json", "sup_k.json", "supc.json"]


@pytest.mark.parametrize("gk_events, ek, message", [
    pytest.param({"a1", "a2", "c", "u"}, ["a1", "a2", "c"],
                 "ek does not match the named coordinator's alphabet",
                 id="ek-differs-from-gk"),
    pytest.param({"a1", "z"}, None,
                 "the specification alphabet must equal E_1 ∪ E_2 ∪ E_k",
                 id="gk-outside-the-spec-alphabet"),
])
def test_a_named_coordinator_must_fit_the_project(tmp_path, cell, capsys,
                                                   monkeypatch, gk_events, ek,
                                                   message):
    gk = universal_generator(Alphabet(gk_events, gk_events - {"u"}))
    project = tmp_path / "p.json"
    project.write_text(json.dumps(with_named_coordinator(cell, gk, ek)),
                       encoding="utf-8")
    assert main(["check", "conddec", "-p", str(project)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    # The block is checked at load, so every command rejects it alike.
    monkeypatch.chdir(tmp_path)
    for name in ("info", "compose", "project"):
        assert main([*LOADING_FORMS[name], "-p", str(project)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == [project]


@pytest.mark.parametrize("gk, ek", [
    pytest.param("auto", ["a1", "a2", "c", "u"], id="gk-auto-ek-listed"),
    pytest.param("auto", "auto", id="gk-auto-ek-auto"),
    pytest.param("gk", None, id="gk-named-ek-left-out"),
    pytest.param("gk", ["u", "c", "a2", "a1"], id="gk-named-ek-equal"),
])
def test_the_block_is_read_into_a_coordination_record(tmp_path, cell, gk, ek):
    # E_k is derived once, at load: the named coordinator's alphabet or the
    # listed events; None leaves it to the coordinator-event search.
    doc = with_named_coordinator(cell, cell.gk, ek)
    doc["coordination"]["gk"] = gk
    project = tmp_path / "p.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    assert load_project(str(project)).coordination == cli.Coordination(
        "g1", "g2", "spec", None if gk == "auto" else "gk",
        None if ek == "auto" else cell.ek)


def test_a_project_without_coordination_serves_the_generator_commands(
        tmp_path, cell, capsys, monkeypatch):
    doc = inline_project(cell)
    del doc["coordination"]
    project = tmp_path / "p.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for name in ("info", "compose", "project"):
        assert main([*LOADING_FORMS[name], "-p", str(project)]) == 0
        assert capsys.readouterr().err == ""
    assert (tmp_path / "out.json").is_file()
    for argv in (["check", "occ"], ["synth", "supc", "-o", "synth"]):
        assert main([*argv, "-p", str(project)]) == 2
        assert capsys.readouterr() == (
            "", "error: project has no 'coordination' block\n")
    assert not (tmp_path / "synth").exists()


def test_auto_ek_needs_a_spec_over_both_subsystem_alphabets(tmp_path, cell,
                                                            capsys):
    spec = from_words(cell.full.restrict(cell.full.events - {"u1"}),
                      ["a2.a1", "a1.a2.u"])
    doc = inline_project(cell)
    doc["generators"][2] = serialize_generator(spec, "spec")
    doc["coordination"]["ek"] = "auto"
    project = tmp_path / "p.json"
    project.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", "conddec", "-p", str(project)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the specification must cover both "
                            "subsystem alphabets\n")
    assert captured.out == ""


def test_check_condctrl_reports_a_spec_outside_the_plant(tmp_path, cell,
                                                         capsys):
    # a2.a1 is in the plant, but neither machine can start c after its
    # private start.
    project = write_project(tmp_path, cell, spec_words=("a2.a1.c",))
    assert main(["check", "condctrl", "-p", str(project)]) == 1
    assert capsys.readouterr().out.startswith(
        "[FAIL] precondition: specification is not contained in the plant "
        "language: counterexample=a2.a1.c ")


def test_condctrl_and_supervisors_report_a_spec_outside_the_plant_alike(
        tmp_path, cell, capsys):
    project = write_project(tmp_path, cell, spec_words=("a2.a1.c",))
    out = tmp_path / "out"
    for argv in (["check", "condctrl"], ["synth", "supervisors", "-o",
                                         str(out)]):
        assert main([*argv, "-p", str(project)]) == 1
        assert capsys.readouterr().out == (
            "[FAIL] precondition: specification is not contained in the "
            "plant language: counterexample=a2.a1.c (word is in the left "
            "language only)\n")


FIELDS = [
    (), ("generators",), ("coordination",), GEN, (*GEN, "name"),
    (*GEN, "events"), (*GEN, "events", 0), (*GEN, "events", 0, "name"),
    (*GEN, "events", 0, "controllable"), (*GEN, "states"),
    (*GEN, "states", 0), (*GEN, "initial"), (*GEN, "transitions"),
    (*GEN, "transitions", 0), (*GEN, "transitions", 0, 0),
    (*GEN, "transitions", 0, 1), (*GEN, "recognizes_empty_language"),
    (*GEN, "marked"),
    *(("coordination", key) for key in ("g1", "g2", "gk", "spec", "ek")),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@given(st.sampled_from(FIELDS), JSON_VALUES,
       st.sampled_from([["check", "conddec"], ["check", "occ"],
                        ["info", "g1"]]))
@settings(max_examples=150, deadline=None)
def test_arbitrary_json_in_any_field_never_escapes(tmp_path_factory, cell,
                                                   path, value, command):
    project = tmp_path_factory.getbasetemp() / "fuzz.json"
    project.write_text(json.dumps(put(inline_project(cell), path, value)),
                       encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main([*command, "-p", str(project)])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_each_check_runs_only_its_own_check(tmp_path, cell, monkeypatch,
                                            capsys):
    project = write_project(tmp_path, cell)
    calls = collections.Counter()
    for name in ("is_observer", "is_occ"):
        def counted(*args, _check=getattr(coordination, name), _name=name):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(coordination, name, counted)
    assert main(["check", "occ", "-p", str(project)]) == 0
    assert calls == {"is_occ": 2}
    calls.clear()
    assert main(["check", "observer", "-p", str(project)]) == 0
    assert calls == {"is_observer": 2}
    capsys.readouterr()


def test_auto_event_search_decides_the_chosen_set_once(tmp_path, monkeypatch,
                                                       capsys):
    # The search tries {}, {a1} and {a1, a2}; the verdict printed for
    # {a1, a2} is the one the search reached, not a fourth decision.
    k, g1, g2 = buffered_line(4, 2, 2)
    for name, g in (("g1", g1), ("g2", g2), ("spec", k)):
        (tmp_path / f"{name}.json").write_text(generator_to_text(g, name),
                                               encoding="utf-8")
    project = tmp_path / "project.json"
    project.write_text(json.dumps({
        "generators": ["g1.json", "g2.json", "spec.json"],
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec", "ek": "auto"},
    }), encoding="utf-8")
    decided = []
    decide = coordination._decomposable
    search = coordination.suggest_coordinator_events

    def counted(*args):
        decided.append(decide(*args))
        return decided[-1]

    def searched(*args):
        ek, report = search(*args)
        tried.append(len(decided))
        return ek, report

    tried = []
    monkeypatch.setattr(coordination, "_decomposable", counted)
    monkeypatch.setattr(cli, "suggest_coordinator_events", searched)
    assert main(["check", "conddec", "-p", str(project), "--json"]) == 0
    assert tried == [3] and len(decided) == 3
    assert [r.counterexample for r in decided] == [("a2",), ("a1", "a2"),
                                                   None]
    assert json.loads(capsys.readouterr().out)["holds"] is True


def built_generators(monkeypatch, cell) -> collections.Counter:
    """Count, by generator name, the project generators that the CLI
    builds, told apart by their alphabets."""
    names = {cell.e1: "g1", cell.e2: "g2", cell.full: "spec"}
    built = collections.Counter()
    build = cli._canonicalize

    def counted(alphabet, *args):
        built[names[alphabet]] += 1
        return build(alphabet, *args)

    monkeypatch.setattr(cli, "_canonicalize", counted)
    return built


def test_a_written_file_is_read_back_without_a_search(monkeypatch):
    # The rows of a file desc wrote are in canonical order, so loading it
    # renumbers nothing; a copy with its triples reversed needs the search.
    searches = []
    real = automata.search

    def search(*args):
        searches.append(args)
        return real(*args)

    g = buffered_line(6, 3, 2)[0]
    doc = json.loads(generator_to_text(g, "spec"))
    monkeypatch.setattr(automata, "search", search)
    back = parse_generator(doc)[1]
    assert searches == []
    assert generator_to_text(back, "spec") == generator_to_text(g, "spec")
    doc["transitions"].reverse()
    again = parse_generator(doc)[1]
    assert len(searches) == 1
    assert generator_to_text(again, "spec") == generator_to_text(g, "spec")


def test_the_package_parse_generator_is_the_cli_one(cell):
    doc = serialize_generator(cell.g1, "g1")
    name, g = descoord.parse_generator(doc, "g1.json")
    cli_name, cli_g = parse_generator(doc, "g1.json")
    assert name == cli_name == "g1"
    assert generator_to_text(g, name) == generator_to_text(cli_g, name)
    doc["states"] = 5
    with pytest.raises(ProjectError) as shim:
        descoord.parse_generator(doc, "g1.json")
    with pytest.raises(ProjectError) as direct:
        parse_generator(doc, "g1.json")
    assert str(shim.value) == str(direct.value) == (
        "g1.json: 'states' must be a list of names and 'initial' a name")


EVERY = {"g1": 1, "g2": 1, "spec": 1}


BUILDS = [
    ["check", "observer"], ["check", "occ"], ["check", "condindep"],
    ["check", "optimality"], ["check", "controllability"],
    ["check", "conddec"], ["check", "condctrl"],
    ["synth", "supcc", "-o", "out"],
    ["compose", "-o", "composed.json", "g1", "g2"], ["info", "spec"],
]


@pytest.mark.parametrize("argv", BUILDS, ids=["-".join(argv)
                                              for argv in BUILDS])
def test_every_command_builds_each_generator_once(
        tmp_path, cell, monkeypatch, capsys, argv):
    # The load builds every generator of the project, whichever the
    # command reads.
    project = write_project(tmp_path, cell)
    monkeypatch.chdir(tmp_path)
    counts = built_generators(monkeypatch, cell)
    assert main([*argv, "-p", str(project)]) in (0, 1)
    assert counts == EVERY


@pytest.mark.parametrize("argv", [["check", "controllability"],
                                  ["synth", "supc", "-o", "out"]],
                         ids=["check", "synth"])
def test_the_plant_is_built_from_g2_with_gk_first(tmp_path, cell, monkeypatch,
                                                  capsys, argv):
    # G_2 ∥ G_k and then G_1 with it, never G_1 ∥ G_2, which is the large
    # intermediate on a long line.
    project = write_project(tmp_path, cell)
    monkeypatch.chdir(tmp_path)
    operands = []
    product = language.sync_product

    def counted(a, b):
        operands.append((a.alphabet, b.alphabet))
        return product(a, b)

    monkeypatch.setattr(language, "sync_product", counted)
    assert main([*argv, "-p", str(project)]) in (0, 1)
    assert operands == [(cell.e2, cell.ek), (cell.e1, cell.scheme.e2k)]


@pytest.mark.parametrize("which", cli.CHECKS)
def test_the_coordinator_event_search_builds_the_spec_once(
        tmp_path, cell, monkeypatch, capsys, which):
    project = write_project(tmp_path, cell)
    doc = json.loads(project.read_text(encoding="utf-8"))
    doc["coordination"]["ek"] = "auto"
    project.write_text(json.dumps(doc), encoding="utf-8")
    counts = built_generators(monkeypatch, cell)
    assert main(["check", which, "-p", str(project)]) in (0, 1)
    assert counts == EVERY


def test_the_load_builds_each_generator_once(tmp_path, cell, monkeypatch):
    counts = built_generators(monkeypatch, cell)
    generators = load_project(str(write_project(tmp_path, cell))).generators
    assert counts == EVERY
    assert "spec" in generators and "gk" not in generators
    assert list(generators) == ["g1", "g2", "spec"] and len(generators) == 3
    spec = generators["spec"]
    assert generators["spec"] is spec
    assert counts == EVERY
    assert language_equal(spec, cell.k).holds
    with pytest.raises(TypeError):
        generators["spec"] = cell.k


def test_an_unchanged_project_is_read_and_built_once(tmp_path, cell,
                                                    monkeypatch, capsys):
    project = write_project(tmp_path, cell)
    built = built_generators(monkeypatch, cell)
    validated = []
    validate = cli._validated

    def counted(states, alphabet, *args):
        validated.append(alphabet)
        return validate(states, alphabet, *args)

    monkeypatch.setattr(cli, "_validated", counted)
    for which in ("conddec", "controllability"):
        assert main(["check", which, "-p", str(project)]) in (0, 1)
    assert validated == [cell.e1, cell.e2, cell.full]
    assert built == EVERY


def edit_in_place(path, old: str, new: str) -> None:
    """Replace ``old`` by ``new``, of the same length, in the file at
    ``path``, and give the file back its size and times."""
    stat = path.stat()
    text = path.read_text(encoding="utf-8")
    assert len(old) == len(new) and old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (
        stat.st_size, stat.st_mtime_ns)


def test_an_edit_that_keeps_size_and_mtime_is_read(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    argv = ["check", "controllability", "-p", str(project)]
    assert main(argv) == 1
    assert "counterexample=a2.a1.u " in capsys.readouterr().out
    # a1 and a2 trade places: the same events, another language.
    edit_in_place(tmp_path / "spec.json", '"a1"', '"X!"')
    edit_in_place(tmp_path / "spec.json", '"a2"', '"a1"')
    edit_in_place(tmp_path / "spec.json", '"X!"', '"a2"')
    assert main(argv) == 1
    assert "counterexample=a1.a2.u " in capsys.readouterr().out


def test_an_edit_that_breaks_the_spec_fails_the_next_load(
        tmp_path, cell, monkeypatch, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "conddec", "-p", str(project)]) == 0
    capsys.readouterr()
    spec = tmp_path / "spec.json"
    edit_in_place(spec, '"transitions"', '"transitionz"')
    built = built_generators(monkeypatch, cell)
    assert main(["check", "observer", "-p", str(project)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {spec}: unknown generator keys: "
                            f"['transitionz']\n")
    assert captured.out == "" and built == {}


def test_a_file_that_cannot_be_read_fails_the_next_load(
        tmp_path, cell, monkeypatch, capsys):
    project = write_project(tmp_path, cell)
    assert main(["check", "conddec", "-p", str(project)]) == 0
    capsys.readouterr()
    g2 = tmp_path / "g2.json"
    text = g2.read_bytes()
    g2.unlink()
    argv = ["info", "g1", "-p", str(project)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {g2}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    # Restored, the project is read and built afresh.
    g2.write_bytes(text)
    built = built_generators(monkeypatch, cell)
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("generator g1: ")
    assert built == EVERY


def test_the_marked_warnings_print_on_every_load(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    for name in ("g1", "spec"):
        path = tmp_path / f"{name}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["marked"] = ["q0"]
        path.write_text(json.dumps(doc), encoding="utf-8")
    warnings = "".join(f"warning: {tmp_path / name}.json: 'marked' ignored "
                       f"(prefix-closed convention)\n"
                       for name in ("g1", "spec"))
    for which in ("conddec", "conddec", "observer"):
        assert main(["check", which, "-p", str(project)]) == 0
        assert capsys.readouterr().err == warnings


def test_only_the_last_project_is_kept(tmp_path, cell):
    (tmp_path / "first").mkdir()
    (tmp_path / "other").mkdir()
    first = write_project(tmp_path / "first", cell)
    other = write_project(tmp_path / "other", cell)
    project = load_project(str(first))
    kept = weakref.ref(project)
    del project
    gc.collect()
    assert load_project(str(first)) is kept()
    load_project(str(other))
    gc.collect()
    assert kept() is None


COMMAND_FORMS = ([["check", which] for which in cli.CHECKS]
                 + [["synth", mode, "-o", "out"] for mode in cli.SYNTH_MODES]
                 + [["compose", "-o", "composed.json", "g1", "g2"],
                    ["project", "-o", "projected.json", "g1", "a1"],
                    ["info", "g1"]])


@pytest.mark.parametrize("instance", ["workcell", "buffered-line"])
def test_no_command_leaves_cyclic_garbage(tmp_path, cell, monkeypatch,
                                          instance):
    # The collector finds no more unreachable objects after a command
    # than argparse alone leaves behind: the engine and the project's
    # generators make no reference cycles.
    project = (write_project(tmp_path, cell) if instance == "workcell"
               else write_line_project(tmp_path, "auto", (20, 3, 3)))
    monkeypatch.chdir(tmp_path)
    for form in COMMAND_FORMS:
        argv = [*form, "-p", str(project)]
        gc.collect()
        build_parser().parse_args(argv)
        parser_garbage = gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 1)
        assert gc.collect() <= parser_garbage, form


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code, message", [
    (["check", "conddec"], 0, "[PASS] "),
    (["check", "condctrl"], 1, "precondition: "),
    (["info", "nothing"], 2, "error: "),
    (["check", "conddec", "--no-such-flag"], 2,
     "error: unrecognized arguments: --no-such-flag\n"),
], ids=["exit-0", "exit-1", "exit-2", "argparse"])
def test_main_leaves_the_collector_as_it_found_it(
        tmp_path, cell, capsys, collector, enabled, argv, code, message):
    # The precondition (exit 1) is the spec outside the plant; exit 2 is
    # an unknown generator.
    project = write_project(tmp_path, cell, spec_words=(
        ("a2.a1.c",) if code == 1 else ("a2.a1", "a1.a2.u")))
    (gc.enable if enabled else gc.disable)()
    assert main([*argv, "-p", str(project)]) == code
    assert gc.isenabled() is enabled
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert captured.err.count("\n") == (code == 2)


def test_synth_supc_runs_no_collection(tmp_path, collector):
    # Without the pause in ``main``, this command starts 23 collections
    # here.
    project = write_line_project(tmp_path, ["a1", "a2", "b1", "b2"],
                                 (10, 10, 10))
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "supc", "-p", str(project),
                         "-o", str(tmp_path / "out")]) == 0
    finally:
        gc.callbacks.remove(record)
    assert starts == []


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_the_library_leaves_the_collector_alone(cell, collector, monkeypatch,
                                                enabled):
    k, g1, g2 = buffered_line(6, 3, 3)
    (gc.enable if enabled else gc.disable)()
    touched = []
    for name in ("enable", "disable", "freeze", "unfreeze", "collect"):
        monkeypatch.setattr(gc, name, lambda *args, name=name:
                            touched.append(name))
    sup_c(k, sync_product(g1, g2))
    sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    assert (touched, gc.isenabled()) == ([], enabled)


def test_the_cli_module_runs_under_warnings_as_errors(tmp_path):
    # The package does not import ``descoord.cli``, so runpy does not warn
    # that the module it is about to run was already imported.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "descoord.cli", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ")


def json_nodes(doc, path=()):
    """The path of every node of a JSON document, the root's included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from json_nodes(child, (*path, key))


FUZZ_VALUES = [None, 0, 1, -1, 0.5, 1e300, True, False, "", "auto", "q0",
               "c", "g1", "spec", [], [[]], [None], ["q0", "c", "q0"], {},
               {"name": "g1"}, {"g1": []}, [{}]]


def test_replacing_any_node_of_a_project_never_escapes(tmp_path, cell,
                                                       monkeypatch):
    # A seeded sample of one node of the project replaced by one value,
    # under one command form.
    monkeypatch.chdir(tmp_path)
    paths = list(json_nodes(inline_project(cell)))
    rng = random.Random(7)
    for _ in range(2500):
        path, value = rng.choice(paths), rng.choice(FUZZ_VALUES)
        argv = [*rng.choice(COMMAND_FORMS), "-p", "p.json"]
        doc = put(inline_project(cell), path, value)
        (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (path, value, argv)
        if code == 2:
            assert err.getvalue().count("\n") == 1, (path, value, argv)
            assert err.getvalue().endswith("\n"), (path, value, argv)
