"""End-to-end tests of the command-line interface and its file formats."""

import json

import pytest

from descoord import (
    empty_generator,
    from_words,
    language_equal,
    sync_product,
    universal_generator,
)
from descoord.cli import (
    generator_to_text,
    load_project,
    main,
    parse_generator,
    serialize_generator,
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


def test_info_command(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    assert main(["info", "-p", str(project), "g1"]) == 0
    out = capsys.readouterr().out
    assert "a1" in out and "states" in out
    assert main(["info", "-p", str(project), "g1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["reachable_events"] == ["a1", "c", "u", "u1"]
    assert record["sample_words"][0] == "ε"


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "not-a-check", "-p", "x.json"])
    assert info.value.code == 2
    capsys.readouterr()


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


def test_negative_oracle_bound_is_a_usage_error(tmp_path, cell, capsys):
    project = write_project(tmp_path, cell)
    for argv in (["check", "conddec"],
                 ["synth", "supc", "-o", str(tmp_path / "out")]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "-p", str(project), "--oracle-bound", "-1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--oracle-bound: must be >= 0, got -1" in err
        assert "Traceback" not in err


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
