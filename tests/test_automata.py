"""Tests for generators, alphabets and the basic language queries."""

import collections
import dataclasses
import importlib
import inspect
import json
import pkgutil
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descoord
from descoord import automata
from descoord import (
    Alphabet,
    ConditionalControllabilityReport,
    ControllabilityConflictError,
    DeterminismError,
    PropertyReport,
    SynthesisResult,
    ValidationError,
    empty_generator,
    format_word,
    from_words,
    make_generator,
    membership,
    parse_word,
    reachable_events,
    shortest_words,
    sync_product,
    union_alphabets,
    universal_generator,
)
from descoord.cli import load_project
from descoord.oracle import bounded_language

from helpers import (
    generators,
    is_prefix_closed,
    lang,
    random_generator,
    reference_make_generator,
    reference_parse,
    serialize_generator,
    w,
)


AB = Alphabet({"a", "b"}, {"a", "b"})


def test_make_generator_canonical_ids_and_marking():
    g = make_generator(
        ["x", "y", "z"], AB,
        [("x", "a", "y"), ("y", "b", "x")], "x",
    )
    assert g.run(()) == 0
    assert g.labels[0] == "q0"
    assert g.labels == ("q0", "q1")  # z is unreachable and dropped


def test_make_generator_rejects_nondeterminism():
    with pytest.raises(DeterminismError):
        make_generator(
            ["1", "2", "3"], AB,
            [("1", "a", "2"), ("1", "a", "3")], "1",
        )


def test_make_generator_rejects_unknown_references():
    with pytest.raises(ValidationError):
        make_generator(["1"], AB, [("1", "a", "ghost")], "1")
    with pytest.raises(ValidationError):
        make_generator(["1"], AB, [("1", "nope", "1")], "1")
    with pytest.raises(ValidationError):
        make_generator(["1"], AB, [], "ghost")
    with pytest.raises(ValidationError):
        make_generator(["1", "1"], AB, [], "1")


@pytest.mark.parametrize("transitions, initial", [
    pytest.param([(["x"], "a", "x")], "x", id="source-as-list"),
    pytest.param([("x", ["a"], "x")], "x", id="event-as-list"),
    pytest.param([("x", "a", ["x"])], "x", id="target-as-list"),
    pytest.param([], ["x"], id="initial-as-list"),
])
def test_make_generator_rejects_names_that_are_lists(transitions, initial):
    with pytest.raises(ValidationError):
        make_generator(["x"], AB, transitions, initial)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Alphabet(["a", ["b"]], []), id="event"),
    pytest.param(lambda: Alphabet({"a"}, [["a"]]), id="controllable"),
    pytest.param(lambda: AB.restrict([["a"]]), id="restrict"),
    pytest.param(lambda: AB.restrict("ab"), id="restrict-to-a-string"),
])
def test_alphabet_rejects_malformed_event_collections(build):
    with pytest.raises(ValidationError):
        build()


def package_dataclasses() -> set[type]:
    """Every dataclass defined in a module of the ``descoord`` package."""
    found = set()
    for info in pkgutil.iter_modules(descoord.__path__):
        module = importlib.import_module(f"descoord.{info.name}")
        found.update(value for value in vars(module).values()
                     if inspect.isclass(value)
                     and dataclasses.is_dataclass(value)
                     and value.__module__ == module.__name__)
    return found


def test_generators_are_immutable(cell, tmp_path):
    g = cell.g1
    with pytest.raises(TypeError):
        g.rows[0]["x"] = 0
    path = tmp_path / "project.json"
    path.write_text(json.dumps(
        {"generators": [serialize_generator(g, "g1")],
         "coordination": {"g1": "g1", "g2": "g1", "spec": "g1",
                          "ek": ["c"]}}), encoding="utf-8")
    # A project loaded twice is one object, shared between commands.
    project = load_project(str(path))
    assert load_project(str(path)) is project
    with pytest.raises(TypeError):
        project.generators["g2"] = g
    with pytest.raises(TypeError):
        project.generators["g1"].rows[0]["x"] = 0
    with pytest.raises(TypeError):
        project.coordination["gk"] = "g1"
    with pytest.raises(AttributeError):
        project.coordination.gk = "g1"
    assert project.coordination.ek == cell.e1.restrict(["c"])
    again = load_project(str(path)).generators["g1"]
    assert (again.alphabet, again.rows) == (g.alphabet, g.rows)
    report = PropertyReport(True)
    values = (g, cell.e1, report,
              ConditionalControllabilityReport(report, report, report),
              SynthesisResult(g, g, g, g), cell.scheme, project)
    # One value of every dataclass of the package, so a new one joins.
    assert {type(value) for value in values} == package_dataclasses()
    for value in values:
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))


ALPHABETS = st.lists(
    st.dictionaries(st.sampled_from("abcde"), st.booleans()).map(
        lambda flags: Alphabet(flags, {e for e, c in flags.items() if c})),
    min_size=1, max_size=4)


@given(ALPHABETS, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_union_alphabets_raises_exactly_on_a_conflict(alphabets, rng):
    conflicts = sorted({event for a in alphabets for b in alphabets
                        for event in a.controllable & b.uncontrollable})
    if conflicts:
        with pytest.raises(ControllabilityConflictError) as info:
            union_alphabets(*alphabets)
        assert str(info.value) == (f"events {conflicts} are controllable in "
                                   f"one alphabet and uncontrollable in "
                                   f"another")
        return
    union = union_alphabets(*alphabets)
    assert union.events == set().union(*(a.events for a in alphabets))
    assert union.controllable == set().union(*(a.controllable
                                               for a in alphabets))
    rng.shuffle(alphabets)
    assert union_alphabets(*alphabets) == union


def test_read_api_agrees_with_the_rows(cell):
    g = cell.g1
    assert g.num_transitions == sum(len(row) for row in g.rows) == 4
    assert g.step(0, "c") == g.rows[0]["c"]
    assert g.step(0, "u") is None
    assert g.run(("c", "u1")) == g.rows[g.rows[0]["c"]]["u1"]
    assert g.run(("u",)) is None


def test_alphabet_validation():
    with pytest.raises(ValidationError):
        Alphabet({"a"}, {"zzz"})
    with pytest.raises(ValidationError):
        Alphabet({""}, set())
    alpha = Alphabet({"a", "b", "u"}, {"a"})
    assert alpha.uncontrollable == {"b", "u"}


def test_a_failing_report_needs_a_counterexample():
    with pytest.raises(ValidationError,
                       match="failing report requires a counterexample"):
        PropertyReport(False)


@pytest.mark.parametrize("holds", [True, False])
def test_a_report_is_true_exactly_when_it_holds(holds):
    report = PropertyReport(holds, None if holds else ("a",))
    passing = PropertyReport(True)
    full = ConditionalControllabilityReport(passing, passing, report)
    assert bool(report) is bool(full) is full.holds is holds
    assert full.first_failure() is (None if holds else report)


def test_single_state_generator_recognizes_epsilon(cell):
    g = make_generator(["only"], cell.e1, [], "only")
    assert membership(g, ())
    assert not membership(g, ("c",))


def test_membership_examples(cell):
    plant = sync_product(cell.g1, cell.g2)
    assert membership(plant, w("c.u1.u2"))
    assert membership(plant, ())
    assert not membership(cell.g1, w("u1"))
    with pytest.raises(ValidationError):
        membership(cell.g1, ("not-an-event",))


@pytest.mark.parametrize("word", [("zz",), ("a", "zz"), ("b", "zz"),
                                  ("a", "a", "zz"), ("zz", "a"),
                                  (["a"],), ("a", ["a"]), ({"a"},),
                                  ("b", {"a"}, "a")])
def test_an_unknown_event_anywhere_in_a_word_raises(word):
    # The run of ("b", "zz") dies on b in the first two generators, and
    # every run dies at once in the empty one; the word is invalid anyway.
    # An event that is not a string, even an unhashable one, is no event.
    bad = next(event for event in word if event not in ("a", "b"))
    message = re.escape(f"{bad!r} not in the alphabet")
    for g in (lang(AB, "a"), make_generator(["q"], AB, [], "q"),
              empty_generator(AB), universal_generator(AB)):
        with pytest.raises(ValidationError, match=message):
            membership(g, word)
        with pytest.raises(ValidationError, match=message):
            g.run(iter(word))
    with pytest.raises(ValidationError, match=message):
        from_words(AB, [("a",), word])


def test_empty_generator():
    g = empty_generator(AB)
    assert g.recognizes_empty_language
    assert not membership(g, ())
    assert not membership(g, ("a",))
    assert reachable_events(g) == frozenset()
    assert bounded_language(g, 3) == frozenset()


def test_universal_generator():
    g = universal_generator(AB)
    assert membership(g, ("a", "b", "b", "a"))


def test_parsing_drops_unreachable_states():
    g = make_generator(
        ["x", "y", "dead"], AB,
        [("x", "a", "y"), ("dead", "b", "x")], "x",
    )
    assert g.num_states == 2
    assert g.labels == ("q0", "q1")
    assert g.rows == ({"a": 1}, {})
    assert bounded_language(g, 4) == {(), ("a",)}


def table_words(table, initial, bound):
    """The words of length <= bound along which ``table``, a
    ``{(state, event): state}`` dict, stays defined from ``initial``."""
    words, frontier = {()}, [((), initial)]
    for _ in range(bound):
        frontier = [(word + (event,), table[state, event])
                    for word, state in frontier for event in "abc"
                    if (state, event) in table]
        words.update(word for word, _ in frontier)
    return words


def test_parsing_keeps_the_language_of_the_table():
    rng = random.Random(7)
    alpha = Alphabet({"a", "b", "c"}, {"a"})
    dropped = 0
    for _ in range(25):
        table = {
            (f"s{rng.randrange(4)}", e): f"s{rng.randrange(4)}"
            for e in "abc" for _ in range(2)
            if rng.random() < 0.7
        }
        g = make_generator([f"s{i}" for i in range(4)], alpha,
                           [(*key, dst) for key, dst in table.items()], "s0")
        dropped += g.num_states < 4
        assert bounded_language(g, 8) == table_words(table, "s0", 8)
    assert dropped >= 5


@st.composite
def named_tables(draw):
    """``(states, alphabet, triples, initial)`` of a valid named
    generator, its states and triples in shuffled order, often with
    unreachable states."""
    events = ["a", "b", "c"][: draw(st.integers(1, 3))]
    names = draw(st.lists(st.text("xyz", min_size=1, max_size=3),
                          min_size=1, max_size=6, unique=True))
    table = draw(st.dictionaries(
        st.tuples(st.sampled_from(names), st.sampled_from(events)),
        st.sampled_from(names), max_size=len(names) * len(events)))
    triples = [(src, event, dst) for (src, event), dst in table.items()]
    if draw(st.booleans()):
        # a state nothing leads to, with a way into the others
        triples.append(("dead", events[0], names[0]))
        names = [*names, "dead"]
    return (draw(st.permutations(names)), Alphabet(events, events),
            draw(st.permutations(triples)), draw(st.sampled_from(names)))


@given(named_tables())
@settings(max_examples=200, deadline=None)
def test_parsing_matches_the_route_it_replaced(named):
    states, alphabet, triples, initial = named
    g = make_generator(states, alphabet, triples, initial)
    rows = reference_parse(states, triples, initial)
    assert [list(row.items()) for row in g.rows] == \
        [list(row.items()) for row in rows]


UNREACHABLE_ERRORS = [
    ([("dead", "c", "x")], ValidationError,
     "transition label 'c' not in the alphabet"),
    ([("dead", "a", "ghost")], ValidationError,
     "transition 'dead'-'a'->'ghost' references an unknown state"),
    ([("dead", "a", "x"), ("dead", "a", "dead")], DeterminismError,
     "duplicate transition on ('dead', 'a')"),
    ([("dead", "a")], ValidationError,
     "'transitions' must be [source, event, target] triples"),
    ({("dead", "a"): "x"}, ValidationError,
     "'transitions' must be [source, event, target] triples"),
]


@pytest.mark.parametrize("triples, error, message", UNREACHABLE_ERRORS)
def test_transitions_of_unreachable_states_are_validated(triples, error,
                                                         message):
    with pytest.raises(error) as info:
        make_generator(["x", "dead"], AB, triples, "x")
    assert str(info.value) == message


@pytest.mark.parametrize("triples, error, message", UNREACHABLE_ERRORS)
def test_transitions_given_as_an_iterator_are_validated_alike(triples, error,
                                                              message):
    # The triples are read once, so an iterator is checked as a list is.
    with pytest.raises(error) as info:
        make_generator(["x", "dead"], AB, iter(triples), "x")
    assert str(info.value) == message


ABC = Alphabet({"a", "b", "c"}, {"a"})


def document_variants(rng) -> dict:
    """A seeded random document as drawn, often with a non-zero initial
    state and unreachable states; the file of its generator, which is in
    canonical order; and that file shuffled four ways: triple order, state
    list order (which moves the initial state off index 0), events within
    each row, and a state nothing reaches added at a random place."""
    n = rng.randint(1, 5)
    triples = [(f"s{q}", event, f"s{rng.randrange(n)}") for q in range(n)
               for event in "abc" if rng.random() < 0.5]
    drawn = ([f"s{i}" for i in range(n)], triples, f"s{rng.randrange(n)}")
    doc = serialize_generator(make_generator(drawn[0], ABC, *drawn[1:]), "g")
    states, triples, initial = doc["states"], doc["transitions"], "q0"
    by_row = []
    for src in states:
        row = [triple for triple in triples if triple[0] == src]
        by_row += rng.sample(row, len(row))
    dead = [*states]
    dead.insert(rng.randint(0, len(states)), "dead")
    return {"drawn": drawn, "written": (states, triples, initial),
            "triple order": (states, rng.sample(triples, len(triples)),
                             initial),
            "state order": (rng.sample(states, len(states)), triples,
                            initial),
            "row order": (states, by_row, initial),
            "dead state": (dead, [*triples, ("dead", "b", states[-1])],
                           initial)}


def corruptions(rng, states, triples, initial):
    """Single-node corruptions of a document with at least one triple:
    each replaces one triple, or adds one, or replaces a state name."""
    at = rng.randrange(len(triples))
    src, event, dst = triples[at]
    other = rng.choice(states)
    replaced = [
        (src, "z", dst), (src, event, "ghost"), ("ghost", event, dst),
        (src, event), (src, event, dst, dst), "q0a", None, {src: dst},
        (1, event, dst), (src, None, dst), (src, event, 2),
        ([src], event, dst), (src, [event], dst), (src, event, [dst]),
        (Alias(src), event, dst), (src, Alias(event), dst),
        (src, event, Alias(dst)), (Name(src), event, dst),
        (src, Name(event), dst), [src, event, dst],
    ]
    out = [(states, [*triples[:at], triple, *triples[at + 1:]], initial)
           for triple in replaced]
    # A second transition on (src, event): an error unless it repeats
    # the first.
    out += [(states, [*triples, (src, event, target)], initial)
            for target in (dst, other)]
    out += [([*states[:1], name, *states[2:]], triples, initial)
            for name in ("", 7, ["q1"])]
    return out


class Alias:
    """Not a string, but equal to one and hashed alike."""

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return other == self.name

    def __hash__(self):
        return hash(self.name)


class Name(str):
    """A string, though not of type ``str``."""


def outcome(build, *args):
    """The rows ``build(*args)`` gives, or the type and message of its
    error."""
    try:
        g = build(*args)
    except ValidationError as exc:  # DeterminismError included
        return type(exc), str(exc)
    return [list(row.items()) for row in g.rows]


def test_both_fast_paths_match_the_strict_routes(monkeypatch):
    searches, checked = [], []
    real_search, real_add = automata.search, automata._add_triple

    def search(*args):
        searches.append(args)
        return real_search(*args)

    def add_triple(*args):
        checked.append(args[-1])
        return real_add(*args)

    monkeypatch.setattr(automata, "search", search)
    monkeypatch.setattr(automata, "_add_triple", add_triple)
    # The rows of q2 and q3 look canonical, but nothing reaches them.
    states = ["q0", "q1", "q2", "q3"]
    for trap in ([("q0", "a", "q1"), ("q2", "b", "q3")],
                 [("q0", "a", "q1"), ("q2", "b", "q2")]):
        assert outcome(make_generator, states, ABC, trap, "q0") == [
            [("a", 1)], []]
    assert len(searches) == 2 and checked == []
    rng = random.Random(26)
    # Three names unpack from a string or a mapping too.
    documents = [("corrupt", (["x", "y"], [triple], "x"))
                 for triple in ("xay", {"x": 0, "a": 1, "y": 2})]
    for _ in range(150):
        variants = document_variants(rng)
        documents += variants.items()
        if variants["written"][1]:
            documents += [("corrupt", doc) for doc in
                          corruptions(rng, *variants["written"])]
    paths = collections.Counter()
    for kind, (states, triples, initial) in documents:
        expected = outcome(reference_make_generator, states, ABC, triples,
                           initial)
        for given in (triples, iter(triples)):
            counts = len(searches), len(checked)
            got = outcome(make_generator, states, ABC, given, initial)
            assert got == expected, (kind, states, triples, initial)
            validation = "checked" if len(checked) > counts[1] else "cheap"
            paths[kind, validation,
                  "raised" if type(got) is tuple else
                  "searched" if len(searches) > counts[0] else "kept"] += 1
    # A written file always takes both fast paths.
    assert {path[1:] for path in paths if path[0] == "written"} == {
        ("cheap", "kept")}
    assert paths["written", "cheap", "kept"] == 300
    # Reordered and drawn documents miss the canonical shortcut, except
    # where the order happens to stay canonical, as with one state.
    for kind in ("state order", "dead state", "drawn"):
        assert paths[kind, "cheap", "searched"] >= 60, paths
    for kind in ("triple order", "row order", "drawn"):
        assert paths[kind, "cheap", "searched"] >= 20, paths
        assert paths[kind, "cheap", "kept"] >= 40, paths
    # A triple checked in full either raises or, with a member of a
    # subclass of str, is built; a list triple and a repeated triple are
    # no reason to check.
    assert paths["corrupt", "checked", "raised"] >= 2000, paths
    assert paths["corrupt", "checked", "searched"] + paths[
        "corrupt", "checked", "kept"] >= 250, paths
    assert paths["corrupt", "cheap", "kept"] >= 250, paths
    # A bad state name is raised before any triple is read.
    assert paths["corrupt", "cheap", "raised"] >= 750, paths
    assert sum(paths.values()) == 2 * len(documents)


def test_reachable_events_examples(cell):
    assert reachable_events(cell.g1) == {"c", "u1", "a1", "u"}
    assert reachable_events(make_generator(["q"], AB, [], "q")) == frozenset()
    plant = sync_product(cell.g1, cell.g2)
    assert reachable_events(plant) == {"a1", "a2", "c", "u", "u1", "u2"}


def test_from_words_builds_the_prefix_closure():
    g = lang(AB, "a.b.a", "b")
    for word in ["", "a", "a.b", "a.b.a", "b"]:
        assert membership(g, w(word))
    assert not membership(g, w("a.a"))
    assert not membership(g, w("b.a"))


def test_word_parse_format_round_trip():
    assert parse_word("a1.a2.u") == ("a1", "a2", "u")
    assert parse_word("") == ()
    assert format_word(()) == "ε"
    assert format_word(("a", "b")) == "a.b"


def test_shortest_words_is_deterministic(cell):
    words = shortest_words(cell.g1, 4)
    assert words == [(), ("a1",), ("c",), ("a1", "u")]


def test_shortest_words_of_no_language_or_no_count_is_empty(cell):
    assert shortest_words(empty_generator(cell.e1), 4) == []
    assert shortest_words(cell.g1, 0) == []


@given(generators())
@settings(max_examples=60, deadline=None)
def test_bounded_language_is_prefix_closed(g):
    assert is_prefix_closed(bounded_language(g, 5))


@given(generators())
@settings(max_examples=60, deadline=None)
def test_membership_agrees_with_enumeration(g):
    words = bounded_language(g, 4)
    assert all(membership(g, word) for word in words)


def test_random_generator_helper_is_deterministic():
    alpha = Alphabet({"a", "b"}, {"a"})
    g1 = random_generator(random.Random(3), alpha)
    g2 = random_generator(random.Random(3), alpha)
    assert g1.labels == g2.labels and g1.rows == g2.rows
