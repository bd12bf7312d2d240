"""Tests for generators, alphabets and the basic language queries."""

import dataclasses
import random

import pytest
from hypothesis import given, settings

from descoord import (
    Alphabet,
    DeterminismError,
    Generator,
    ValidationError,
    empty_generator,
    format_word,
    make_generator,
    membership,
    parse_word,
    reachable_events,
    shortest_words,
    sync_product,
    trim_accessible,
    universal_generator,
)
from descoord.oracle import bounded_language

from helpers import generators, is_prefix_closed, lang, random_generator, w


AB = Alphabet({"a", "b"}, {"a", "b"})


def test_make_generator_canonical_ids_and_marking():
    g = make_generator(
        ["x", "y", "z"], AB,
        [("x", "a", "y"), ("y", "b", "x")], "x",
    )
    assert g.initial == 0
    assert g.labels[0] == "x"
    assert g.num_states == 3  # z kept, just unreachable
    assert g.reachable_count == 2


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


@pytest.mark.parametrize("key", [("x",), ("x", "a", "x"), "xa"])
def test_make_generator_rejects_mapping_keys_that_are_not_pairs(key):
    with pytest.raises(ValidationError, match="must be"):
        make_generator(["x"], AB, {key: "x"}, "x")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Alphabet(["a", ["b"]], []), id="event"),
    pytest.param(lambda: Alphabet({"a"}, [["a"]]), id="controllable"),
    pytest.param(lambda: AB.restrict([["a"]]), id="restrict"),
    pytest.param(lambda: AB.restrict("ab"), id="restrict-to-a-string"),
])
def test_alphabet_rejects_malformed_event_collections(build):
    with pytest.raises(ValidationError):
        build()


def test_generators_are_immutable(cell):
    g = cell.g1
    with pytest.raises(TypeError):
        g.rows[0]["x"] = 0
    for field in dataclasses.fields(Generator):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, field.name, getattr(g, field.name))


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


def test_empty_generator():
    g = empty_generator(AB)
    assert g.recognizes_empty_language
    assert not membership(g, ())
    assert not membership(g, ("a",))
    assert reachable_events(g) == frozenset()
    assert bounded_language(g, 3).words == frozenset()


def test_universal_generator():
    g = universal_generator(AB)
    assert membership(g, ("a", "b", "b", "a"))


def test_trim_accessible_drops_unreachable():
    g = make_generator(
        ["x", "y", "dead"], AB,
        [("x", "a", "y"), ("dead", "b", "x")], "x",
    )
    trimmed = trim_accessible(g)
    assert trimmed.num_states == 2
    assert bounded_language(trimmed, 4).words == bounded_language(g, 4).words
    assert trim_accessible(trimmed) is trimmed


def test_trim_accessible_random_language_preserved():
    rng = random.Random(7)
    alpha = Alphabet({"a", "b", "c"}, {"a"})
    for _ in range(25):
        table = {
            (f"s{rng.randrange(4)}", e): f"s{rng.randrange(4)}"
            for e in "abc" for _ in range(2)
            if rng.random() < 0.7
        }
        g = make_generator([f"s{i}" for i in range(4)], alpha, table, "s0")
        assert (bounded_language(trim_accessible(g), 8).words
                == bounded_language(g, 8).words)


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


@given(generators())
@settings(max_examples=60, deadline=None)
def test_bounded_language_is_prefix_closed(g):
    assert is_prefix_closed(bounded_language(g, 5).words)


@given(generators())
@settings(max_examples=60, deadline=None)
def test_membership_agrees_with_enumeration(g):
    words = bounded_language(g, 4).words
    assert all(membership(g, word) for word in words)


def test_random_generator_helper_is_deterministic():
    alpha = Alphabet({"a", "b"}, {"a"})
    g1 = random_generator(random.Random(3), alpha)
    g2 = random_generator(random.Random(3), alpha)
    assert g1.labels == g2.labels and g1.rows == g2.rows
