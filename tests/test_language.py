"""Tests for synchronous product, projection, inverse projection and the
language comparisons, including the projection-algebra lemmas on random
instances."""

import random

import pytest
from hypothesis import given, settings

from descoord import (
    Alphabet,
    AlphabetMismatchError,
    ControllabilityConflictError,
    ValidationError,
    empty_generator,
    from_words,
    inverse_project,
    language_equal,
    language_subset,
    membership,
    project,
    sync_product,
    universal_generator,
    widen_alphabet,
)
from descoord.automata import search
from descoord.oracle import bounded_language

from helpers import (
    generators,
    is_prefix_closed,
    lang,
    language_union,
    random_controllable,
    random_generator,
    sub_automaton,
    w,
)


def test_sync_product_golden(cell):
    plant = sync_product(cell.g1, cell.g2)
    expected = cell.over_full("a1.a2.u", "a2.a1.u", "c.u1.u2", "c.u2.u1")
    assert language_equal(plant, expected).holds


def test_sync_with_universal_is_identity(cell):
    top = universal_generator(cell.e1)
    assert language_equal(sync_product(cell.g1, top), cell.g1).holds


def test_sync_disjoint_alphabets_shuffles():
    ga = lang(Alphabet({"a"}, {"a"}), "a")
    gb = lang(Alphabet({"b"}, {"b"}), "b")
    product = sync_product(ga, gb)
    expected = from_words(product.alphabet, ["a.b", "b.a"])
    assert language_equal(product, expected).holds


def test_sync_rejects_controllability_conflict():
    g1 = lang(Alphabet({"a", "s"}, {"s"}), "s")
    g2 = lang(Alphabet({"b", "s"}, set()), "s")
    with pytest.raises(ControllabilityConflictError):
        sync_product(g1, g2)


def test_sync_with_empty_is_empty(cell):
    product = sync_product(cell.g1, empty_generator(cell.e2))
    assert product.recognizes_empty_language


def test_project_golden_coordinator_part(cell):
    pk = project(cell.k, cell.ek.events)
    assert language_equal(pk, cell.over_ek("a2.a1", "c", "a1.a2.u")).holds


def test_project_golden_second_subsystem_part(cell):
    p2k = project(cell.k, cell.scheme.e2k.events)
    expected = from_words(cell.scheme.e2k, ["a1.a2.u", "a2.a1", "c.u2"])
    assert language_equal(p2k, expected).holds


def test_project_identity(cell):
    same = project(cell.k, cell.full.events)
    assert language_equal(same, cell.k).holds


def test_project_rejects_events_outside_the_generator(cell):
    with pytest.raises(ValidationError, match=r"unknown events: \['a2'\]"):
        project(cell.g1, cell.ek.events)


def test_inverse_project_of_epsilon_is_bstar():
    g = lang(Alphabet({"a"}, {"a"}))
    lifted = inverse_project(g, Alphabet({"a", "b"}, {"a", "b"}))
    assert membership(lifted, w("b.b.b"))
    assert not membership(lifted, w("a"))


def test_inverse_project_interleaves_new_events():
    g = lang(Alphabet({"c", "u1"}, {"c"}), "c.u1")
    lifted = inverse_project(g, Alphabet({"a2", "c", "u1"}, {"a2", "c"}))
    assert membership(lifted, w("a2.c.a2.u1"))
    assert not membership(lifted, w("u1"))


@given(generators())
@settings(max_examples=50, deadline=None)
def test_project_after_inverse_project_is_identity(g):
    wide = Alphabet(g.alphabet.events | {"fresh"},
                    g.alphabet.controllable | {"fresh"})
    lifted = inverse_project(g, wide)
    back = project(lifted, g.alphabet.events)
    assert language_equal(back, g).holds


def test_widen_alphabet_keeps_the_word_set(cell):
    wide = widen_alphabet(cell.g1, cell.full)
    assert wide.alphabet == cell.full
    assert membership(wide, w("a1.u"))
    assert not membership(wide, w("a2"))


@pytest.mark.parametrize("lift", [widen_alphabet, inverse_project])
def test_lifting_needs_a_superset_alphabet(cell, lift):
    with pytest.raises(AlphabetMismatchError, match="superset"):
        lift(cell.g1, cell.e2)


def test_inverse_image_of_the_empty_language_is_empty(cell):
    lifted = inverse_project(empty_generator(cell.e1), cell.full)
    assert lifted.recognizes_empty_language
    assert lifted.alphabet == cell.full


def test_language_equal_golden_composition(cell):
    parts = [
        cell.over_ek("a2", "c", "a1.a2.u"),
        from_words(cell.scheme.e1k, ["a1.a2.u", "a2", "c.u1"]),
        from_words(cell.scheme.e2k, ["a1.a2.u", "a2", "c.u2"]),
    ]
    composed = sync_product(sync_product(parts[0], parts[1]), parts[2])
    expected = cell.over_full("a1.a2.u", "a2", "c.u1.u2", "c.u2.u1")
    assert language_equal(composed, expected).holds


def test_language_equal_reflexive(cell):
    report = language_equal(cell.k, cell.k)
    assert report.holds and report.counterexample is None


def test_strict_inclusion_has_counterexample():
    alpha = Alphabet({"a", "b"}, {"a", "b"})
    small = lang(alpha, "a")
    big = lang(alpha, "a", "b")
    assert language_subset(small, big).holds
    report = language_equal(small, big)
    assert not report.holds
    assert report.counterexample == ("b",)


def test_language_equal_names_a_word_of_the_left_language_only():
    alpha = Alphabet({"a", "b"}, {"a", "b"})
    report = language_equal(lang(alpha, "a", "b"), lang(alpha, "a"))
    assert not report.holds
    assert report.counterexample == ("b",)
    assert report.detail == "word is in the left language only"


def test_language_subset_of_empty():
    alpha = Alphabet({"a"}, {"a"})
    assert language_subset(empty_generator(alpha), lang(alpha, "a")).holds
    report = language_subset(lang(alpha), empty_generator(alpha))
    assert not report.holds and report.counterexample == ()


def test_comparisons_require_equal_alphabets(cell):
    with pytest.raises(AlphabetMismatchError):
        language_equal(cell.g1, cell.g2)


def test_language_union_basics():
    alpha = Alphabet({"a", "b"}, {"a"})
    union = language_union(lang(alpha, "a.a"), lang(alpha, "b"))
    assert language_equal(union, lang(alpha, "a.a", "b")).holds
    assert language_equal(language_union(empty_generator(alpha),
                                         lang(alpha, "b")),
                          lang(alpha, "b")).holds


@given(generators(max_states=3, max_events=3))
@settings(max_examples=40, deadline=None)
def test_projection_output_is_deterministic_and_trim(g):
    keep = set(list(sorted(g.alphabet.events))[:2])
    result = project(g, keep)
    reached, *_ = search(0, lambda q: result.rows[q].items())
    assert len(reached) == result.num_states
    assert is_prefix_closed(bounded_language(result, 5))


# ---------------------------------------------------------------------------
# projection-algebra lemmas on random instances (exact, generator-level)

def _two_subsystems(rng, shared_in_ek=True):
    shared = ["s1", "s2"][: rng.randint(1, 2)]
    p1 = ["m1", "m2"][: rng.randint(1, 2)]
    p2 = ["n1", "n2"][: rng.randint(1, 2)]
    pool = shared + p1 + p2
    full = Alphabet(frozenset(pool), random_controllable(rng, pool))
    e1 = full.restrict(shared + p1)
    e2 = full.restrict(shared + p2)
    ek_events = set(shared) if shared_in_ek else set()
    for event in p1 + p2:
        if rng.random() < 0.4:
            ek_events.add(event)
    g1 = random_generator(rng, e1)
    g2 = random_generator(rng, e2)
    return full, e1, e2, ek_events, g1, g2


def test_projection_distributes_over_product_when_shared_is_kept():
    rng = random.Random(101)
    for _ in range(60):
        full, e1, e2, ek, g1, g2 = _two_subsystems(rng)
        lhs = project(sync_product(g1, g2), ek)
        rhs = sync_product(
            project(g1, e1.events & ek),
            project(g2, e2.events & ek),
        )
        assert language_equal(lhs, rhs).holds


def test_product_restricted_by_own_projection_is_identity():
    rng = random.Random(102)
    alpha = Alphabet({"a", "b", "u"}, {"a", "b"})
    for _ in range(60):
        g = random_generator(rng, alpha)
        keep = {e for e in alpha.events if rng.random() < 0.5}
        restricted = sync_product(g, project(g, keep))
        assert language_equal(restricted, g).holds


def test_subset_follows_from_projection_subsets():
    rng = random.Random(103)
    for _ in range(60):
        full, e1, e2, _, g1, g2 = _two_subsystems(rng)
        a = sync_product(sub_automaton(rng, g1), sub_automaton(rng, g2))
        a = widen_alphabet(a, full)
        assert language_subset(a, widen_alphabet(sync_product(g1, g2),
                                                 full)).holds
