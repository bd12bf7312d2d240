"""Tests for controllability, supC synthesis, supervisors and closed loops."""

import random

import pytest

from descoord import (
    Alphabet,
    AlphabetMismatchError,
    PreconditionError,
    closed_loop,
    empty_generator,
    from_words,
    is_admissible,
    is_controllable,
    is_occ,
    language,
    language_equal,
    language_subset,
    project,
    sup_c,
    sync_product,
    universal_generator,
)
from descoord.automata import intersect
from descoord.oracle import bounded_language, brute_sup_c

from helpers import lang, random_generator, sub_automaton, w


def _coordinator_pair(cell):
    pk = project(cell.k, cell.ek.events)
    return pk, cell.gk


def test_controllability_counterexample_is_shortest(cell):
    pk, gk = _coordinator_pair(cell)
    report = is_controllable(pk, gk)
    assert not report.holds
    assert report.counterexample == w("a2.a1.u")


def test_language_is_controllable_wrt_itself(cell):
    assert is_controllable(cell.g1, cell.g1).holds


def test_empty_language_is_controllable(cell):
    assert is_controllable(empty_generator(cell.ek), cell.gk).holds


def test_controllability_validates_arguments(cell):
    pk, _ = _coordinator_pair(cell)
    with pytest.raises(AlphabetMismatchError):
        is_controllable(pk, cell.g1)


@pytest.mark.parametrize("u_controllable", [False, True])
def test_the_alphabet_decides_which_events_are_uncontrollable(u_controllable):
    # The same words over {a, u}; only the alphabet's split differs.
    alpha = Alphabet({"a", "u"}, {"a", "u"} if u_controllable else {"a"})
    k, l = lang(alpha, "a"), lang(alpha, "a.u")
    assert is_controllable(k, l).holds is u_controllable
    expected = k if u_controllable else lang(alpha, "")
    assert language_equal(sup_c(k, l), expected).holds
    # The hidden controllable a precedes the projected event u.
    assert is_occ(l, {"u"}).holds is u_controllable


def test_sup_c_golden_coordinator_language(cell):
    pk, gk = _coordinator_pair(cell)
    result = sup_c(pk, gk)
    assert language_equal(result, cell.over_ek("a2", "c", "a1.a2.u")).holds


def test_sup_c_of_controllable_language_is_identity(cell):
    assert language_equal(sup_c(cell.g1, cell.g1), cell.g1).holds


def test_sup_c_can_be_empty():
    alpha = Alphabet({"a", "u"}, {"a"})
    k = lang(alpha, "a")
    plant = lang(alpha, "a.u", "u")
    # ε has the uncontrollable continuation u in the plant but u ∉ K.
    result = sup_c(k, plant)
    assert result.recognizes_empty_language


def test_sup_c_output_is_controllable_and_included():
    rng = random.Random(11)
    alpha = Alphabet({"a", "b", "u", "v"}, {"a", "b"})
    for _ in range(40):
        k = random_generator(rng, alpha)
        plant = random_generator(rng, alpha)
        result = sup_c(k, plant)
        assert is_controllable(result, plant).holds
        assert language_subset(result, k).holds
        assert language_subset(result, plant).holds


def test_sup_c_matches_bounded_oracle():
    rng = random.Random(12)
    alpha = Alphabet({"a", "u", "v"}, {"a"})
    for _ in range(40):
        k = random_generator(rng, alpha)
        plant = random_generator(rng, alpha)
        result = sup_c(k, plant)
        expected = brute_sup_c(bounded_language(k, 8),
                               bounded_language(plant, 8),
                               {"u", "v"}, 8)
        got = bounded_language(result, 6)
        assert got == {word for word in expected if len(word) <= 6}
        # Two-sided at bound 6: the fixpoint on L's words up to 7 lies
        # inside supC, the one on L's words up to 6 around it.
        kw = bounded_language(k, 6)
        lw = bounded_language(plant, 7)
        assert (brute_sup_c(kw, lw, {"u", "v"}, 6) <= got
                <= brute_sup_c(kw, {w for w in lw if len(w) <= 6},
                               {"u", "v"}, 6))


def test_basic_controllability_round_trip():
    rng = random.Random(13)
    alpha = Alphabet({"a", "b", "u"}, {"a", "b"})
    checked = 0
    for _ in range(60):
        plant = random_generator(rng, alpha)
        k = sub_automaton(rng, plant)
        if not is_controllable(k, plant).holds:
            continue
        loop = closed_loop(k, plant)
        assert language_equal(loop, k).holds
        checked += 1
    assert checked >= 10


def test_closed_loop_golden(cell):
    pk, gk = _coordinator_pair(cell)
    supervisor = sup_c(pk, gk)
    loop = closed_loop(supervisor, gk)
    assert language_equal(loop, supervisor).holds


def test_closed_loop_walks_the_product_once(cell, monkeypatch):
    # The admissibility walk is the product's walk: no second intersect.
    walks = []

    def counted(*args):
        walks.append(args)
        return intersect(*args)

    monkeypatch.setattr(language, "intersect", counted)
    pk, gk = _coordinator_pair(cell)
    supervisor = sup_c(pk, gk)
    walks.clear()
    loop = closed_loop(supervisor, gk)
    assert len(walks) == 1
    monkeypatch.undo()
    expected = sync_product(supervisor, gk)
    assert loop.alphabet == expected.alphabet
    assert [list(row.items()) for row in loop.rows] == \
        [list(row.items()) for row in expected.rows]


def test_closed_loop_with_universal_supervisor_is_plant(cell):
    plant = sync_product(cell.g1, cell.g2)
    loop = closed_loop(universal_generator(plant.alphabet), plant)
    assert language_equal(loop, plant).holds


def test_closed_loop_rejects_inadmissible_supervisor(cell):
    plant = sync_product(cell.g1, cell.g2)
    blocked = from_words(plant.alphabet, ["a1.a2"])
    with pytest.raises(PreconditionError) as info:
        closed_loop(blocked, plant)
    assert info.value.report.counterexample == w("a1.a2.u")


def test_admissibility_examples(cell):
    plant = sync_product(cell.g1, cell.g2)
    assert is_admissible(universal_generator(plant.alphabet), plant).holds
    blocking = from_words(plant.alphabet, ["a1.a2"])
    report = is_admissible(blocking, plant)
    assert not report.holds
    assert report.counterexample == w("a1.a2.u")
    pk, gk = _coordinator_pair(cell)
    assert is_admissible(sup_c(pk, gk), gk).holds


def test_admissibility_of_empty_supervisor_is_vacuous(cell):
    assert is_admissible(empty_generator(cell.ek), cell.gk).holds


def test_extended_controllability_equivalence():
    # Single-step controllability of K ⊆ L is equivalent to the starred
    # form K E_u* ∩ L ⊆ K; both sides evaluated on bounded word sets.
    rng = random.Random(14)
    alpha = Alphabet({"a", "u", "v"}, {"a"})
    eu = ("u", "v")
    for _ in range(60):
        plant = random_generator(rng, alpha)
        k = sub_automaton(rng, plant)
        kw = bounded_language(k, 8)
        lw = bounded_language(plant, 8)
        single = all(word + (e,) in kw
                     for word in kw for e in eu if word + (e,) in lw)

        def star_ok(word, depth=0):
            if word not in kw:
                return False
            if len(word) >= 8:
                return True
            return all(star_ok(word + (e,))
                       for e in eu if word + (e,) in lw)

        starred = all(star_ok(word) for word in kw)
        assert single == starred
        verdict = is_controllable(k, plant)
        if verdict.holds:
            assert single
        elif len(verdict.counterexample) <= 8:
            assert not single


def test_controllability_is_transitive():
    rng = random.Random(15)
    alpha = Alphabet({"a", "b", "u"}, {"a", "b"})
    for _ in range(40):
        m = random_generator(rng, alpha)
        mid = sup_c(sub_automaton(rng, m), m)
        low = sup_c(sub_automaton(rng, mid) if not
                    mid.recognizes_empty_language else mid, mid)
        assert is_controllable(low, m).holds
