"""Tests for the brute-force bounded-language oracle itself."""

import random

import pytest

from descoord import (
    Alphabet,
    OracleBoundError,
    empty_generator,
    from_words,
    oracle,
    project,
    sync_product,
    universal_generator,
)
from descoord.oracle import (
    bounded_language,
    bounded_projection,
    brute_product,
    brute_sup_c,
)

from helpers import (
    brute_project,
    is_prefix_closed,
    random_generator,
    w,
)


def test_bounded_language_golden_plant(cell):
    plant = sync_product(cell.g1, cell.g2)
    expected = {
        (), ("a1",), ("a2",), ("c",),
        w("a1.a2"), w("a2.a1"), w("c.u1"), w("c.u2"),
        w("a1.a2.u"), w("a2.a1.u"), w("c.u1.u2"), w("c.u2.u1"),
    }
    assert bounded_language(plant, 3) == expected


def test_bounded_language_bound_zero(cell):
    assert bounded_language(cell.g1, 0) == {()}


def test_bounded_language_of_empty(cell):
    assert bounded_language(empty_generator(cell.full), 5) == frozenset()


@pytest.mark.parametrize("walk", [
    pytest.param(lambda g: bounded_language(g, -1), id="language"),
    pytest.param(lambda g: bounded_projection(g, {"c"}, -1), id="projection"),
])
def test_a_negative_bound_is_rejected(cell, walk):
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        walk(cell.g1)


def test_brute_project_golden(cell):
    kw = bounded_language(cell.k, 4)
    projected = brute_project(kw, cell.ek.events)
    expected_gen = cell.over_ek("a2.a1", "c", "a1.a2.u")
    assert projected == bounded_language(expected_gen, 4)


def test_brute_project_onto_full_alphabet_is_identity(cell):
    kw = bounded_language(cell.k, 4)
    assert brute_project(kw, cell.full.events) == kw


def test_brute_product_matches_generator_product():
    rng = random.Random(41)
    e1 = Alphabet({"s", "m"}, {"m"})
    e2 = Alphabet({"s", "n"}, {"n"})
    for _ in range(30):
        g1 = random_generator(rng, e1)
        g2 = random_generator(rng, e2)
        product = sync_product(g1, g2)
        brute = brute_product(bounded_language(g1, 8), e1.events,
                              bounded_language(g2, 8), e2.events, 8)
        assert brute == bounded_language(product, 8)


def test_brute_project_matches_generator_project():
    rng = random.Random(42)
    alpha = Alphabet({"a", "b", "u"}, {"a", "b"})
    for _ in range(30):
        g = random_generator(rng, alpha)
        keep = {e for e in alpha.events if rng.random() < 0.6}
        produced = project(g, keep)
        brute = brute_project(bounded_language(g, 8), keep)
        got = set(bounded_language(produced, 6))
        expected = {word for word in brute if len(word) <= 6}
        # Every brute word is a genuine projection.
        assert expected <= got
        # The brute image misses a short projection only when all of its
        # preimages exceed the bound; such words must appear at a larger one.
        missing = got - expected
        if missing:
            wider = brute_project(bounded_language(g, 12), keep)
            assert missing <= wider


def test_bounded_projection_matches_generator_project():
    # Exact at every bound, also where every preimage of a projected word
    # is longer than the bound: the brute image above misses those.
    rng = random.Random(44)
    alpha = Alphabet({"a", "b", "u"}, {"a", "b"})
    longer = 0
    for _ in range(60):
        g = random_generator(rng, alpha)
        keep = {e for e in alpha.events if rng.random() < 0.6}
        produced = project(g, keep)
        for bound in range(6):
            got = bounded_projection(g, keep, bound)
            assert got == bounded_language(produced, bound)
            longer += got != brute_project(bounded_language(g, bound),
                                           keep)
    assert bounded_projection(empty_generator(alpha), {"a"}, 3) == frozenset()
    assert longer >= 20, longer


def test_bounded_projection_stops_at_the_word_limit(monkeypatch):
    # Onto {a} of (a|h)*: the pairs (state, a^i) for i <= n, n + 1 of them.
    loop = universal_generator(Alphabet({"a", "h"}, {"a", "h"}))
    monkeypatch.setattr(oracle, "MAX_WORDS", 10)
    assert len(bounded_projection(loop, {"a"}, 9)) == 10
    with pytest.raises(OracleBoundError):
        bounded_projection(loop, {"a"}, 10)


def test_brute_sup_c_golden(cell):
    from descoord import project as project_op
    pk = project_op(cell.k, cell.ek.events)
    result = brute_sup_c(bounded_language(pk, 4),
                         bounded_language(cell.gk, 4), {"u"}, 4)
    expected = bounded_language(cell.over_ek("a2", "c", "a1.a2.u"), 4)
    assert result == expected


def test_brute_sup_c_keeps_controllable_input(cell):
    lw = bounded_language(cell.gk, 6)
    assert brute_sup_c(lw, lw, {"u"}, 6) == lw


def test_brute_sup_c_is_prefix_closed():
    rng = random.Random(43)
    alpha = Alphabet({"a", "u"}, {"a"})
    for _ in range(30):
        kw = bounded_language(random_generator(rng, alpha), 7)
        lw = bounded_language(random_generator(rng, alpha), 7)
        assert is_prefix_closed(brute_sup_c(kw, lw, {"u"}, 7))


def test_bounded_language_counts_before_it_enumerates(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_WORDS", 10)
    loop = universal_generator(Alphabet({"a"}, {"a"}))
    assert len(bounded_language(loop, 9)) == 10
    with pytest.raises(OracleBoundError):
        bounded_language(loop, 10)


def test_finite_languages_stop_at_their_longest_word():
    # Both loops stop once no word grows: at bound 10^12 they return, at
    # once, what they return at the length of the longest word.
    rng = random.Random(46)
    e1 = Alphabet({"s", "m"}, {"m"})
    e2 = Alphabet({"s", "n"}, {"n"})
    huge = 10 ** 12
    for _ in range(30):
        g1, g2 = (from_words(alphabet, [
            tuple(rng.choice(alphabet.sorted_events)
                  for _ in range(rng.randrange(6))) for _ in range(3)])
            for alphabet in (e1, e2))
        ws1, ws2 = (bounded_language(g, huge) for g in (g1, g2))
        for g, words in ((g1, ws1), (g2, ws2)):
            assert words == bounded_language(g, max(map(len, words)))
        product = brute_product(ws1, e1.events, ws2, e2.events, huge)
        longest = max(map(len, product))
        assert product == brute_product(ws1, e1.events, ws2, e2.events,
                                        longest)
        assert product == bounded_language(sync_product(g1, g2),
                                           longest)


def test_brute_product_stops_at_the_word_limit(monkeypatch):
    # Every interleaving of a^i and b^j is in the product: 2^(n+1) - 1 words.
    a_words = {("a",) * i for i in range(13)}
    b_words = {("b",) * i for i in range(13)}
    assert len(brute_product(a_words, {"a"}, b_words, {"b"}, 12)) == 8191
    monkeypatch.setattr(oracle, "MAX_WORDS", 8190)
    with pytest.raises(OracleBoundError):
        brute_product(a_words, {"a"}, b_words, {"b"}, 12)
