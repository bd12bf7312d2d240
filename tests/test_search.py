"""Invariants of the breadth-first search kernel that every state-space
walk runs on: constructions come out in canonical state order with
read-only, sorted rows, and the counterexamples of the checks are the
shortest-then-lexicographic violating words of their definitions."""

from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from descoord import (
    Alphabet,
    empty_generator,
    from_words,
    inverse_project,
    is_controllable,
    language_subset,
    language_union,
    make_generator,
    project,
    shortest_words,
    sup_c,
    sync_product,
    universal_generator,
    widen_alphabet,
)
from descoord.oracle import bounded_language

from helpers import generators, random_generator, sub_automaton


def rebuilt(g):
    """``g`` passed through ``make_generator``, which renumbers states
    canonically whatever numbering it is given and drops the states it
    cannot reach."""
    return make_generator(
        [str(i) for i in g.states], g.alphabet,
        [(str(src), event, str(dst))
         for src, row in enumerate(g.rows) for event, dst in row.items()],
        str(g.initial),
    )


@given(generators(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_constructions_are_canonical_by_construction(g, rng):
    events = sorted(g.alphabet.events)
    shared = {event for event in events if rng.random() < 0.6}
    other = Alphabet(shared | {"x"}, (g.alphabet.controllable & shared) | {"x"})
    wide = Alphabet(g.alphabet.events | {"x"}, g.alphabet.controllable)
    same = random_generator(rng, g.alphabet)
    results = [
        g,
        from_words(g.alphabet, shortest_words(g, 6)),
        sync_product(g, random_generator(rng, other)),
        project(g, shared),
        language_union(g, same),
        sup_c(same, g, g.alphabet.uncontrollable),
        sup_c(sub_automaton(rng, g), g, g.alphabet.uncontrollable),
        inverse_project(g, wide),
        widen_alphabet(g, wide),
        universal_generator(g.alphabet),
        empty_generator(g.alphabet),
    ]
    for result in results:
        canonical = rebuilt(result)
        assert canonical.rows == result.rows
        assert isinstance(result.rows, tuple)
        assert len(result.rows) == result.num_states
        for row in result.rows:
            assert type(row) is MappingProxyType
            assert list(row) == sorted(row)
            assert set(row) <= result.alphabet.events


def test_sup_c_numbers_the_survivors_by_their_own_search():
    # State 1 is deleted (L enables the uncontrollable u there, K does not).
    # It is the first discoverer of 3 in the product and the only way to 5,
    # so the survivors' order is not the product's and 5 must go.
    alphabet = Alphabet({"a", "b", "c", "d", "e", "u"},
                        {"a", "b", "c", "d", "e"})
    k_edges = [("0", "a", "1"), ("0", "b", "2"), ("1", "c", "3"),
               ("1", "e", "5"), ("2", "c", "4"), ("2", "d", "3")]
    states = [str(i) for i in range(6)]
    k = make_generator(states, alphabet, k_edges, "0")
    l = make_generator(states, alphabet, k_edges + [("1", "u", "0")], "0")
    result = sup_c(k, l, {"u"})
    assert result.rows == ({"b": 1}, {"c": 2, "d": 3}, {}, {})
    assert result.num_states == 4


def shortest(words):
    return min(words, key=lambda word: (len(word), word), default=None)


def cover(g1, g2) -> int:
    """A length bound that every shortest violation on the product of the
    two generators respects: the product has at most this many states."""
    return g1.num_states * g2.num_states


@given(generators(max_states=3, max_events=3),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_counterexamples_are_the_shortest_violating_words(g, rng):
    eu = g.alphabet.uncontrollable
    for other in (random_generator(rng, g.alphabet, 3), sub_automaton(rng, g)):
        for left, right in ((g, other), (other, g)):
            bound = cover(left, right)
            lw = bounded_language(left, bound).words
            rw = bounded_language(right, bound).words
            assert (language_subset(left, right).counterexample
                    == shortest(lw - rw))
            # K = left, L = right: s·a in L \ K with s in K and a in E_u.
            violations = [word for word in rw - lw
                          if word[-1] in eu and word[:-1] in lw]
            assert (is_controllable(left, right, eu).counterexample
                    == shortest(violations))
