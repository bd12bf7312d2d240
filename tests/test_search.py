"""Invariants of the kernels that every state-space walk runs on:
constructions come out in canonical state order with read-only, sorted
rows, the counterexamples of the checks are the shortest-then-lexicographic
violating words of their definitions, the backward pass finds exactly
the nodes that reach its sources, and the row reads of each layer grow
linearly with the generator they walk."""

import functools
import random
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descoord import (
    Alphabet,
    CoordinationScheme,
    conditionally_decomposable,
    default_coordinator,
    empty_generator,
    from_words,
    inverse_project,
    is_admissible,
    is_conditionally_controllable,
    is_controllable,
    is_observer,
    is_occ,
    language_subset,
    make_generator,
    project,
    shortest_words,
    sup_c,
    sup_cc,
    sync_product,
    union_alphabets,
    universal_generator,
    widen_alphabet,
)
from descoord import synthesis
from descoord.automata import backward, intersect, search
from descoord.oracle import bounded_language, brute_product, erase

from helpers import (
    buffered_line,
    counted_rows,
    generators,
    language_union,
    random_generator,
    reference_is_admissible,
    reference_is_controllable,
    reference_language_subset,
    reference_sup_c,
    reference_sup_c_deletions,
    reference_sync_product,
    sub_automaton,
)


def rebuilt(g):
    """``g`` passed through ``make_generator``, which renumbers states
    canonically whatever numbering it is given and drops the states it
    cannot reach."""
    return make_generator(
        [str(i) for i in g.states], g.alphabet,
        [(str(src), event, str(dst))
         for src, row in enumerate(g.rows) for event, dst in row.items()],
        "0",
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
        sup_c(same, g),
        sup_c(sub_automaton(rng, g), g),
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


def survivor_found_by_a_deleted_state():
    """(K, L) where state 1 is deleted (L enables the uncontrollable u
    there, K does not).  It is the first discoverer of 3 in the product and
    the only way to 5, so the survivors' order is not the product's and 5
    must go."""
    alphabet = Alphabet({"a", "b", "c", "d", "e", "u"},
                        {"a", "b", "c", "d", "e"})
    k_edges = [("0", "a", "1"), ("0", "b", "2"), ("1", "c", "3"),
               ("1", "e", "5"), ("2", "c", "4"), ("2", "d", "3")]
    states = [str(i) for i in range(6)]
    k = make_generator(states, alphabet, k_edges, "0")
    l = make_generator(states, alphabet, k_edges + [("1", "u", "0")], "0")
    return k, l


def test_sup_c_numbers_the_survivors_by_their_own_search():
    result = sup_c(*survivor_found_by_a_deleted_state())
    assert result.rows == ({"b": 1}, {"c": 2, "d": 3}, {}, {})
    assert result.num_states == 4


SUP_C_ALPHABET = Alphabet({"a", "b", "c", "u", "v"}, {"a", "b", "c"})


def sup_c_instance(rng: random.Random):
    """A random (K, L) over ``SUP_C_ALPHABET``, of one of five kinds drawn
    uniformly: K a random subautomaton of L; K and L drawn independently;
    or, in three kinds, K a random generator over the controllable events
    entered through a diamond and L that K plus uncontrollable moves.  In
    the diamond, d0 moves to d1 and then d2, each of which enters the
    random part on one event.  In two of the three kinds, d2 first moves to
    d3 on a smaller event, and L has an uncontrollable move at d1 and at
    some random states.  So d1 is deleted, the random part survives through
    d2, and it comes before d3 in the product but after it among the
    survivors.  In the third, L's one uncontrollable move is at d2, so d2
    alone is deleted and the survivors keep the product's order."""
    kind = rng.randrange(5)
    if kind == 0:
        l = random_generator(rng, SUP_C_ALPHABET, 5, 0.5)
        return sub_automaton(rng, l, rng.choice((0.7, 0.9, 1.0))), l
    if kind == 1:
        return (random_generator(rng, SUP_C_ALPHABET, 4, 0.6),
                random_generator(rng, SUP_C_ALPHABET, 4, 0.6))
    core = random_generator(rng, SUP_C_ALPHABET.restrict({"a", "b", "c"}),
                            5, 0.5)
    states = ["d0", "d1", "d2", "d3"] + [f"s{q}" for q in core.states]
    left, right = sorted(rng.sample("abc", 2))
    enter = rng.choice("bc")
    triples = [("d0", left, "d1"), ("d0", right, "d2"),
               ("d1", enter, "s0"), ("d2", enter, "s0")]
    if kind < 4:
        triples.append(
            ("d2", rng.choice("ab" if enter == "c" else "a"), "d3"))
    triples += [(f"s{q}", event, f"s{target}")
                for q, row in enumerate(core.rows)
                for event, target in row.items()]
    k = make_generator(states, SUP_C_ALPHABET, triples, "d0")
    if kind == 4:
        triples.append(("d2", rng.choice("uv"), rng.choice(states)))
        return k, make_generator(states, SUP_C_ALPHABET, triples, "d0")
    triples.append(("d1", rng.choice("uv"), "d0"))
    for q in core.states:
        if rng.random() < 0.25:
            triples.append((f"s{q}", rng.choice("uv"),
                            rng.choice(states)))
    return k, make_generator(states, SUP_C_ALPHABET, triples, "d0")


def sup_c_case(k, l, eu) -> str:
    """What ``sup_c`` has to do on (K, L): delete nothing, delete states,
    or delete states such that the survivors' own search numbers them in
    another order than the product's."""
    _, rows, deleted = reference_sup_c_deletions(k, l, eu)
    if not deleted:
        return "no deletions"
    if 0 not in deleted:
        survivors = search(0, lambda node: [
            (event, target) for event, target in rows[node].items()
            if target not in deleted])[0]
        if survivors != sorted(survivors):
            return "survivors out of product order"
    return "deletions"


def test_sup_c_agrees_with_the_route_it_replaced(monkeypatch):
    searches = []

    def counted(*args):
        searches.append(args[0])
        return search(*args)

    monkeypatch.setattr(synthesis, "search", counted)
    rng = random.Random(8)
    cases, routes = Counter(), Counter()
    for _ in range(600):
        k, l = sup_c_instance(rng)
        eu = SUP_C_ALPHABET.uncontrollable
        searches.clear()
        got, expected = sup_c(k, l), reference_sup_c(k, l, eu)
        assert got.labels == expected.labels
        assert got.rows == expected.rows
        assert (got.recognizes_empty_language
                == expected.recognizes_empty_language)
        case = sup_c_case(k, l, eu)
        cases[case] += 1
        # Survivors out of product order always take the survivor search.
        assert searches or case != "survivors out of product order"
        # Survivors renumbered by rank or by their own search.
        if case != "no deletions" and not got.recognizes_empty_language:
            routes["search" if searches else "rank"] += 1
    assert min(cases[case] for case in (
        "no deletions", "deletions",
        "survivors out of product order")) >= 100, cases
    assert min(routes["search"], routes["rank"]) >= 100, routes


def test_sup_c_searches_the_product_once_unless_a_survivor_is_renumbered(
        monkeypatch):
    walks, searches = [], []

    def counted(calls, kernel):
        def wrapper(*args):
            calls.append(args[0])
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(synthesis, "intersect", counted(walks, intersect))
    monkeypatch.setattr(synthesis, "search", counted(searches, search))

    def count(k, l):
        walks.clear()
        searches.clear()
        result = sup_c(k, l)
        assert len(walks) == 1
        return len(searches), result

    # Nothing violates: the product is the result.
    spec, g1, g2 = buffered_line(6, 3, 3)
    assert count(spec, spec)[0] == 0
    # The full buffer blocks the uncontrollable b1 deep in the product,
    # and each survivor's first discoverer survives: the survivors are
    # renumbered by rank, with no search.
    n, result = count(spec, sync_product(g1, g2))
    assert (n, result.num_states < spec.num_states) == (0, True)
    # A deleted state first discovers a survivor: one search, for the
    # survivors.
    n, result = count(*survivor_found_by_a_deleted_state())
    assert (n, result.num_states) == (1, 4)
    # The initial state violates: nothing survives, no search.
    alphabet = Alphabet({"a", "u"}, {"a"})
    n, result = count(from_words(alphabet, ["a"]),
                      from_words(alphabet, ["a", "u"]))
    assert (n, result.recognizes_empty_language) == (0, True)


def naive_backward(rows, events, sources) -> set[int]:
    """Nodes reaching ``sources`` over ``events``, by growing the set until
    no row adds a node."""
    reached = set(sources)
    grown = True
    while grown:
        grown = False
        for node, row in enumerate(rows):
            if node not in reached and any(
                    row[event] in reached for event in events if event in row):
                reached.add(node)
                grown = True
    return reached


def test_backward_agrees_with_a_naive_fixpoint():
    rng = random.Random(31)
    # A second stream, so that the single-group instances stay as drawn.
    extra = random.Random(32)
    seen = Counter()
    for _ in range(500):
        n = rng.randint(1, 8)
        rows = [{event: rng.randrange(n) for event in "abc"
                 if rng.random() < 0.5} for _ in range(n)]
        events = set(rng.sample("abc", rng.randint(0, 3)))
        sources = rng.sample(range(n), rng.randint(0, min(n, 3)))
        (got,) = backward(rows, events, sources)
        assert got == naive_backward(rows, events, sources)
        # Several source groups in one call: each gets its own result.
        groups = [extra.sample(range(n), extra.randint(0, min(n, 3)))
                  for _ in range(extra.randint(0, 4))]
        assert backward(rows, events, *groups) == [
            naive_backward(rows, events, group) for group in groups]
        seen["several groups"] += len(groups) > 1
        seen["empty sources"] += not sources
        seen["empty events"] += not events
        seen["cycle"] += any(target in naive_backward(rows, events, [node])
                             for node, row in enumerate(rows)
                             for event, target in row.items()
                             if event in events)
        seen["grows"] += len(got) > len(sources)
    assert min(seen.values()) >= 100 and len(seen) == 5, seen


PAIR_POOL = Alphabet({"a", "b", "c", "d", "u", "v"}, {"a", "b", "c", "d"})
RELATIONS = ("equal", "nested", "overlapping", "disjoint")


def pair_alphabets(rng: random.Random, relation: str):
    """Two sub-alphabets of ``PAIR_POOL`` in the given relation; a nested
    pair comes in either order."""
    events = rng.sample(PAIR_POOL.sorted_events, 6)
    if relation == "equal":
        first = second = events[:rng.randint(1, 4)]
    elif relation == "nested":
        second = events[:rng.randint(2, 5)]
        first = second[:rng.randint(1, len(second) - 1)]
        if rng.random() < 0.5:
            first, second = second, first
    elif relation == "overlapping":
        shared, own1, own2 = rng.randint(1, 2), rng.randint(1, 2), \
            rng.randint(1, 2)
        first = events[:shared + own1]
        second = events[:shared] + events[shared + own1:][:own2]
    else:
        cut = rng.randint(1, 4)
        first, second = events[:cut], events[cut:][:rng.randint(1, 3)]
    return PAIR_POOL.restrict(first), PAIR_POOL.restrict(second)


def test_pair_walks_agree_with_the_routes_they_replaced():
    rng = random.Random(9)
    verdicts = Counter()
    for index in range(600):
        relation = RELATIONS[index % 4]
        g1, g2 = (random_generator(rng, alphabet, 4, 0.5)
                  for alphabet in pair_alphabets(rng, relation))
        product, expected = sync_product(g1, g2), reference_sync_product(g1, g2)
        assert product.alphabet == expected.alphabet
        assert product.labels == expected.labels
        assert product.rows == expected.rows
        for s, g in ((g1, g2), (g2, g1)):
            report = is_admissible(s, g)
            assert report == reference_is_admissible(s, g)
            verdicts["is_admissible", relation, report.holds] += 1
        merged = union_alphabets(g1.alphabet, g2.alphabet)
        lifted = [inverse_project(g, merged) for g in (g1, g2)]
        eu = merged.uncontrollable
        for left, right in ((lifted[0], lifted[1]), (lifted[1], lifted[0]),
                            (product, lifted[1]), (lifted[0], product)):
            report = language_subset(left, right)
            assert ((report.holds, report.counterexample)
                    == reference_language_subset(left, right))
            verdicts["language_subset", report.holds] += 1
            report = is_controllable(left, right)
            assert ((report.holds, report.counterexample)
                    == reference_is_controllable(left, right, eu))
            verdicts["is_controllable", report.holds] += 1
    # A supervisor that shares no event with the plant disables none.
    assert verdicts["is_admissible", "disjoint", False] == 0
    for relation in RELATIONS[:3]:
        for holds in (True, False):
            assert verdicts["is_admissible", relation, holds] >= 50, verdicts
    for check in ("language_subset", "is_controllable"):
        for holds in (True, False):
            assert verdicts[check, holds] >= 300, verdicts


def test_a_violation_inside_a_row_ends_the_search_with_its_own_word():
    # At state 1 the violating event (b for inclusion, u for
    # controllability) is neither the first nor the last of the row.
    alphabet = Alphabet({"a", "b", "u", "z"}, {"a", "b", "z"})
    moves = [("0", "a", "1"), ("0", "z", "0"), ("1", "a", "2"),
             ("1", "z", "2"), ("2", "a", "2")]
    states = ["0", "1", "2"]
    narrow = make_generator(states, alphabet, moves, "0")
    wide = make_generator(states, alphabet,
                          moves + [("1", "b", "0"), ("1", "u", "0")], "0")
    bound = cover(wide, narrow)
    lw = bounded_language(wide, bound)
    nw = bounded_language(narrow, bound)
    inclusion = language_subset(wide, narrow)
    assert inclusion.counterexample == shortest(lw - nw) == ("a", "b")
    controllability = is_controllable(narrow, wide)
    assert controllability.counterexample == shortest(
        word for word in lw - nw
        if word[-1] == "u" and word[:-1] in nw) == ("a", "u")


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
            lw = bounded_language(left, bound)
            rw = bounded_language(right, bound)
            assert (language_subset(left, right).counterexample
                    == shortest(lw - rw))
            # K = left, L = right: s·a in L \ K with s in K and a in E_u.
            violations = [word for word in rw - lw
                          if word[-1] in eu and word[:-1] in lw]
            assert (is_controllable(left, right).counterexample
                    == shortest(violations))
    # A supervisor over E ∪ {x}: s·u with s in L(S) ∥ L(G), u in E_u and
    # P_G(s)·u in L(G), but P_S(s)·u = s·u not in L(S).
    wide = Alphabet(g.alphabet.events | {"x"},
                    g.alphabet.controllable | rng.choice(({"x"}, set())))
    for s in (random_generator(rng, wide, 3),
              sub_automaton(rng, inverse_project(g, wide))):
        bound = cover(s, g)
        sw = bounded_language(s, bound)
        gw = bounded_language(g, bound)
        loop = brute_product(sw, wide.events, gw, g.alphabet.events,
                             bound - 1)
        violations = [word + (u,) for word in loop for u in eu
                      if erase(word, g.alphabet.events) + (u,) in gw
                      and word + (u,) not in sw]
        assert is_admissible(s, g).counterexample == shortest(violations)


# ---------------------------------------------------------------------------
# growth of the work

@functools.cache
def coordinated_line(p1: int, p2: int, n: int):
    """K of ``buffered_line(p1, p2, n)``, G1, G2, the default coordinator
    Gk over E_k = {a1, a2, b1, b2}, and the scheme."""
    k, g1, g2 = buffered_line(p1, p2, n)
    ek = k.alphabet.restrict({"a1", "a2", "b1", "b2"})
    return (k, g1, g2, default_coordinator(g1, g2, ek),
            CoordinationScheme(g1.alphabet, g2.alphabet, ek))


@functools.cache
def line_instance(p1: int):
    """K of ``buffered_line(p1, 3, 3)`` (40 + 20·p1 states), the scheme and
    the plant G1 ∥ G2 ∥ Gk of ``coordinated_line``."""
    k, g1, g2, gk, scheme = coordinated_line(p1, 3, 3)
    return k, scheme, sync_product(sync_product(g1, g2), gk)


@pytest.mark.parametrize("measured, run", [
    pytest.param((10_018, 19_668, 38_968, 77_568),
                 lambda k, scheme, plant: conditionally_decomposable(
                     k, scheme), id="conditionally_decomposable"),
    pytest.param((5143, 10_093, 19_993, 39_793),
                 lambda k, scheme, plant: sup_c(k, plant), id="sup_c"),
    pytest.param((2908, 5708, 11_308, 22_508),
                 lambda k, scheme, plant: project(k, scheme.ek.events),
                 id="project"),
    pytest.param((1040, 2040, 4040, 8040),
                 lambda k, scheme, plant: is_occ(k, scheme.ek.events),
                 id="is_occ"),
    pytest.param((10_864, 21_314, 42_214, 84_014),
                 lambda k, scheme, plant: is_observer(k, scheme.ek.events),
                 id="is_observer"),
])
def test_row_reads_grow_linearly_with_the_line(measured, run):
    # Reads of K's rows at p1 = 50, 100, 200 and 400; ``measured`` holds
    # the counts when this gate was set, ×1.96-1.99 per doubling.  A layer
    # that turns superlinear in the states of K fails the ×2.2 bound.
    reads = []
    for p1 in (50, 100, 200, 400):
        k, scheme, plant = line_instance(p1)
        counted, count = counted_rows(k)
        run(counted, scheme, plant)
        reads.append(count())
    ratios = [after / before for before, after in zip(reads, reads[1:])]
    assert max(ratios) <= 2.2, (reads, measured)


def test_sup_cc_reads_each_transition_of_k_a_bounded_number_of_times():
    # On (p, p, p) = 3, 6, 12 and 24, K has 190, 880, 5068 and 33 748
    # transitions, ×6.6 per doubling; sup_cc read its rows 1223, 5651,
    # 32 651 and 218 195 times when this gate was set, 6.42-6.47 reads per
    # transition.  Work superlinear in the size of K fails the bound of 7.
    for p in (3, 6, 12, 24):
        k, g1, g2, gk, _ = coordinated_line(p, p, p)
        counted, count = counted_rows(k)
        sup_cc(counted, g1, g2, gk)
        assert count() <= 7 * k.num_transitions, (p, count())


# The layers below sup_cc, each given K of ``coordinated_line`` and the
# rest of that tuple; sup_c runs against the plant G1 ∥ G2 ∥ Gk.
LAYERS_ON_K = {
    "sup_c": lambda k, g1, g2, gk, scheme: sup_c(
        k, sync_product(sync_product(g1, g2), gk)),
    "project": lambda k, g1, g2, gk, scheme: project(k, scheme.ek.events),
    "is_occ": lambda k, g1, g2, gk, scheme: is_occ(k, scheme.ek.events),
    "is_observer": lambda k, g1, g2, gk, scheme: is_observer(
        k, scheme.ek.events),
    "is_conditionally_controllable": lambda k, g1, g2, gk, scheme:
        is_conditionally_controllable(k, g1, g2, gk),
}


@pytest.mark.parametrize("measured, bound, run", [
    pytest.param((2.58, 2.53, 2.51, 2.50), 3, LAYERS_ON_K["sup_c"],
                 id="sup_c"),
    pytest.param((1.45, 1.46, 1.47, 1.48), 2, LAYERS_ON_K["project"],
                 id="project"),
    pytest.param((0.53, 0.51, 0.50, 0.50), 1, LAYERS_ON_K["is_occ"],
                 id="is_occ"),
    pytest.param((5.48, 5.44, 5.45, 5.47), 6, LAYERS_ON_K["is_observer"],
                 id="is_observer"),
    pytest.param((4.96, 4.93, 4.95, 4.97), 5.5,
                 LAYERS_ON_K["is_conditionally_controllable"],
                 id="is_conditionally_controllable"),
])
def test_layers_read_each_transition_of_k_a_bounded_number_of_times(
        measured, bound, run):
    # As for sup_cc above, on (p, p, p) = 3, 6, 12 and 24; ``measured``
    # holds the reads per transition of K when this gate was set.
    for p in (3, 6, 12, 24):
        k, *rest = coordinated_line(p, p, p)
        counted, count = counted_rows(k)
        run(counted, *rest)
        assert count() <= bound * k.num_transitions, (p, count(), measured)


@pytest.mark.parametrize("measured, run", [
    pytest.param((8373, 16_498, 32_748, 65_248),
                 lambda k, g1, g2, gk, scheme: sup_cc(k, g1, g2, gk),
                 id="sup_cc"),
    pytest.param((6447, 12_697, 25_197, 50_197),
                 lambda k, g1, g2, gk, scheme: conditionally_decomposable(
                     k, scheme), id="conditionally_decomposable"),
    pytest.param((3240, 6365, 12_615, 25_115), LAYERS_ON_K["sup_c"],
                 id="sup_c"),
    pytest.param((1926, 3801, 7551, 15_051), LAYERS_ON_K["project"],
                 id="project"),
    pytest.param((650, 1275, 2525, 5025), LAYERS_ON_K["is_occ"],
                 id="is_occ"),
    pytest.param((7091, 13_966, 27_716, 55_216), LAYERS_ON_K["is_observer"],
                 id="is_observer"),
    pytest.param((6443, 12_693, 25_193, 50_193),
                 LAYERS_ON_K["is_conditionally_controllable"],
                 id="is_conditionally_controllable"),
])
def test_row_reads_grow_linearly_with_the_buffer(measured, run):
    # Reads of K's rows on ``buffered_line(3, 3, n)`` at n = 25, 50, 100
    # and 200 (K has 1290, 2540, 5040 and 10 040 transitions); ``measured``
    # holds the counts when this gate was set, ×1.96-1.99 per doubling, as
    # K's transitions grow.
    reads = []
    for n in (25, 50, 100, 200):
        k, *rest = coordinated_line(3, 3, n)
        counted, count = counted_rows(k)
        run(counted, *rest)
        reads.append(count())
    ratios = [after / before for before, after in zip(reads, reads[1:])]
    assert max(ratios) <= 2.2, (reads, measured)
