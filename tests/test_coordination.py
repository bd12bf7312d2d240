"""Tests for the coordination layer: the independence / decomposability /
conditional-controllability checks, supervisor synthesis and the
distributed supremal computation."""

import collections
import gc
import os
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descoord import (
    Alphabet,
    AlphabetMismatchError,
    ControllabilityConflictError,
    CoordinationScheme,
    Generator,
    PreconditionError,
    SubsetLimitError,
    SynthesisResult,
    check_optimality_conditions,
    closed_loop,
    conditionally_decomposable,
    conditionally_independent,
    default_coordinator,
    empty_generator,
    from_words,
    is_conditionally_controllable,
    is_controllable,
    language_equal,
    language_subset,
    project,
    suggest_coordinator_events,
    sup_c,
    sup_cc,
    sync_product,
    synthesize_supervisors,
    universal_generator,
)

from descoord import ConditionalControllabilityReport, coordination, language
from descoord.language import SubsetConstruction
from descoord.oracle import bounded_language, brute_product

from helpers import (
    brute_project,
    buffered_line,
    built_product_decomposable,
    collect_instances,
    decomposable_spec,
    distributed_instance,
    hidden_blow_up,
    lang,
    language_union,
    mixed_instance,
    random_generator,
    reference_conditionally_controllable,
    reference_decomposable,
    reference_sup_cc,
    reference_synthesize_supervisors,
    spec_within_plant,
    w,
)


def compose_loops(k, g1, g2, gk):
    """The coordinated closed-loop composition: the coordinator loop via
    closed_loop (admissible by condition (i)), the local loops as plain
    synchronous products (their supervisors need not be admissible for the
    reduced plants)."""
    s_k, s_1, s_2 = synthesize_supervisors(k, g1, g2, gk)
    loop_k = closed_loop(s_k, gk)
    loop_1 = sync_product(s_1, sync_product(g1, loop_k))
    loop_2 = sync_product(s_2, sync_product(g2, loop_k))
    return sync_product(sync_product(loop_1, loop_2), loop_k)


# ---------------------------------------------------------------------------
# conditional independence

def test_conditional_independence_golden(cell):
    assert conditionally_independent(cell.g1, cell.g2, cell.gk).holds


def test_full_coordinator_gives_independence(cell):
    top = universal_generator(cell.full)
    assert conditionally_independent(cell.g1, cell.g2, top).holds


def test_missing_shared_event_breaks_independence():
    shared = Alphabet({"a"}, {"a"})
    g1 = lang(shared, "a")
    g2 = lang(shared, "a")
    gk = lang(Alphabet({"b"}, {"b"}), "b")
    report = conditionally_independent(g1, g2, gk)
    assert not report.holds
    assert report.counterexample == ("a",)


# ---------------------------------------------------------------------------
# conditional decomposability

def test_decomposability_golden(cell):
    assert conditionally_decomposable(cell.k, cell.scheme).holds


def test_decomposability_fails_on_shared_only_coordinator(cell):
    scheme = CoordinationScheme(cell.e1, cell.e2,
                                cell.full.restrict({"c", "u"}))
    report = conditionally_decomposable(cell.k, scheme)
    assert not report.holds
    assert report.counterexample is not None


def test_products_are_always_decomposable():
    rng = random.Random(31)
    for _ in range(30):
        k, _, _, _, scheme = distributed_instance(
            rng, require_preconditions=False)
        assert conditionally_decomposable(k, scheme).holds


def test_decomposability_walk_matches_the_built_product():
    # The walk against the route it replaced, on K that fail, hold and are
    # empty, under the instance's E_k and under a random one.
    verdicts = collections.Counter()
    for seed in range(300):
        rng = random.Random(f"walk/{seed}")
        k, _, _, _, scheme = mixed_instance(rng)
        kept = {e for e in sorted(scheme.full.events) if rng.random() < 0.5}
        kept |= scheme.full.events - scheme.e1.events - scheme.e2.events
        for ek in (scheme.ek, scheme.full.restrict(kept)):
            other = CoordinationScheme(scheme.e1, scheme.e2, ek)
            report = conditionally_decomposable(k, other)
            expected = built_product_decomposable(k, other)
            assert (report.holds, report.counterexample) == expected, seed
            verdicts[report.holds, k.recognizes_empty_language] += 1
    assert verdicts[False, False] > 80 and verdicts[True, True] > 20


def decomposability_cases(rng: random.Random):
    """K and schemes to decide it under: the instance's E_k, a random one
    and the least one, the events outside E_1 ∪ E_2 (empty unless E_k
    has such an event), each with the E_{1+k} and E_{2+k} swapped too."""
    k, _, _, _, scheme = mixed_instance(rng)
    least = scheme.full.events - scheme.e1.events - scheme.e2.events
    kept = {e for e in sorted(scheme.full.events) if rng.random() < 0.5}
    for events in (scheme.ek.events, kept | least, least):
        ek = scheme.full.restrict(events)
        yield k, CoordinationScheme(scheme.e1, scheme.e2, ek)
        yield k, CoordinationScheme(scheme.e2, scheme.e1, ek)


def test_decomposability_loop_agrees_with_the_search_route_it_replaced():
    # The walk's own loop against ``search`` with a per-node successor
    # list: the same verdict, counterexample and detail on each case, on
    # K that hold, fail and are empty, and under E_k = ∅.
    cases = collections.Counter()
    rng = random.Random(32)
    while cases["decided"] < 2000:
        for k, scheme in decomposability_cases(rng):
            report = conditionally_decomposable(k, scheme)
            assert report == reference_decomposable(
                k, SubsetConstruction(k, scheme.e1k.events),
                SubsetConstruction(k, scheme.e2k.events))
            cases["decided"] += 1
            cases["holds" if report.holds else "fails"] += 1
            cases["empty K"] += k.recognizes_empty_language
            cases["E_k = ∅"] += not scheme.ek.events
            if not report.holds:
                last = report.counterexample[-1]
                cases["fails", last in scheme.e1k.events,
                      last in scheme.e2k.events] += 1
    assert min(cases[case] for case in (
        "holds", "fails", "empty K", "E_k = ∅")) >= 150, cases
    # The last event moved P_{1+k}(K) only, P_{2+k}(K) only, or both.
    assert min(cases["fails", *moved] for moved in (
        (True, False), (False, True), (True, True))) >= 40, cases


def test_decomposability_walk_stops_at_the_first_counterexample(monkeypatch):
    # With E_k = ∅ the buffered line fails on a2 (the buffer starts empty):
    # the walk expands the start node only, whatever the line's depth, so
    # it interns the start subsets of P_{1+k}(K) and P_{2+k}(K) and the
    # steps on a1 and a2.  P_k(K), implied by the other two, is not built.
    interned = []
    intern = SubsetConstruction._intern

    def counted(self, states):
        interned.append(states)
        return intern(self, states)

    monkeypatch.setattr(SubsetConstruction, "_intern", counted)
    steps = []
    for p1 in (20, 160):
        k, g1, g2 = buffered_line(p1, 3, 3)
        scheme = CoordinationScheme(g1.alphabet, g2.alphabet,
                                    k.alphabet.restrict(()))
        interned.clear()
        report = conditionally_decomposable(k, scheme)
        assert report.counterexample == ("a2",)
        steps.append(len(interned))
    assert steps == [4, 4]


def test_a_projection_onto_no_events_is_one_subset_with_no_step():
    # Every event is hidden and every state of K reachable: the one subset
    # is all of K's states, and no target event leaves it.
    k, _, _ = buffered_line(160, 3, 3)
    construction = SubsetConstruction(k, ())
    assert construction.row(0) == {}
    assert construction.members == [tuple(range(k.num_states))]
    projected = project(k, ())
    assert projected.rows == ({},)


def test_decomposability_builds_no_projection_onto_e_k(monkeypatch):
    # P_k(K) is implied by P_{1+k}(K) ∥ P_{2+k}(K), so each decision builds
    # the subset constructions onto E_{1+k} and E_{2+k} only, on its own
    # and in every step of the coordinator-event search.  The holding
    # decision keeps its pair, so deciding it again builds nothing: neither
    # the repeated call nor the search's last step.
    built, decided = [], []

    class Recorded(SubsetConstruction):
        def __init__(self, g, events):
            super().__init__(g, events)
            built.append(self.alphabet.events)

    decide = coordination.conditionally_decomposable

    def recorded(k, scheme):
        start = len(built)
        report = decide(k, scheme)
        decided.append((scheme, built[start:]))
        return report

    monkeypatch.setattr(coordination, "SubsetConstruction", Recorded)
    monkeypatch.setattr(coordination, "conditionally_decomposable", recorded)
    k, g1, g2 = buffered_line(6, 2, 2)
    for ek in ((), ("a1",), ("a1", "a2"), ("a1", "a2")):
        recorded(k, CoordinationScheme(g1.alphabet, g2.alphabet,
                                       k.alphabet.restrict(ek)))
    ek, _ = suggest_coordinator_events(k, g1, g2)
    assert [set(scheme.ek.events) for scheme, _ in decided] == [
        set(), {"a1"}, {"a1", "a2"}, {"a1", "a2"},
        set(), {"a1"}, {"a1", "a2"}]
    assert decided[-1][0].ek == ek
    assert [bool(pair) for _, pair in decided] == [1, 1, 1, 0, 1, 1, 0]
    for scheme, pair in decided:
        assert pair in ([], [scheme.e1k.events, scheme.e2k.events])
    assert len(built) == 10


def test_the_projection_onto_e_k_adds_nothing_to_the_product():
    # E_k ⊆ E_{1+k}: if P_{1+k}(w) = P_{1+k}(s) with s in K, then
    # P_k(w) = P_k(P_{1+k}(w)) = P_k(s) is in P_k(K).  Checked on built
    # products, and on some seeds on bounded word sets too.
    checked = 0
    for seed in range(150):
        rng = random.Random(f"identity/{seed}")
        k, _, _, _, scheme = mixed_instance(rng)
        kept = {e for e in sorted(scheme.full.events) if rng.random() < 0.5}
        kept |= scheme.full.events - scheme.e1.events - scheme.e2.events
        for ek in (scheme.ek, scheme.full.restrict(kept)):
            other = CoordinationScheme(scheme.e1, scheme.e2, ek)
            targets = (other.e1k.events, other.e2k.events, other.ek.events)
            p1k, p2k, pk = (project(k, events) for events in targets)
            two = sync_product(p1k, p2k)
            assert language_equal(two, sync_product(two, pk)).holds, seed
            if seed % 5:
                continue
            kw = bounded_language(k, 5)
            w1k, w2k, wk = (brute_project(kw, events) for events in targets)
            two = brute_product(w1k, targets[0], w2k, targets[1], 5)
            three = brute_product(two, targets[0] | targets[1], wk,
                                  targets[2], 5)
            assert two == three, seed
            checked += 1
    assert checked == 60


# ---------------------------------------------------------------------------
# conditional controllability

def test_raw_specification_fails_condition_i(cell):
    report = is_conditionally_controllable(cell.k, cell.g1, cell.g2, cell.gk)
    assert not report.holds
    assert not report.condition_i.holds
    assert report.condition_i.counterexample == w("a2.a1.u")
    assert report.condition_iia.holds and report.condition_iib.holds


def test_synthesized_result_is_conditionally_controllable(cell):
    composed = sup_cc(cell.k, cell.g1, cell.g2, cell.gk).composed
    assert is_conditionally_controllable(composed, cell.g1, cell.g2,
                                         cell.gk).holds


def counted_calls(monkeypatch, name):
    """Patch ``<name>`` in ``coordination`` and in ``language``, which
    builds the plant, to record the operands of each call; returns the list
    both append to."""
    calls = []
    for module in (coordination, language):
        original = getattr(module, name)

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def recorded_constructions(monkeypatch):
    """Patch ``coordination.SubsetConstruction`` to record the target
    events of each construction built; returns the list it appends to."""
    built = []

    class Recorded(SubsetConstruction):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.alphabet.events)

    monkeypatch.setattr(coordination, "SubsetConstruction", Recorded)
    return built


def test_each_product_of_the_condctrl_check_is_built_once(cell, monkeypatch):
    # G_i ∥ G_k per side for K ⊆ L, decided as P_{i+k}(K) ⊆ L(G_i ∥ G_k),
    # and one G_i ∥ P_k(K) per side condition, which under K ⊆ L is that
    # side's whole ambient: nothing is projected.
    products = counted_calls(monkeypatch, "sync_product")
    projections = counted_calls(monkeypatch, "project")
    report = is_conditionally_controllable(cell.k, cell.g1, cell.g2, cell.gk)
    assert len(products) == 4
    # The list keeps every operand alive, so no two share an id.
    assert len({(id(a), id(b)) for a, b in products}) == 4
    assert projections == []
    assert not report.holds and report.condition_iia.holds


def test_sup_cc_intersects_no_specification_with_a_plant_factor(
        cell, monkeypatch):
    # G_1 ∥ G_2 for P_k(L_1 ∥ L_2), P_k(K) ∥ P_k(L_1 ∥ L_2), G_i ∥ supC_k
    # per subsystem, and the composition.
    products = counted_calls(monkeypatch, "sync_product")
    result = sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    assert len(products) == 5
    assert not result.composed.recognizes_empty_language


def precondition_outcome(check, k, g1, g2, gk):
    """What ``check`` returns, its generators as their alphabets, rows and
    flags, or the message and report of the ``PreconditionError`` it
    raises."""
    try:
        result = check(k, g1, g2, gk)
    except PreconditionError as exc:
        return str(exc), exc.report
    if isinstance(result, ConditionalControllabilityReport):
        return result
    return [(g.alphabet, [list(row.items()) for row in g.rows],
             g.recognizes_empty_language) for g in result]


def test_condctrl_and_sup_cc_agree_with_the_routes_they_replaced():
    # Each side condition against its own plant and each supC without its
    # plant factor, against the literal routes, with equal reports and
    # equal rows.
    cases = collections.Counter()
    for seed in range(600):
        k, g1, g2, gk, _ = mixed_instance(random.Random(seed))
        report = precondition_outcome(is_conditionally_controllable,
                                      k, g1, g2, gk)
        assert report == precondition_outcome(
            reference_conditionally_controllable, k, g1, g2, gk), seed
        if isinstance(report, ConditionalControllabilityReport):
            cases["within the plant"] += 1
            cases["side fails"] += ((not report.condition_iia.holds)
                                    + (not report.condition_iib.holds))
        try:
            result = sup_cc(k, g1, g2, gk, force=True)
        except PreconditionError:
            continue
        got = (result.sup_k, result.sup_1k, result.sup_2k, result.composed)
        for mine, theirs in zip(got, reference_sup_cc(k, g1, g2, gk)):
            assert mine.rows == theirs.rows, seed
            assert (mine.recognizes_empty_language
                    == theirs.recognizes_empty_language), seed
        cases["sup_1k non-empty"] += (
            not result.sup_1k.recognizes_empty_language)
        # sup_cc projects G_1 ∥ G_2 onto E_k ∩ (E_1 ∪ E_2) only.
        cases["E_k has a private event"] += bool(
            gk.alphabet.events - g1.alphabet.events - g2.alphabet.events)
    assert cases["within the plant"] >= 260, cases
    assert cases["side fails"] >= 48, cases
    assert cases["sup_1k non-empty"] >= 236, cases
    assert cases["E_k has a private event"] >= 200, cases


def test_k_within_the_plant_is_decided_as_the_plant_walk_decides_it(
        monkeypatch):
    # K ⊆ L decided on P_{1+k}(K) and P_{2+k}(K), against the routes that
    # walk K against the built plant: the same reports and supervisors, or
    # the same precondition message and witness, on K within and outside
    # the plant.  K is walked against the plant exactly when K ⊄ L.
    walks = []
    walk = coordination._require_spec_within_plant

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(coordination, "_require_spec_within_plant", counted)
    cases = collections.Counter()
    for seed in range(600):
        rng = random.Random(f"within/{seed}")
        k, g1, g2, gk, _ = (mixed_instance(rng) if seed % 2 else
                            distributed_instance(
                                rng, require_preconditions=False))
        within = spec_within_plant(k, g1, g2, gk).holds
        for check, reference in (
                (is_conditionally_controllable,
                 reference_conditionally_controllable),
                (synthesize_supervisors, reference_synthesize_supervisors)):
            walks.clear()
            outcome = precondition_outcome(check, k, g1, g2, gk)
            assert outcome == precondition_outcome(
                reference, k, g1, g2, gk), (seed, check)
            cases[check.__name__, within, len(walks)] += 1
    # synthesize_supervisors decides K ⊆ L only once K is conditionally
    # independent and decomposable, so some K ⊄ L fail before the walk.
    assert set(cases) == {("is_conditionally_controllable", True, 0),
                          ("is_conditionally_controllable", False, 1),
                          ("synthesize_supervisors", True, 0),
                          ("synthesize_supervisors", False, 1),
                          ("synthesize_supervisors", False, 0)}, cases
    assert min(cases.values()) >= 60, cases


def test_a_spec_outside_the_plant_builds_its_projections_to_the_witness(
        monkeypatch):
    # P_{1+k}(K) of hidden_blow_up(12) has 2^12 subsets, and G_1 refuses
    # its first step a: the inclusion walk stops there, having built two
    # subsets of P_{1+k}(K) and only the start of P_{2+k}(K), and the
    # plant walk gives the witness.
    constructions = []

    class Recorded(SubsetConstruction):
        def __init__(self, *args):
            super().__init__(*args)
            constructions.append(self)

    monkeypatch.setattr(coordination, "SubsetConstruction", Recorded)
    ab = Alphabet({"a", "b"}, {"a", "b"})
    with pytest.raises(PreconditionError) as raised:
        is_conditionally_controllable(
            hidden_blow_up(12), from_words(ab, ["b"]),
            universal_generator(Alphabet({"a", "b", "h"}, {"a", "b", "h"})),
            universal_generator(ab))
    assert raised.value.report.counterexample == ("a",)
    assert [len(c.members) for c in constructions] == [2, 1]


def test_an_empty_plant_contains_no_spec_of_the_empty_word():
    # K = {ε} takes no step, nor do its projections, so only G_1 ∥ G_k's
    # empty flag shows the inclusion walk that ε lies outside L.
    ab = Alphabet({"a", "b"}, {"a", "b"})
    k, g1, g2, gk = (from_words(ab, [""]),
                     empty_generator(Alphabet({"a"}, {"a"})),
                     universal_generator(Alphabet({"b"}, {"b"})),
                     universal_generator(ab))
    for check, reference in (
            (is_conditionally_controllable,
             reference_conditionally_controllable),
            (synthesize_supervisors, reference_synthesize_supervisors)):
        outcome = precondition_outcome(check, k, g1, g2, gk)
        assert outcome == precondition_outcome(reference, k, g1, g2, gk)
        assert outcome[1].counterexample == ()


def test_the_third_ambient_factor_is_the_projected_specification():
    # P_k(L(G_j) ∥ P_k(K)) = P_k(K) when K ⊆ L, and not in general.  On the
    # first 60 instances also on words of length at most 5, by the
    # definition-literal product and projection: under K ⊆ L the preimage
    # of P_k(s) is P_{j+k}(s), which is no longer than s.
    n = 5
    sides, bounded = collections.Counter(), collections.Counter()
    for seed in range(600):
        k, g1, g2, gk, scheme = mixed_instance(random.Random(seed))
        within = spec_within_plant(k, g1, g2, gk).holds
        ek = scheme.ek.events
        pk = project(k, ek)
        pk_words = brute_project(bounded_language(k, n), ek)
        for g in (g1, g2):
            factor = project(sync_product(g, pk), ek)
            sides[within, language_equal(factor, pk).holds] += 1
            if seed < 60:
                product = brute_product(bounded_language(g, n),
                                        g.alphabet.events, pk_words, ek, n)
                bounded[within, brute_project(product, ek) == pk_words] += 1
    assert sides[True, False] == 0 and sides[True, True] >= 520, sides
    assert sides[False, False] >= 364, sides
    assert bounded[True, False] == 0 and bounded[True, True] >= 48, bounded
    assert bounded[False, False] >= 47, bounded


def test_specification_must_be_within_the_plant(cell):
    outside = from_words(cell.full, ["a1.a1"])
    with pytest.raises(PreconditionError) as info:
        is_conditionally_controllable(outside, cell.g1, cell.g2, cell.gk)
    assert info.value.report.counterexample == w("a1.a1")


# ---------------------------------------------------------------------------
# supervisor synthesis

def test_supervisor_synthesis_achieves_the_specification(cell):
    target = sup_cc(cell.k, cell.g1, cell.g2, cell.gk).composed
    total = compose_loops(target, cell.g1, cell.g2, cell.gk)
    expected = cell.over_full("a1.a2.u", "a2", "c.u1.u2", "c.u2.u1")
    assert language_equal(total, expected).holds


def test_synthesize_supervisors_builds_each_product_once(cell, monkeypatch):
    # G_1 ∥ G_2 for conditional independence, G_i ∥ G_k per side for
    # K ⊆ L, and one G_i ∥ P_k(K) per side condition.  The supervisors are
    # the projections condctrl was decided on: P_{1+k}(K) and P_{2+k}(K)
    # from the pair conddec built, and P_k(K) over one of them.
    target = sup_cc(cell.k, cell.g1, cell.g2, cell.gk).composed
    products = counted_calls(monkeypatch, "sync_product")
    built = recorded_constructions(monkeypatch)
    synthesize_supervisors(target, cell.g1, cell.g2, cell.gk)
    # The list keeps every operand alive, so no two share an id.
    assert len({(id(a), id(b)) for a, b in products}) == len(products) == 5
    scheme = cell.scheme
    assert built == [scheme.e1k.events, scheme.e2k.events, scheme.ek.events]


def test_synthesis_with_fully_controllable_plant(cell):
    # Everything controllable: the plant language itself is achievable and
    # the supervisors are its projections.
    e1 = Alphabet(cell.e1.events, cell.e1.events)
    e2 = Alphabet(cell.e2.events, cell.e2.events)
    g1 = from_words(e1, ["c.u1", "a1.u"])
    g2 = from_words(e2, ["c.u2", "a2.u"])
    ek = Alphabet(cell.ek.events, cell.ek.events)
    gk = default_coordinator(g1, g2, ek)
    plant = sync_product(sync_product(g1, g2), gk)
    total = compose_loops(plant, g1, g2, gk)
    assert language_equal(total, plant).holds


def test_synthesis_rejects_uncontrollable_specification(cell):
    with pytest.raises(PreconditionError):
        synthesize_supervisors(cell.k, cell.g1, cell.g2, cell.gk)


# ---------------------------------------------------------------------------
# distributed supremal synthesis

def test_distributed_synthesis_golden(cell):
    result = sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    assert result.certified
    golden = {
        "sup_k": cell.over_ek("a2", "c", "a1.a2.u"),
        "sup_1k": from_words(cell.scheme.e1k, ["a1.a2.u", "a2", "c.u1"]),
        "sup_2k": from_words(cell.scheme.e2k, ["a1.a2.u", "a2", "c.u2"]),
        "composed": cell.over_full("a1.a2.u", "a2", "c.u1.u2", "c.u2.u1"),
    }
    assert language_equal(result.sup_k, golden["sup_k"]).holds
    assert language_equal(result.sup_1k, golden["sup_1k"]).holds
    assert language_equal(result.sup_2k, golden["sup_2k"]).holds
    assert language_equal(result.composed, golden["composed"]).holds


def test_distributed_synthesis_of_empty_specification(cell):
    result = sup_cc(empty_generator(cell.full), cell.g1, cell.g2, cell.gk)
    assert result.sup_k.recognizes_empty_language
    assert result.sup_1k.recognizes_empty_language
    assert result.sup_2k.recognizes_empty_language
    assert result.composed.recognizes_empty_language


def test_force_overrides_observer_occ_but_not_decomposability(cell):
    # E_k = {a1, c, u}: decomposable, but OCC fails for subsystem 2.
    gk = default_coordinator(cell.g1, cell.g2,
                             cell.full.restrict({"a1", "c", "u"}))
    with pytest.raises(PreconditionError):
        sup_cc(cell.k, cell.g1, cell.g2, gk)
    result = sup_cc(cell.k, cell.g1, cell.g2, gk, force=True)
    assert not result.certified
    plant = sync_product(sync_product(cell.g1, cell.g2), gk)
    assert is_controllable(result.composed, plant).holds

    # E_k = {c, u}: not decomposable; force does not help.
    gk_cu = default_coordinator(cell.g1, cell.g2,
                                cell.full.restrict({"c", "u"}))
    with pytest.raises(PreconditionError):
        sup_cc(cell.k, cell.g1, cell.g2, gk_cu, force=True)


@pytest.mark.parametrize("run", [
    pytest.param(sup_cc, id="sup_cc"),
    pytest.param(is_conditionally_controllable, id="condctrl"),
    pytest.param(synthesize_supervisors, id="supervisors"),
    pytest.param(lambda k, g1, g2, gk: check_optimality_conditions(g1, g2, gk),
                 id="optimality"),
])
def test_plant_controllability_conflict_is_an_error(cell, run):
    # The scheme comes from the plant alphabets, so a coordinator that
    # declares the shared event c uncontrollable conflicts with G_1.
    ek = Alphabet(cell.ek.events, cell.ek.controllable - {"c"})
    gk = universal_generator(ek)
    with pytest.raises(ControllabilityConflictError, match=r"\['c'\]"):
        run(cell.k, cell.g1, cell.g2, gk)


@pytest.mark.parametrize("run", [
    pytest.param(sup_cc, id="sup_cc"),
    pytest.param(is_conditionally_controllable, id="condctrl"),
    pytest.param(synthesize_supervisors, id="supervisors"),
    pytest.param(lambda k, *plant: conditionally_decomposable(
        k, CoordinationScheme(*(g.alphabet for g in plant))), id="conddec"),
])
def test_a_spec_outside_the_scheme_alphabet_is_an_error(cell, run):
    # G_1 itself, over E_1 only, is no specification over E_1 ∪ E_2 ∪ E_k.
    with pytest.raises(AlphabetMismatchError, match="E_1 ∪ E_2 ∪ E_k"):
        run(cell.g1, cell.g1, cell.g2, cell.gk)


# ---------------------------------------------------------------------------
# optimality conditions

def test_optimality_golden(cell):
    assert check_optimality_conditions(cell.g1, cell.g2, cell.gk).holds
    result = sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    plant = sync_product(cell.g1, cell.g2)
    best = sup_c(cell.k, sync_product(plant, cell.gk))
    assert language_equal(result.composed, best).holds


def test_optimality_fails_for_unproducible_coordinator_word(cell):
    gk_bad = cell.over_ek("c", "a1.a2.u", "a2.a1.u", "u")
    report = check_optimality_conditions(cell.g1, cell.g2, gk_bad)
    assert not report.holds
    assert report.counterexample == ("u",)


def random_coordinator_instances(seeds=400):
    """``(rng, instance)`` for seeds 0 to ``seeds`` - 1: an instance of
    ``distributed_instance`` with a random coordinator and the observer and
    OCC preconditions certified, and the generator it was drawn from."""
    for seed in range(seeds):
        rng = random.Random(seed)
        instance = distributed_instance(rng, coordinator="random")
        if instance is not None:
            yield rng, instance


def test_distributed_result_is_supc_where_the_optimality_conditions_hold():
    # The optimality theorem: with the preconditions certified and the
    # optimality conditions holding, the composed sup_cc equals
    # supC(K, L_1 ∥ L_2 ∥ L_k).  Without the conditions it may be smaller.
    seen = collections.Counter()
    for _, (k, g1, g2, gk, _) in random_coordinator_instances():
        composed = sup_cc(k, g1, g2, gk).composed
        best = sup_c(k, sync_product(sync_product(g1, g2), gk))
        assert language_subset(composed, best).holds
        equal = language_equal(composed, best).holds
        if check_optimality_conditions(g1, g2, gk).holds:
            assert equal
            seen["equal under the conditions"] += 1
        else:
            seen["equal" if equal else "strictly smaller"] += 1
    assert seen["equal under the conditions"] >= 80, seen
    assert seen["strictly smaller"] >= 45, seen


def test_sup_cc_is_monotone_in_the_specification():
    # Supremality seen as monotonicity: K ∥ D ⊆ K implies
    # sup_cc(K ∥ D) ⊆ sup_cc(K).  K ∥ D stays conditionally decomposable,
    # since D is and an intersection of such languages is.
    seen = collections.Counter()
    for rng, (k, g1, g2, gk, scheme) in random_coordinator_instances():
        smaller = sync_product(k, decomposable_spec(rng, scheme))
        inner = sup_cc(smaller, g1, g2, gk).composed
        outer = sup_cc(k, g1, g2, gk).composed
        assert language_subset(inner, outer).holds
        seen[language_equal(inner, outer).holds] += 1
    assert seen[True] >= 200 and seen[False] >= 15, seen


def test_supervisors_achieve_sup_cc_with_random_coordinators():
    # Criterion 5 with random coordinators: the composed sup_cc is
    # conditionally controllable, and where the subsystems are conditionally
    # independent given G_k, the closed loops of its three supervisors
    # compose to it exactly; where they are not, the synthesis refuses.
    # Seeds 0-1999 give 1375 instances; of the 153 whose target is beyond
    # ∅ and {ε}, 125 compose exactly and 28 are refused for independence.
    seen = collections.Counter()
    for _, (k, g1, g2, gk, _) in random_coordinator_instances(2000):
        target = sup_cc(k, g1, g2, gk).composed
        assert is_conditionally_controllable(target, g1, g2, gk).holds
        beyond = "" if target.num_transitions == 0 else "beyond ε: "
        if conditionally_independent(g1, g2, gk).holds:
            assert language_equal(compose_loops(target, g1, g2, gk),
                                  target).holds
            seen[beyond + "equal"] += 1
        else:
            with pytest.raises(PreconditionError,
                               match="not conditionally independent"):
                synthesize_supervisors(target, g1, g2, gk)
            seen[beyond + "refused"] += 1
    assert seen["beyond ε: equal"] >= 105, seen
    assert seen["beyond ε: refused"] >= 22, seen


# ---------------------------------------------------------------------------
# coordinator construction

def test_default_coordinator_golden(cell):
    expected = cell.over_ek("c", "a1.a2.u", "a2.a1.u")
    assert language_equal(cell.gk, expected).holds


def test_default_coordinator_over_full_alphabet_is_the_plant(cell):
    gk = default_coordinator(cell.g1, cell.g2, cell.full)
    plant = sync_product(cell.g1, cell.g2)
    assert language_equal(gk, plant).holds


def test_default_coordinator_requires_shared_events(cell):
    # The reachable shared events are {c, u}; the witness is the least of
    # those outside E_k.
    for ek, witness in (({"c"}, ("u",)), ({"a1"}, ("c",))):
        with pytest.raises(PreconditionError) as info:
            default_coordinator(cell.g1, cell.g2, cell.full.restrict(ek))
        assert not info.value.report.holds
        assert info.value.report.counterexample == witness


def test_default_coordinator_never_restricts_the_plant():
    rng = random.Random(33)
    for _ in range(30):
        _, g1, g2, _, scheme = distributed_instance(
            rng, require_preconditions=False)
        gk = default_coordinator(g1, g2, scheme.ek)
        plant = sync_product(g1, g2)
        restricted = sync_product(plant, gk)
        assert language_equal(
            project(restricted, plant.alphabet.events),
            plant,
        ).holds


def test_suggest_coordinator_events_golden(cell):
    suggested, _ = suggest_coordinator_events(cell.k, cell.g1, cell.g2)
    assert suggested.events == {"a1", "a2", "c", "u"}


def test_suggest_keeps_shared_events_when_they_suffice():
    alpha = Alphabet({"s", "p", "q"}, {"s", "p", "q"})
    e1 = alpha.restrict({"s", "p"})
    e2 = alpha.restrict({"s", "q"})
    g1 = from_words(e1, ["s.p"])
    g2 = from_words(e2, ["s.q"])
    k = sync_product(g1, g2)
    suggested, _ = suggest_coordinator_events(k, g1, g2)
    assert suggested.events == {"s"}


def test_suggest_on_disjoint_subsystems_returns_empty():
    e1 = Alphabet({"p"}, {"p"})
    e2 = Alphabet({"q"}, {"q"})
    g1 = lang(e1, "p")
    g2 = lang(e2, "q")
    k = sync_product(g1, g2)
    suggested, _ = suggest_coordinator_events(k, g1, g2)
    assert suggested.events == frozenset()


def test_suggest_returns_the_report_for_the_set_it_chose():
    # The chosen E_k always decomposes K: the search stops only on a
    # decomposable set or on K's whole alphabet, under which P_{1+k} and
    # P_{2+k} are the identity.  Both ways out are taken.
    outcomes = collections.Counter()
    for seed in range(100):
        k, g1, g2, _, _ = mixed_instance(random.Random(f"suggest/{seed}"))
        ek, report = suggest_coordinator_events(k, g1, g2)
        scheme = CoordinationScheme(g1.alphabet, g2.alphabet, ek)
        assert report == conditionally_decomposable(k, scheme), seed
        assert report.holds, seed
        outcomes[ek == k.alphabet] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 50, outcomes


# ---------------------------------------------------------------------------
# the subset constructions kept for a live specification

def line_with_coordinator(size=(20, 3, 3)):
    """(K∩L, G1, G2, G_k) of the buffered line with the default coordinator
    over E_k = {a1, a2, b1, b2}."""
    k, g1, g2 = buffered_line(*size)
    ek = k.alphabet.restrict({"a1", "a2", "b1", "b2"})
    return k, g1, g2, default_coordinator(g1, g2, ek)


def test_the_series_on_one_spec_builds_one_pair_of_projections(monkeypatch):
    # The holding conddec walk keeps the pair it finished and its verdict,
    # and condctrl, sup_cc and synthesize_supervisors read them again:
    # each builds only P_k(K), over one of the pair, and no call walks the
    # inclusion again.  synthesize_supervisors fails on condctrl's first
    # failure, decided on the projections it built.
    built = recorded_constructions(monkeypatch)
    walks = []
    decide = coordination._decomposable
    monkeypatch.setattr(coordination, "_decomposable",
                        lambda *args: walks.append(args) or decide(*args))
    k, g1, g2, gk = line_with_coordinator()
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    assert conditionally_decomposable(k, scheme).holds
    is_conditionally_controllable(k, g1, g2, gk)
    sup_cc(k, g1, g2, gk, force=True)
    with pytest.raises(PreconditionError,
                       match="not conditionally controllable"):
        synthesize_supervisors(k, g1, g2, gk)
    assert conditionally_decomposable(k, scheme).holds
    assert built == [scheme.e1k.events, scheme.e2k.events,
                     scheme.ek.events, scheme.ek.events, scheme.ek.events]
    assert len(walks) == 1


def test_a_kept_pair_lets_its_spec_go():
    # The pair keeps K's rows, not K, and makes no cycle: with the collector
    # off, K goes with its last reference, and its kept pair with it.  The
    # pair lets go of what only interning reads.
    k, g1, g2, gk = line_with_coordinator()
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    enabled = gc.isenabled()
    gc.disable()
    try:
        conditionally_decomposable(k, scheme)
        is_conditionally_controllable(k, g1, g2, gk)
        sup_cc(k, g1, g2, gk, force=True)
        (targets, parts, report), = coordination._kept.values()
        assert targets == (scheme.e1k.events, scheme.e2k.events)
        assert report.holds
        assert all(part._ids is part._single is part._steps is None
                   for part in parts)
        spec = weakref.ref(k)
        del k
        assert spec() is None
        assert len(coordination._kept) == 0
    finally:
        if enabled:
            gc.enable()


def test_a_walk_cut_short_keeps_nothing(monkeypatch):
    # A failing decision stops at its counterexample, and a construction
    # stops at the subset limit: neither keeps a pair, and with the limit
    # restored the same K gives what a fresh K gives.
    k, g1, g2, gk = line_with_coordinator()
    cut = CoordinationScheme(g1.alphabet, g2.alphabet,
                             k.alphabet.restrict({"a1"}))
    assert not conditionally_decomposable(k, cut).holds
    assert len(coordination._kept) == 0
    # P_{1+k}(K) onto {a, b} has 2^12 subsets; P_{2+k}(K) is K's own.
    k = hidden_blow_up(12)
    ab = Alphabet({"a", "b"}, {"a", "b"})
    plant = (universal_generator(ab),
             universal_generator(Alphabet({"h"}, {"h"})),
             universal_generator(ab))
    scheme = CoordinationScheme(ab, plant[1].alphabet, ab)
    checks = (lambda k: conditionally_decomposable(k, scheme),
              lambda k: is_conditionally_controllable(k, *plant))
    monkeypatch.setattr(language, "MAX_SUBSETS", 100)
    for check in checks:
        with pytest.raises(SubsetLimitError):
            check(k)
        assert len(coordination._kept) == 0
    monkeypatch.undo()
    for check in checks:
        fresh = Generator(k.alphabet, k.rows)
        assert check(k) == check(fresh)
        assert k in coordination._kept


def test_threads_share_the_kept_pairs_of_one_spec():
    # More threads than cores decide conddec and condctrl, and synthesize
    # the supervisors, on one K under two event sets in turn, each
    # replacing the other's kept pair, with the interpreter switching
    # threads as often as it can: every outcome is the one a fresh K gives.
    k, g1, g2, gk = line_with_coordinator((6, 2, 2))
    gk2 = default_coordinator(g1, g2, k.alphabet.restrict({"a1", "a2"}))
    cases = [(coordinator, CoordinationScheme(g1.alphabet, g2.alphabet,
                                              coordinator.alphabet))
             for coordinator in (gk, gk2)]

    def verdicts(k):
        return [(conditionally_decomposable(k, scheme),
                 is_conditionally_controllable(k, g1, g2, gk),
                 outcome(synthesize_supervisors, k, g1, g2, gk))
                for gk, scheme in cases]

    want = verdicts(Generator(k.alphabet, k.rows))
    got = []

    def work():
        for _ in range(10):
            got.append(verdicts(k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work)
                   for _ in range((os.cpu_count() or 1) + 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 10 * len(threads)


def outcome(call, *args):
    """What ``call(*args)`` returns, each generator as its alphabet, rows
    and flag, or the message and report of the ``PreconditionError`` it
    raises."""
    try:
        result = call(*args)
    except PreconditionError as exc:
        return str(exc), exc.report
    if isinstance(result, SynthesisResult):
        result = (result.sup_k, result.sup_1k, result.sup_2k, result.composed,
                  result.certified)
    if not isinstance(result, tuple):
        return result
    return [(g.alphabet, [list(row.items()) for row in g.rows],
             g.recognizes_empty_language) if isinstance(g, Generator) else g
            for g in result]


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=80, deadline=None)
def test_the_series_on_one_spec_gives_what_fresh_specs_give(rng, contained):
    # Each call of the paper's series on one K, which reuses the pair an
    # earlier call kept, against the same call on a fresh K, which keeps
    # nothing.  The search in the middle keeps the pair of the E_k it
    # chooses, so the calls after it build theirs again.
    k, g1, g2, gk, scheme = distributed_instance(
        rng, require_preconditions=False, contained=contained)
    series = ((conditionally_decomposable, scheme),
              (is_conditionally_controllable, g1, g2, gk),
              (sup_cc, g1, g2, gk, True),
              (synthesize_supervisors, g1, g2, gk),
              (suggest_coordinator_events, g1, g2),
              (sup_cc, g1, g2, gk),
              (is_conditionally_controllable, g1, g2, gk),
              (conditionally_decomposable, scheme))
    for call, *args in series:
        fresh = Generator(k.alphabet, k.rows, k.recognizes_empty_language)
        assert outcome(call, k, *args) == outcome(call, fresh, *args), call


# ---------------------------------------------------------------------------
# smoke versions of the heavy randomized properties (full runs live in
# test_acceptance.py)

def test_composition_is_controllable_smoke():
    instances = collect_instances(341, 20, distributed_instance)
    for k, g1, g2, gk, scheme in instances:
        result = sup_cc(k, g1, g2, gk)
        plant = sync_product(sync_product(g1, g2), gk)
        assert is_controllable(result.composed, plant).holds
        best = sup_c(k, plant)
        assert language_subset(result.composed, best).holds
        assert conditionally_decomposable(result.composed, scheme).holds


def test_union_preserves_conditional_controllability_smoke():
    instances = collect_instances(
        351, 10,
        lambda r: distributed_instance(r, coordinator="default"),
    )
    rng = random.Random(352)
    for k, g1, g2, gk, scheme in instances:
        other = sup_cc(
            sync_product(
                sync_product(random_generator(rng, scheme.e1k),
                             random_generator(rng, scheme.e2k)),
                random_generator(rng, scheme.ek)),
            g1, g2, gk).composed
        first = sup_cc(k, g1, g2, gk).composed
        union = language_union(first, other)
        assert is_conditionally_controllable(union, g1, g2, gk).holds
