"""Tests for the coordination layer: the independence / decomposability /
conditional-controllability checks, supervisor synthesis and the
distributed supremal computation."""

import random

import pytest

from descoord import (
    Alphabet,
    ControllabilityConflictError,
    CoordinationScheme,
    PreconditionError,
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
    language_union,
    project,
    suggest_coordinator_events,
    sup_c,
    sup_cc,
    sync_product,
    synthesize_supervisors,
    universal_generator,
)

from helpers import (
    collect_instances,
    distributed_instance,
    lang,
    random_generator,
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
    assert is_controllable(result.composed, plant,
                           cell.full.uncontrollable).holds

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


# ---------------------------------------------------------------------------
# optimality conditions

def test_optimality_golden(cell):
    assert check_optimality_conditions(cell.g1, cell.g2, cell.gk).holds
    result = sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    plant = sync_product(cell.g1, cell.g2)
    best = sup_c(cell.k, sync_product(plant, cell.gk),
                 cell.full.uncontrollable)
    assert language_equal(result.composed, best).holds


def test_optimality_fails_for_unproducible_coordinator_word(cell):
    gk_bad = cell.over_ek("c", "a1.a2.u", "a2.a1.u", "u")
    report = check_optimality_conditions(cell.g1, cell.g2, gk_bad)
    assert not report.holds
    assert report.counterexample == ("u",)


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
    with pytest.raises(PreconditionError):
        default_coordinator(cell.g1, cell.g2, cell.full.restrict({"c"}))


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
    suggested = suggest_coordinator_events(cell.k, cell.g1, cell.g2)
    assert suggested.events == {"a1", "a2", "c", "u"}


def test_suggest_keeps_shared_events_when_they_suffice():
    alpha = Alphabet({"s", "p", "q"}, {"s", "p", "q"})
    e1 = alpha.restrict({"s", "p"})
    e2 = alpha.restrict({"s", "q"})
    g1 = from_words(e1, ["s.p"])
    g2 = from_words(e2, ["s.q"])
    k = sync_product(g1, g2)
    suggested = suggest_coordinator_events(k, g1, g2)
    assert suggested.events == {"s"}


def test_suggest_on_disjoint_subsystems_returns_empty():
    e1 = Alphabet({"p"}, {"p"})
    e2 = Alphabet({"q"}, {"q"})
    g1 = lang(e1, "p")
    g2 = lang(e2, "q")
    k = sync_product(g1, g2)
    suggested = suggest_coordinator_events(k, g1, g2)
    assert suggested.events == frozenset()


# ---------------------------------------------------------------------------
# smoke versions of the heavy randomized properties (full runs live in
# test_acceptance.py)

def test_composition_is_controllable_smoke():
    instances = collect_instances(341, 20, distributed_instance)
    for k, g1, g2, gk, scheme in instances:
        result = sup_cc(k, g1, g2, gk)
        plant = sync_product(sync_product(g1, g2), gk)
        assert is_controllable(result.composed, plant,
                               scheme.full.uncontrollable).holds
        best = sup_c(k, plant, scheme.full.uncontrollable)
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
