"""Tests for the observer-property and output-control-consistency checks,
including agreement with definition-literal bounded evaluation."""

import random

from descoord import (
    Alphabet,
    ProjectionSpec,
    is_observer,
    is_occ,
    observer_occ_reports,
    sync_product,
)
from descoord.language import CoordinationScheme

from helpers import (
    bounded_observer_verdict,
    bounded_occ_verdict,
    lang,
    random_controllable,
    random_generator,
    w,
)


def test_identity_projection_is_always_an_observer():
    rng = random.Random(21)
    alpha = Alphabet({"a", "b", "u"}, {"a"})
    for _ in range(20):
        g = random_generator(rng, alpha)
        assert is_observer(g, ProjectionSpec(alpha, alpha.events)).holds


def test_observer_failure_without_continuation():
    alpha = Alphabet({"a", "b", "c"}, {"a", "b", "c"})
    g = lang(alpha, "a.b", "c")
    report = is_observer(g, ProjectionSpec(alpha, {"b"}))
    assert not report.holds
    assert report.counterexample == w("c.b")


def test_observer_holds_for_lifted_subsystems(cell):
    for name, report in observer_occ_reports(cell.g1, cell.g2, cell.scheme):
        assert report.holds, name


def test_occ_fails_when_private_start_is_hidden(cell):
    # Coordinator alphabet holding only the shared events: the controllable
    # a1 becomes hidden and precedes the uncontrollable shared u.
    small = cell.full.restrict({"c", "u"})
    scheme = CoordinationScheme(cell.e1, cell.e2, small)
    occ_reports = [rep for name, rep in
                   observer_occ_reports(cell.g1, cell.g2, scheme)
                   if name.startswith("occ")]
    assert not occ_reports[0].holds
    assert occ_reports[0].counterexample == w("a1.u")
    assert not occ_reports[1].holds
    assert occ_reports[1].counterexample == w("a2.u")


def test_occ_holds_for_the_chosen_coordinator_alphabet(cell):
    occ_reports = [rep for name, rep in
                   observer_occ_reports(cell.g1, cell.g2, cell.scheme)
                   if name.startswith("occ")]
    assert all(rep.holds for rep in occ_reports)


def test_occ_vacuous_without_uncontrollable_events():
    alpha = Alphabet({"a", "b"}, {"a", "b"})
    g = lang(alpha, "a.b", "b.a.b")
    assert is_occ(g, ProjectionSpec(alpha, {"b"}), set()).holds


def test_occ_handles_hidden_cycles():
    alpha = Alphabet({"a", "h", "u"}, {"a", "h"})
    # Controllable hidden cycle before an uncontrollable target event.
    gens = {
        ("s0", "h"): "s1",
        ("s1", "h"): "s0",
        ("s1", "u"): "s2",
    }
    from descoord import make_generator
    g = make_generator(["s0", "s1", "s2"], alpha, gens, "s0")
    report = is_occ(g, ProjectionSpec(alpha, {"a", "u"}), {"u"})
    assert not report.holds
    assert report.counterexample == w("h.u")


def test_checkers_agree_with_bounded_definition():
    rng = random.Random(22)
    for _ in range(60):
        names = ["a", "b", "u", "v"][: rng.randint(2, 4)]
        alpha = Alphabet(frozenset(names), random_controllable(rng, names))
        g = random_generator(rng, alpha, max_states=5)
        target = frozenset(e for e in names if rng.random() < 0.5)
        spec = ProjectionSpec(alpha, target)

        verdict = is_observer(g, spec)
        literal, _ = bounded_observer_verdict(g, spec, 6)
        if verdict.holds:
            assert literal
        elif len(verdict.counterexample) <= 6:
            assert not literal

        occ = is_occ(g, spec, alpha.uncontrollable)
        literal_occ, _ = bounded_occ_verdict(g, spec,
                                             alpha.uncontrollable, 8)
        if occ.holds:
            assert literal_occ
        elif len(occ.counterexample) <= 8:
            assert not literal_occ


def test_observer_composition_lemma():
    # If the shared events stay in E_k and each P^i restricted to E_k∩E_i is
    # an L_i-observer, the combined projection is an L_1 ∥ L_2-observer.
    rng = random.Random(23)
    confirmed = 0
    for _ in range(120):
        shared = ["s1"]
        p1 = ["m1", "m2"][: rng.randint(1, 2)]
        p2 = ["n1"]
        pool = shared + p1 + p2
        full = Alphabet(frozenset(pool), random_controllable(rng, pool))
        e1 = full.restrict(shared + p1)
        e2 = full.restrict(shared + p2)
        ek = set(shared)
        for event in p1 + p2:
            if rng.random() < 0.4:
                ek.add(event)
        g1 = random_generator(rng, e1)
        g2 = random_generator(rng, e2)
        if not is_observer(g1, ProjectionSpec(e1, e1.events & ek)).holds:
            continue
        if not is_observer(g2, ProjectionSpec(e2, e2.events & ek)).holds:
            continue
        product = sync_product(g1, g2)
        assert is_observer(product,
                           ProjectionSpec(product.alphabet, ek)).holds
        confirmed += 1
    assert confirmed >= 30


def test_occ_composition_lemma(cell):
    # The distributed-synthesis hypotheses imply OCC of the coordinator
    # projection for the whole plant.
    for name, report in observer_occ_reports(cell.g1, cell.g2, cell.scheme):
        assert report.holds, name
    plant = sync_product(sync_product(cell.g1, cell.g2), cell.gk)
    assert is_occ(plant, ProjectionSpec(cell.full, cell.ek.events),
                  cell.full.uncontrollable).holds
