"""Tests for the observer-property and output-control-consistency checks,
including agreement with definition-literal bounded evaluation."""

import collections
import random

import pytest

from descoord import (
    Alphabet,
    ValidationError,
    coordination,
    is_observer,
    is_occ,
    make_generator,
    observer_occ_reports,
    project,
    structural,
    sync_product,
)
from descoord.automata import backward, search
from descoord.language import SubsetConstruction

from descoord.oracle import bounded_language, erase

from helpers import (
    bounded_observer_verdict,
    bounded_occ_verdict,
    counted_rows,
    hidden_chain,
    lang,
    random_controllable,
    random_generator,
    reference_is_observer,
    reference_is_occ,
    w,
)


def test_identity_projection_is_always_an_observer():
    rng = random.Random(21)
    alpha = Alphabet({"a", "b", "u"}, {"a"})
    for _ in range(20):
        g = random_generator(rng, alpha)
        assert is_observer(g, alpha.events).holds


def test_observer_failure_without_continuation():
    alpha = Alphabet({"a", "b", "c"}, {"a", "b", "c"})
    g = lang(alpha, "a.b", "c")
    report = is_observer(g, {"b"})
    assert not report.holds
    assert report.counterexample == w("c.b")


def test_observer_holds_for_lifted_subsystems(cell):
    for name, report in observer_occ_reports(cell.g1, cell.g2, cell.ek):
        assert report.holds, name


def test_occ_fails_when_private_start_is_hidden(cell):
    # Coordinator alphabet holding only the shared events: the controllable
    # a1 becomes hidden and precedes the uncontrollable shared u.
    small = cell.full.restrict({"c", "u"})
    occ_reports = [rep for name, rep in
                   observer_occ_reports(cell.g1, cell.g2, small)
                   if name.startswith("occ")]
    assert not occ_reports[0].holds
    assert occ_reports[0].counterexample == w("a1.u")
    assert not occ_reports[1].holds
    assert occ_reports[1].counterexample == w("a2.u")


def test_observer_occ_reports_lift_each_subsystem_once(cell, monkeypatch):
    lifted = collections.Counter()

    def counted(g, superset, _lift=coordination.inverse_project):
        lifted[g] += 1
        return _lift(g, superset)

    monkeypatch.setattr(coordination, "inverse_project", counted)
    names = [name for name, _ in
             observer_occ_reports(cell.g1, cell.g2, cell.ek)]
    assert names == ["observer(subsystem 1)", "occ(subsystem 1)",
                     "observer(subsystem 2)", "occ(subsystem 2)"]
    assert lifted == {cell.g1: 1, cell.g2: 1}


def test_observer_occ_reports_run_only_the_named_checks(cell):
    names = [name for name, _ in
             observer_occ_reports(cell.g1, cell.g2, cell.ek, ("occ",))]
    assert names == ["occ(subsystem 1)", "occ(subsystem 2)"]
    with pytest.raises(ValidationError, match="unknown checks"):
        observer_occ_reports(cell.g1, cell.g2, cell.ek, "occ")


def test_occ_holds_for_the_chosen_coordinator_alphabet(cell):
    occ_reports = [rep for name, rep in
                   observer_occ_reports(cell.g1, cell.g2, cell.ek)
                   if name.startswith("occ")]
    assert all(rep.holds for rep in occ_reports)


def test_occ_vacuous_without_uncontrollable_events():
    alpha = Alphabet({"a", "b"}, {"a", "b"})
    g = lang(alpha, "a.b", "b.a.b")
    assert is_occ(g, {"b"}).holds


@pytest.mark.parametrize("check", [
    pytest.param(lambda g: is_observer(g, {"b", "x"}), id="observer-target"),
    pytest.param(lambda g: is_occ(g, {"b", "x"}), id="occ-target"),
])
def test_checks_reject_events_outside_the_generator(check):
    g = lang(Alphabet({"a", "b"}, {"a", "b"}), "a.b")
    with pytest.raises(ValidationError, match=r"unknown events: \['x'\]"):
        check(g)


def test_occ_handles_hidden_cycles():
    alpha = Alphabet({"a", "h", "u"}, {"a", "h"})
    # Controllable hidden cycle before an uncontrollable target event.
    gens = {
        ("s0", "h"): "s1",
        ("s1", "h"): "s0",
        ("s1", "u"): "s2",
    }
    from descoord import make_generator
    g = make_generator(["s0", "s1", "s2"], alpha,
                       [(*key, dst) for key, dst in gens.items()], "s0")
    report = is_occ(g, {"a", "u"})
    assert not report.holds
    assert report.counterexample == w("h.u")


def test_checkers_agree_with_bounded_definition():
    rng = random.Random(22)
    for _ in range(60):
        names = ["a", "b", "u", "v"][: rng.randint(2, 4)]
        alpha = Alphabet(frozenset(names), random_controllable(rng, names))
        g = random_generator(rng, alpha, max_states=5)
        target = frozenset(e for e in names if rng.random() < 0.5)

        verdict = is_observer(g, target)
        literal, _ = bounded_observer_verdict(g, target, 6)
        if verdict.holds:
            assert literal
        elif len(verdict.counterexample) <= 6:
            assert not literal

        occ = is_occ(g, target)
        literal_occ, _ = bounded_occ_verdict(g, target,
                                             alpha.uncontrollable, 8)
        if occ.holds:
            assert literal_occ
        elif len(occ.counterexample) <= 8:
            assert not literal_occ


def test_occ_agrees_with_the_route_it_replaced():
    # The walk against the two-state monitor expands G's rows in the order
    # the dirty-bit search did, so verdicts and words must be identical.
    rng = random.Random(25)
    seen = collections.Counter()
    for _ in range(800):
        names = ["a", "b", "h", "u", "v"][: rng.randint(3, 5)]
        alpha = Alphabet(frozenset(names), random_controllable(rng, names))
        g = random_generator(rng, alpha, max_states=6, edge_prob=0.5)
        target = frozenset(rng.sample(names, rng.randint(1, len(names) - 1)))
        report = is_occ(g, target)
        assert report == reference_is_occ(g, target, alpha.uncontrollable)
        seen[report.holds] += 1
        if not report.holds:
            *prefix, _ = report.counterexample
            # The monitor went clean again on a target event, or stayed in
            # its state on an uncontrollable hidden one, before the end.
            seen["target before the end"] += any(
                event in target for event in prefix)
            seen["uncontrollable hidden event"] += any(
                event not in target and event in alpha.uncontrollable
                for event in prefix)
    assert seen[True] >= 400 and seen[False] >= 120, seen
    assert seen["target before the end"] >= 25, seen
    assert seen["uncontrollable hidden event"] >= 8, seen


def looping_generator(rng: random.Random):
    """A random generator and one to three target events, with a hidden
    self-loop and a hidden two-cycle planted among random edges."""
    names = ["a", "b", "h", "u"][: rng.randint(2, 4)]
    alpha = Alphabet(frozenset(names), random_controllable(rng, names))
    target = frozenset(rng.sample(names, rng.randint(1, len(names) - 1)))
    hidden = sorted(alpha.events - target)
    n = rng.randint(2, 6)
    table = {(f"s{q}", event): f"s{rng.randrange(n)}"
             for q in range(n) for event in names if rng.random() < 0.5}
    x, y = (f"s{q}" for q in rng.sample(range(n), 2))
    table[x, hidden[0]] = x
    table[x, hidden[-1]] = y
    table[y, rng.choice(hidden)] = x
    return make_generator([f"s{q}" for q in range(n)], alpha,
                          [(*key, dst) for key, dst in table.items()],
                          "s0"), target


def hidden_loops(g, target) -> set[str]:
    """Which of a hidden self-loop and a hidden two-cycle G has."""
    step = {(q, nxt) for q, row in enumerate(g.rows)
            for event, nxt in row.items() if event not in target}
    return ({"self-loop"} if any(q == nxt for q, nxt in step) else set()) \
        | ({"two-cycle"} if any(q != nxt and (nxt, q) in step
                                for q, nxt in step) else set())


def test_observer_closure_matches_the_per_state_searches():
    rng = random.Random(24)
    seen = collections.Counter()
    for _ in range(400):
        g, target = looping_generator(rng)
        seen.update(hidden_loops(g, target))
        report = is_observer(g, target)
        assert report == reference_is_observer(g, target)
        literal, _ = bounded_observer_verdict(g, target, 5)
        if report.holds:
            assert literal
            seen["holds"] += 1
            continue
        # The bounded definition sees the violation (s, e) when some word
        # of length <= 5 projects to P(s)·e.
        *s, e = report.counterexample
        projected = erase(tuple(s), target) + (e,)
        if any(erase(word, target) == projected
               for word in bounded_language(g, 5)):
            assert not literal
            seen["fails within the bound"] += 1
    assert min(seen[key] for key in ("self-loop", "two-cycle", "holds",
                                     "fails within the bound")) >= 60, seen


def observer_row_reads(n: int) -> int:
    """Row reads of ``is_observer`` on the hidden chain of n states, each
    row being a mapping that counts the calls made on it."""
    counted, reads = counted_rows(hidden_chain(n))
    assert is_observer(counted, {"e"}).holds
    return reads()


def test_observer_reads_each_row_a_bounded_number_of_times():
    reads = [observer_row_reads(n) for n in (500, 1000, 2000)]
    for smaller, larger in zip(reads, reads[1:]):
        assert 1.9 <= larger / smaller <= 2.1, reads


def chain_into_loops(n: int, m: int):
    """A chain of n states joined by the hidden event ``h``, whose last
    state self-loops on the m target events e0 .. e{m-1}; returns the
    generator and its target events."""
    target = [f"e{i}" for i in range(m)]
    alphabet = Alphabet({"h", *target}, {"h", *target})
    states = [f"c{i}" for i in range(n)]
    triples = [(states[i], "h", states[i + 1]) for i in range(n - 1)]
    triples += [(states[-1], event, states[-1]) for event in target]
    return make_generator(states, alphabet, triples, states[0]), target


def closure_step(monkeypatch, n: int, m: int):
    """``(backward calls, row reads)`` of ``is_observer``'s hidden-closure
    step on ``chain_into_loops(n, m)``: the reads made after the subset
    construction is set up and before the walk starts."""
    g, target = chain_into_loops(n, m)
    counted, reads = counted_rows(g)
    calls, marks = [], []

    class Marked(SubsetConstruction):
        def __init__(self, *args):
            super().__init__(*args)
            marks.append(reads())

    def counted_backward(*args):
        calls.append(args)
        return backward(*args)

    def walk(*args):
        marks.append(reads())
        return search(*args)

    monkeypatch.setattr(structural, "SubsetConstruction", Marked)
    monkeypatch.setattr(structural, "backward", counted_backward)
    monkeypatch.setattr(structural, "search", walk)
    assert is_observer(counted, target).holds
    built, walked = marks
    return len(calls), walked - built


def test_observer_closes_over_hidden_events_in_one_backward_call(
        monkeypatch):
    # Doubling the target events at a fixed G leaves the closure's row
    # reads unchanged: 4000 reads (one pass collecting the sources, one
    # building the predecessor lists) for 4 and for 8 target events.  The
    # route with one backward call per target event read 4000 rows per
    # target event here: 16 000 and 32 000.
    steps = [closure_step(monkeypatch, 2000, m) for m in (1, 4, 8)]
    assert [calls for calls, _ in steps] == [1, 1, 1]
    reads = [count for _, count in steps]
    assert reads[1] == reads[2] <= 2 * 2000 + 8, reads


def test_a_failing_observer_check_leaves_the_projection_unbuilt(monkeypatch):
    # After ``a`` the projection is in the subset {s1, s3}, which offers
    # ``b``; s1 cannot reach it, so the walk ends on a.b with the chain of
    # b steps after s3 never expanded.
    n = 50
    alphabet = Alphabet({"a", "b", "h"}, {"a", "b", "h"})
    chain = [f"c{i}" for i in range(n + 1)]
    triples = [("s0", "a", "s1"), ("s0", "h", "s2"), ("s2", "a", "s3"),
               ("s3", "b", chain[0])]
    triples += [(chain[i], "b", chain[i + 1]) for i in range(n)]
    g = make_generator(["s0", "s1", "s2", "s3", *chain], alphabet, triples,
                       "s0")
    constructions = []

    class Recorded(SubsetConstruction):
        def __init__(self, *args):
            super().__init__(*args)
            constructions.append(self)

    monkeypatch.setattr(structural, "SubsetConstruction", Recorded)
    report = is_observer(g, {"a", "b"})
    assert report.counterexample == w("a.b")
    (walked,) = constructions
    assert len(walked.members) == 3
    assert project(g, {"a", "b"}).num_states == n + 3


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
        if not is_observer(g1, e1.events & ek).holds:
            continue
        if not is_observer(g2, e2.events & ek).holds:
            continue
        product = sync_product(g1, g2)
        assert is_observer(product, ek).holds
        confirmed += 1
    assert confirmed >= 30


def test_occ_composition_lemma(cell):
    # The distributed-synthesis hypotheses imply OCC of the coordinator
    # projection for the whole plant.
    for name, report in observer_occ_reports(cell.g1, cell.g2, cell.ek):
        assert report.holds, name
    plant = sync_product(sync_product(cell.g1, cell.g2), cell.gk)
    assert is_occ(plant, cell.ek.events).holds
