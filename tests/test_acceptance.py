"""Acceptance suite: one test per criterion, each printing a PASS line when
it completes (pytest's own FAILED line reports the converse).

Randomized criteria use fixed seeds so every run exercises the same
instances; instance counts meet or exceed the stated minimums with zero
tolerated failures."""

import json
import random
import time

import pytest

from descoord import (
    Alphabet,
    CoordinationScheme,
    check_optimality_conditions,
    closed_loop,
    empty_generator,
    from_words,
    inverse_project,
    is_conditionally_controllable,
    is_controllable,
    is_observer,
    is_occ,
    language_equal,
    language_subset,
    observer_occ_reports,
    project,
    sup_c,
    sup_cc,
    sync_product,
    synthesize_supervisors,
    union_alphabets,
    universal_generator,
    widen_alphabet,
)
from descoord.cli import generator_to_text, main, parse_generator
from descoord.oracle import (
    bounded_language,
    brute_product,
    brute_sup_c,
    erase,
)

from helpers import (
    bounded_observer_verdict,
    bounded_occ_verdict,
    brute_project,
    collect_instances,
    distributed_instance,
    is_prefix_closed,
    language_union,
    random_controllable,
    random_generator,
    sub_automaton,
    word_in_projected_product,
)


@pytest.fixture
def announce(capsys):
    def _print(text):
        with capsys.disabled():
            print(text)
    return _print


def truncate(words, bound):
    return {word for word in words if len(word) <= bound}


# ---------------------------------------------------------------------------
# criterion 1: golden end-to-end synthesis through the CLI

def test_criterion_01_golden_end_to_end(tmp_path, cell, announce):
    for name, g in (("g1", cell.g1), ("g2", cell.g2), ("spec", cell.k)):
        (tmp_path / f"{name}.json").write_text(generator_to_text(g, name),
                                               encoding="utf-8")
    project_doc = {
        "generators": ["g1.json", "g2.json", "spec.json"],
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec", "ek": ["a1", "a2", "c", "u"]},
    }
    project_path = tmp_path / "project.json"
    project_path.write_text(json.dumps(project_doc), encoding="utf-8")
    out = tmp_path / "out"

    started = time.perf_counter()
    code = main(["synth", "supcc", "-p", str(project_path), "-o", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 1.0

    golden = {
        "sup_k": cell.over_ek("a2", "c", "a1.a2.u"),
        "sup_1k": from_words(cell.scheme.e1k, ["a1.a2.u", "a2", "c.u1"]),
        "sup_2k": from_words(cell.scheme.e2k, ["a1.a2.u", "a2", "c.u2"]),
        "composed": cell.over_full("a1.a2.u", "a2", "c.u1.u2", "c.u2.u1"),
    }
    for stem, expected in golden.items():
        doc = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
        _, parsed = parse_generator(doc)
        assert language_equal(parsed, expected).holds, stem
    announce(f"[acceptance 1] PASS golden end-to-end synthesis "
             f"({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 2: optimality on the golden instance

def test_criterion_02_optimality(cell, announce):
    started = time.perf_counter()
    assert check_optimality_conditions(cell.g1, cell.g2, cell.gk).holds
    composed = sup_cc(cell.k, cell.g1, cell.g2, cell.gk).composed
    best = sup_c(cell.k, sync_product(cell.g1, cell.g2))
    assert language_equal(composed, best).holds
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(f"[acceptance 2] PASS distributed result equals the global "
             f"supremal synthesis ({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 3: failing-precondition narrative

def test_criterion_03_precondition_narrative(tmp_path, cell, announce):
    started = time.perf_counter()
    for name, g in (("g1", cell.g1), ("g2", cell.g2), ("spec", cell.k)):
        (tmp_path / f"{name}.json").write_text(generator_to_text(g, name),
                                               encoding="utf-8")
    project_doc = {
        "generators": ["g1.json", "g2.json", "spec.json"],
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec", "ek": ["c", "u"]},
    }
    project_path = tmp_path / "project.json"
    project_path.write_text(json.dumps(project_doc), encoding="utf-8")
    assert main(["check", "conddec", "-p", str(project_path)]) == 1

    # Omitting either private start event breaks output control consistency
    # with a witness ending in an uncontrollable coordinator event.
    for missing in ("a1", "a2"):
        kept = {"a1", "a2", "c", "u"} - {missing}
        scheme = CoordinationScheme(cell.e1, cell.e2,
                                    cell.full.restrict(kept))
        occ_failures = [rep for name, rep in
                        observer_occ_reports(cell.g1, cell.g2, scheme.ek)
                        if name.startswith("occ") and not rep.holds]
        assert occ_failures
        for report in occ_failures:
            last = report.counterexample[-1]
            assert last in scheme.ek.events
            assert last in scheme.full.uncontrollable
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(f"[acceptance 3] PASS precondition narrative "
             f"({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 4: the composed result is controllable and below global supC

def test_criterion_04_composition_controllable(announce):
    instances = collect_instances(4001, 200, distributed_instance)
    for k, g1, g2, gk, _ in instances:
        result = sup_cc(k, g1, g2, gk)
        plant = sync_product(sync_product(g1, g2), gk)
        assert is_controllable(result.composed, plant).holds
        best = sup_c(k, plant)
        assert language_subset(result.composed, best).holds
    announce("[acceptance 4] PASS composed result controllable and within "
             "global supC on 200 instances")


# ---------------------------------------------------------------------------
# criterion 5: achievability is equivalent to conditional controllability

def test_criterion_05_equivalence_both_directions(announce):
    instances = collect_instances(
        5001, 100,
        lambda rng: distributed_instance(rng, coordinator="default"),
    )
    for k0, g1, g2, gk, scheme in instances:
        target = sup_cc(k0, g1, g2, gk).composed

        # (b) the synthesized language is conditionally controllable
        assert is_conditionally_controllable(target, g1, g2, gk).holds

        # (a) supervisors achieve it exactly through the coordinated loops
        s_k, s_1, s_2 = synthesize_supervisors(target, g1, g2, gk)
        loop_k = closed_loop(s_k, gk)
        loop_1 = sync_product(s_1, sync_product(g1, loop_k))
        loop_2 = sync_product(s_2, sync_product(g2, loop_k))
        total = sync_product(sync_product(loop_1, loop_2), loop_k)
        assert language_equal(total, target).holds
    announce("[acceptance 5] PASS closed-loop equality and conditional "
             "controllability on 100 instances each way")


# ---------------------------------------------------------------------------
# criterion 6: projection/controllability lemma suite vs bounded oracle

def _two_subsystems(rng, ek_equals_shared=False):
    shared = ["s1", "s2"][: rng.randint(1, 2)]
    p1 = ["m1", "m2"][: rng.randint(1, 2)]
    p2 = ["n1", "n2"][: rng.randint(1, 2)]
    pool = shared + p1 + p2
    full = Alphabet(frozenset(pool), random_controllable(rng, pool))
    e1 = full.restrict(shared + p1)
    e2 = full.restrict(shared + p2)
    ek = set(shared)
    if not ek_equals_shared:
        for event in p1 + p2:
            if rng.random() < 0.4:
                ek.add(event)
    g1 = random_generator(rng, e1)
    g2 = random_generator(rng, e2)
    return full, e1, e2, frozenset(ek), g1, g2


def _grow_inverse(words, base_events, lift_events, bound):
    """Bounded inverse image on word sets: all words over ``lift_events``
    whose projection onto ``base_events`` lies in ``words``."""
    out = set()
    frontier = [()] if () in words else []
    alphabet = sorted(lift_events)
    for _ in range(bound + 1):
        grown = []
        for word in frontier:
            out.add(word)
            if len(word) == bound:
                continue
            for event in alphabet:
                extended = word + (event,)
                if erase(extended, base_events) in words:
                    grown.append(extended)
        frontier = grown
    return out


def test_criterion_06a_projection_distributes(announce):
    rng = random.Random(6001)
    for _ in range(100):
        full, e1, e2, ek, g1, g2 = _two_subsystems(rng)
        lhs = project(sync_product(g1, g2), ek)
        rhs = sync_product(
            project(g1, e1.events & ek),
            project(g2, e2.events & ek),
        )
        assert language_equal(lhs, rhs).holds
        # oracle words are genuine members; production words are confirmed
        # by an independent interleaving search
        ws1 = bounded_language(g1, 8)
        ws2 = bounded_language(g2, 8)
        oracle = brute_project(
            brute_product(ws1, e1.events, ws2, e2.events, 8), ek)
        produced = bounded_language(lhs, 8)
        assert truncate(oracle, 8) <= produced
        for word in truncate(produced, 6):
            assert word_in_projected_product(word, [g1, g2], ek)
    announce("[acceptance 6a] PASS projection distributes over the product "
             "(100 instances)")


def test_criterion_06b_local_projection_identity(announce):
    rng = random.Random(6002)
    for _ in range(100):
        full, e1, e2, ek, g1, g2 = _two_subsystems(rng, ek_equals_shared=True)
        product = sync_product(g1, g2)
        lhs = project(product, e1.events)
        pj = project(g2, ek)
        rhs = sync_product(g1, inverse_project(pj, e1))
        assert language_equal(lhs, rhs).holds
        ws2 = bounded_language(g2, 8)
        pj_w = brute_project(ws2, ek)
        ws1 = bounded_language(g1, 8)
        # every bounded-oracle member is genuine (its witnesses are short)
        oracle_rhs = {word for word in ws1 if erase(word, ek) in pj_w}
        produced = bounded_language(lhs, 8)
        assert oracle_rhs <= produced
        for word in truncate(produced, 6):
            assert word_in_projected_product(word, [g1, g2], e1.events)
    announce("[acceptance 6b] PASS local projection identity at "
             "E_k = E_1 ∩ E_2 (100 instances)")


def test_criterion_06c_own_projection_restriction(announce):
    rng = random.Random(6003)
    alpha = Alphabet({"a", "b", "u", "v"}, {"a", "b"})
    for _ in range(100):
        g = random_generator(rng, alpha)
        keep = frozenset(e for e in alpha.events if rng.random() < 0.5)
        restricted = sync_product(g, project(g, keep))
        assert language_equal(restricted, g).holds
        lw = bounded_language(g, 8)
        pk_w = brute_project(lw, keep)
        assert brute_product(lw, alpha.events, pk_w, keep, 8) == lw
    announce("[acceptance 6c] PASS composing a language with its own "
             "projection changes nothing (100 instances)")


def test_criterion_06d_extended_controllability(announce):
    rng = random.Random(6004)
    alpha = Alphabet({"a", "u", "v"}, {"a"})
    eu = ("u", "v")
    for _ in range(100):
        plant = random_generator(rng, alpha)
        k = sub_automaton(rng, plant)
        kw = bounded_language(k, 8)
        lw = bounded_language(plant, 8)
        single = all(word + (e,) in kw
                     for word in kw for e in eu if word + (e,) in lw)
        starred = True
        for word in sorted(kw, key=len, reverse=True):
            for e in eu:
                ext = word + (e,)
                if ext in lw and ext not in kw:
                    starred = False
        # the starred form closes under chains of uncontrollable events
        if starred:
            frontier = set(kw)
            for word in sorted(frontier, key=len):
                for e in eu:
                    ext = word + (e,)
                    if len(ext) <= 8 and ext in lw:
                        assert ext in kw
        assert single == starred
        verdict = is_controllable(k, plant)
        if verdict.holds:
            assert single
        elif len(verdict.counterexample) <= 8:
            assert not single
    announce("[acceptance 6d] PASS extended (starred) controllability "
             "equivalence (100 instances)")


def test_criterion_06e_transitivity(announce):
    rng = random.Random(6005)
    alpha = Alphabet({"a", "b", "u"}, {"a", "b"})
    for _ in range(100):
        m = random_generator(rng, alpha)
        mid = sup_c(sub_automaton(rng, m), m)
        inner = mid if mid.recognizes_empty_language else sub_automaton(rng,
                                                                        mid)
        low = sup_c(inner, mid)
        assert is_controllable(low, m).holds
        kw = bounded_language(low, 8)
        mw = bounded_language(m, 8)
        assert all(word + ("u",) in kw
                   for word in kw if word + ("u",) in mw)
    announce("[acceptance 6e] PASS controllability is transitive "
             "(100 instances)")


def test_criterion_06f_inverse_image_composition(announce):
    rng = random.Random(6006)
    for _ in range(100):
        full, e1, e2, ek, g1, g2 = _two_subsystems(rng)
        e1k = union_alphabets(e1, full.restrict(ek))
        e2k = union_alphabets(e2, full.restrict(ek))
        lhs = sync_product(
            project(inverse_project(g1, e1k), ek),
            project(inverse_project(g2, e2k), ek),
        )
        rhs = project(sync_product(g1, g2), ek)
        assert language_equal(lhs, rhs).holds
        ws1 = bounded_language(g1, 8)
        ws2 = bounded_language(g2, 8)
        o1 = brute_project(_grow_inverse(ws1, e1.events, e1k.events, 8), ek)
        o2 = brute_project(_grow_inverse(ws2, e2.events, e2k.events, 8), ek)
        produced = bounded_language(rhs, 8)
        # both the bounded-oracle intersection and the production result are
        # confirmed by an independent interleaving search
        for word in truncate(o1 & o2, 6):
            assert word_in_projected_product(word, [g1, g2], ek)
        for word in truncate(produced, 6):
            assert word_in_projected_product(word, [g1, g2], ek)
    announce("[acceptance 6f] PASS coordinator view via composed inverse "
             "images (100 instances)")


def test_criterion_06g_subset_from_projections(announce):
    rng = random.Random(6007)
    for _ in range(100):
        full, e1, e2, _, g1, g2 = _two_subsystems(rng)
        a = sync_product(sub_automaton(rng, g1), sub_automaton(rng, g2))
        ws1 = bounded_language(g1, 8)
        ws2 = bounded_language(g2, 8)
        for word in bounded_language(a, 8):
            assert erase(word, e1.events) in ws1
            assert erase(word, e2.events) in ws2
        assert language_subset(
            widen_alphabet(a, full),
            widen_alphabet(sync_product(g1, g2), full)).holds
    announce("[acceptance 6g] PASS projection containment implies product "
             "containment (100 instances)")


def test_criterion_06h_prefix_closure_of_inverse_images(announce):
    rng = random.Random(6008)
    events_small = ("a", "b")
    events_big = ("a", "b", "x", "y")
    for _ in range(100):
        # word-set level: the inverse image is prefix-closed iff the
        # original set is
        pool = set()
        for _ in range(rng.randint(0, 6)):
            pool.add(tuple(rng.choice(events_small)
                           for _ in range(rng.randint(0, 3))))
        inverse = {
            word
            for length in range(6)
            for word in _enumerate_words(events_big, length)
            if erase(word, events_small) in pool
        }
        assert is_prefix_closed(pool) == is_prefix_closed(inverse)

        # generator level: inverse projection preserves prefix closure
        alpha_small = Alphabet(frozenset(events_small), {"a"})
        alpha_big = Alphabet(frozenset(events_big), {"a", "x", "y"})
        g = random_generator(rng, alpha_small)
        lifted = inverse_project(g, alpha_big)
        assert is_prefix_closed(bounded_language(lifted, 5))
    announce("[acceptance 6h] PASS prefix closure transfers through "
             "inverse images (100 instances)")


def _enumerate_words(events, length):
    if length == 0:
        yield ()
        return
    for prefix in _enumerate_words(events, length - 1):
        for event in events:
            yield prefix + (event,)


# ---------------------------------------------------------------------------
# criterion 7: supC against the brute-force oracle

def test_criterion_07_sup_c_oracle(announce):
    rng = random.Random(7001)
    exact = 0
    for _ in range(200):
        names = ["a", "b", "u", "v"][: rng.randint(2, 4)]
        alpha = Alphabet(frozenset(names), random_controllable(rng, names))
        k = random_generator(rng, alpha, max_states=5)
        plant = random_generator(rng, alpha, max_states=5)
        eu = alpha.uncontrollable
        result = sup_c(k, plant)
        expected = brute_sup_c(bounded_language(k, 8),
                               bounded_language(plant, 8), eu, 8)
        assert bounded_language(result, 6) == truncate(expected, 6)
        # The two-sided check at bound 6, with no truncation: the fixpoint
        # on L's words up to 7 is controllable, so it lies inside supC.
        kw = bounded_language(k, 6)
        lw = bounded_language(plant, 7)
        low = brute_sup_c(kw, lw, eu, 6)
        high = brute_sup_c(kw, truncate(lw, 6), eu, 6)
        assert low <= bounded_language(result, 6) <= high
        exact += low == high
    assert exact >= 100, exact
    announce("[acceptance 7] PASS supC equals the bounded oracle on 200 "
             "instances (bound 8, compared at 6) and lies between its "
             f"two-sided bounds at 6 (equal on {exact})")


# ---------------------------------------------------------------------------
# criterion 8: observer/OCC checkers vs definition-literal evaluation

def test_criterion_08_observer_occ_literal(announce):
    rng = random.Random(8001)
    long_witness_skips = 0
    for _ in range(200):
        names = ["a", "b", "u", "v"][: rng.randint(2, 4)]
        alpha = Alphabet(frozenset(names), random_controllable(rng, names))
        g = random_generator(rng, alpha, max_states=5, edge_prob=0.45)
        target = frozenset(e for e in names if rng.random() < 0.5)

        verdict = is_observer(g, target)
        literal, _ = bounded_observer_verdict(g, target, 8)
        if verdict.holds:
            assert literal
        elif len(verdict.counterexample) <= 8:
            assert not literal
        else:
            long_witness_skips += 1

        occ = is_occ(g, target)
        literal_occ, _ = bounded_occ_verdict(g, target,
                                             alpha.uncontrollable, 8)
        if occ.holds:
            assert literal_occ
        elif len(occ.counterexample) <= 8:
            assert not literal_occ
        else:
            long_witness_skips += 1
    assert long_witness_skips == 0
    announce("[acceptance 8] PASS observer/OCC agree with the "
             "definition-literal evaluation on 200 instances (bound 8)")


# ---------------------------------------------------------------------------
# criterion 9: unions of conditionally controllable languages

def test_criterion_09_union_closure(announce):
    instances = collect_instances(
        9001, 50,
        lambda rng: distributed_instance(rng, coordinator="default"),
    )
    rng = random.Random(9002)
    checked = 0
    for k, g1, g2, gk, scheme in instances:
        first = sup_cc(k, g1, g2, gk).composed
        second = sup_cc(
            sync_product(
                sync_product(random_generator(rng, scheme.e1k, 3),
                             random_generator(rng, scheme.e2k, 3)),
                random_generator(rng, scheme.ek, 3)),
            g1, g2, gk).composed
        assert is_conditionally_controllable(first, g1, g2, gk).holds
        assert is_conditionally_controllable(second, g1, g2, gk).holds
        union = language_union(first, second)
        assert is_conditionally_controllable(union, g1, g2, gk).holds
        checked += 1
    assert checked == 50
    announce("[acceptance 9] PASS union of conditionally controllable "
             "languages stays conditionally controllable (50 instances)")


# ---------------------------------------------------------------------------
# criterion 10: serialization round-trip and determinism

def test_criterion_10_round_trip_determinism(cell, announce):
    corpus = [cell.g1, cell.g2, cell.k, cell.gk,
              empty_generator(cell.full), universal_generator(cell.ek)]
    result = sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    corpus += [result.sup_k, result.sup_1k, result.sup_2k, result.composed]
    rng = random.Random(1001)
    for _ in range(50):
        names = ["a", "b", "u", "v"][: rng.randint(1, 4)]
        alpha = Alphabet(frozenset(names), random_controllable(rng, names))
        corpus.append(random_generator(rng, alpha, max_states=5))

    for g in corpus:
        text = generator_to_text(g, "round")
        _, parsed = parse_generator(json.loads(text))
        assert language_equal(parsed, g).holds
        assert parsed.recognizes_empty_language == g.recognizes_empty_language
        assert generator_to_text(parsed, "round") == text

    # determinism across independent recomputations
    again = sup_cc(cell.k, cell.g1, cell.g2, cell.gk)
    for before, after in ((result.sup_k, again.sup_k),
                          (result.sup_1k, again.sup_1k),
                          (result.sup_2k, again.sup_2k),
                          (result.composed, again.composed)):
        assert generator_to_text(before, "x") == generator_to_text(after, "x")
    announce(f"[acceptance 10] PASS round-trip and byte determinism on "
             f"{len(corpus)} generators")
