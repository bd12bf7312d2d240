"""Shared builders for the test suite: deterministic random instances and
definition-literal bounded evaluators used as independent oracles."""

import random
from collections import deque

from hypothesis import strategies as st

from descoord import (
    Alphabet,
    AlphabetMismatchError,
    ConditionalControllabilityReport,
    CoordinationScheme,
    Generator,
    PreconditionError,
    PropertyReport,
    default_coordinator,
    empty_generator,
    from_words,
    inverse_project,
    is_controllable,
    language_subset,
    make_generator,
    observer_occ_reports,
    parse_word,
    project,
    sup_c,
    sync_product,
    union_alphabets,
)
from descoord.automata import search
from descoord.oracle import bounded_language, erase

w = parse_word


def brute_project(words, target_events) -> frozenset:
    """Image of a word set under the natural projection, word by word."""
    return frozenset(erase(word, frozenset(target_events)) for word in words)


def lang(alphabet, *words):
    """Generator of the prefix closure of dotted word literals."""
    return from_words(alphabet, words)


def is_prefix_closed(words) -> bool:
    words = set(words)
    return all(word[:cut] in words for word in words
               for cut in range(len(word)))


# ---------------------------------------------------------------------------
# seeded random instances

def random_controllable(rng: random.Random, events) -> frozenset:
    return frozenset(e for e in sorted(events) if rng.random() < 0.5)


def random_generator(rng: random.Random, alphabet: Alphabet,
                     max_states: int = 4, edge_prob: float = 0.4) -> Generator:
    n = rng.randint(1, max_states)
    triples = []
    for q in range(n):
        for event in sorted(alphabet.events):
            if rng.random() < edge_prob:
                triples.append((f"s{q}", event, f"s{rng.randrange(n)}"))
    return make_generator([f"s{i}" for i in range(n)], alphabet, triples,
                          "s0")


def sub_automaton(rng: random.Random, g: Generator,
                  keep: float = 0.7) -> Generator:
    """A random subautomaton of g: L(sub) ⊆ L(g), prefix-closed."""
    triples = [
        (f"s{src}", event, f"s{dst}")
        for src, row in enumerate(g.rows) for event, dst in row.items()
        if rng.random() < keep
    ]
    return make_generator([f"s{i}" for i in range(g.num_states)],
                          g.alphabet, triples, "s0")


def random_scheme(rng: random.Random,
                  ek_beyond_union: bool = False) -> CoordinationScheme:
    """Random coordination alphabets with E_1 ∩ E_2 ⊆ E_k and at most six
    events in total."""
    shared = ["k1", "k2"][: rng.randint(1, 2)]
    private1 = ["a1", "a2"][: rng.randint(1, 2)]
    private2 = ["b1", "b2"][: rng.randint(1, 2)]
    ek_events = set(shared)
    for event in private1 + private2:
        if rng.random() < 0.3:
            ek_events.add(event)
    extra = []
    if ek_beyond_union and rng.random() < 0.5:
        extra = ["x1"]
        ek_events.add("x1")
    pool = shared + private1 + private2 + extra
    controllable = random_controllable(rng, pool)
    full = Alphabet(frozenset(pool), controllable)
    return CoordinationScheme(
        full.restrict(shared + private1),
        full.restrict(shared + private2),
        full.restrict(ek_events),
    )


def decomposable_spec(rng: random.Random, scheme: CoordinationScheme,
                      max_states: int = 3) -> Generator:
    """A conditionally decomposable specification by construction: the
    product of random components over E_{1+k}, E_{2+k} and E_k."""
    m1 = random_generator(rng, scheme.e1k, max_states)
    m2 = random_generator(rng, scheme.e2k, max_states)
    mk = random_generator(rng, scheme.ek, max_states)
    return sync_product(sync_product(m1, m2), mk)


def contained_decomposable_spec(rng: random.Random,
                                scheme: CoordinationScheme,
                                g1, g2, gk,
                                max_states: int = 3) -> Generator:
    """Decomposable and contained in L(G1 ∥ G2 ∥ Gk): each component is
    intersected with the matching plant part before composing."""
    m1 = sync_product(random_generator(rng, scheme.e1k, max_states), g1)
    m2 = sync_product(random_generator(rng, scheme.e2k, max_states), g2)
    mk = sync_product(random_generator(rng, scheme.ek, max_states), gk)
    return sync_product(sync_product(m1, m2), mk)


def distributed_instance(rng: random.Random, require_preconditions=True,
                         coordinator="mixed", contained=False):
    """One random coordination instance (k, g1, g2, gk, scheme), or None
    when the observer/OCC preconditions fail and are required."""
    scheme = random_scheme(rng)
    g1 = random_generator(rng, scheme.e1)
    g2 = random_generator(rng, scheme.e2)
    if coordinator == "default" or (coordinator == "mixed"
                                    and rng.random() < 0.5):
        gk = default_coordinator(g1, g2, scheme.ek)
    else:
        gk = random_generator(rng, scheme.ek)
    if require_preconditions:
        if not all(rep.holds
                   for _, rep in observer_occ_reports(g1, g2, scheme.ek)):
            return None
    if contained:
        k = contained_decomposable_spec(rng, scheme, g1, g2, gk)
    else:
        k = decomposable_spec(rng, scheme)
    return k, g1, g2, gk, scheme


def mixed_instance(rng: random.Random):
    """One random instance (k, g1, g2, gk, scheme) whose K is, in turn,
    decomposable, decomposable and within the plant, a random generator
    over E (rarely decomposable), a random subautomaton of a decomposable
    K, or the empty language."""
    scheme = random_scheme(rng, ek_beyond_union=True)
    g1 = random_generator(rng, scheme.e1)
    g2 = random_generator(rng, scheme.e2)
    if rng.random() < 0.5:
        gk = default_coordinator(g1, g2, scheme.ek)
    else:
        gk = random_generator(rng, scheme.ek)
    kind = rng.randrange(10)
    if kind < 2:
        k = decomposable_spec(rng, scheme)
    elif kind < 4:
        k = contained_decomposable_spec(rng, scheme, g1, g2, gk)
    elif kind < 8:
        k = random_generator(rng, scheme.full, max_states=6, edge_prob=0.5)
    elif kind < 9:
        k = sub_automaton(rng, decomposable_spec(rng, scheme))
    else:
        k = empty_generator(scheme.full)
    return k, g1, g2, gk, scheme


def reference_decomposable(k: Generator, scheme: CoordinationScheme):
    """Conditional decomposability by the route the lazy walk replaced:
    build P_{1+k}(K) ∥ P_{2+k}(K) ∥ P_k(K) as generators, then test the
    inclusion of the product in K.  Returns (holds, counterexample)."""
    p1k, p2k, pk = (project(k, target.events)
                    for target in (scheme.e1k, scheme.e2k, scheme.ek))
    report = language_subset(sync_product(sync_product(p1k, p2k), pk), k)
    return report.holds, report.counterexample


def buffered_line(p1: int, p2: int, n: int):
    """(K∩L, G1, G2) of the buffered line: machine G_i runs
    idle -a_i-> w0 -t_i-> ... -t_i-> w_{p_i} -b_i-> idle, and K, a buffer of
    capacity n that ``b1`` fills and ``a2`` empties, is composed with both
    machines.  Only a1 and a2 are controllable."""
    full = Alphabet({"a1", "a2", "b1", "b2", "t1", "t2"}, {"a1", "a2"})

    def machine(i, depth):
        work = [f"w{j}" for j in range(depth + 1)]
        triples = [("idle", f"a{i}", "w0"), (work[-1], f"b{i}", "idle")]
        triples += [(work[j], f"t{i}", work[j + 1]) for j in range(depth)]
        return make_generator(["idle", *work],
                              full.restrict({f"a{i}", f"b{i}", f"t{i}"}),
                              triples, "idle")

    cells = [f"k{j}" for j in range(n + 1)]
    triples = [(cell, event, cell) for cell in cells
               for event in ("a1", "b2", "t1", "t2")]
    triples += [(cells[j], "b1", cells[j + 1]) for j in range(n)]
    triples += [(cells[j + 1], "a2", cells[j]) for j in range(n)]
    buffer = make_generator(cells, full, triples, "k0")
    g1, g2 = machine(1, p1), machine(2, p2)
    return sync_product(sync_product(buffer, g1), g2), g1, g2


def collect_instances(seed: int, count: int, make, max_attempts: int = 40):
    """Draw ``count`` non-None instances from ``make(rng)``; fails loudly if
    the discard rate explodes."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    limit = count * max_attempts
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise AssertionError(
                f"instance generation stalled: {len(out)}/{count} after "
                f"{attempts} attempts"
            )
        instance = make(rng)
        if instance is not None:
            out.append(instance)
    return out


def word_in_projected_product(word, components, target_events) -> bool:
    """Exact membership of ``word`` in P(L(c_1) ∥ ... ∥ L(c_n)) with P
    keeping ``target_events``.  Walks the component transition functions
    over all interleavings directly (shared events move together, others
    independently), so it is independent of the production sync/project
    constructions.  All languages are prefix-closed, so matching every
    letter of ``word`` suffices."""
    target = frozenset(target_events)
    events = sorted(set().union(*(c.alphabet.events for c in components)))
    if any(c.recognizes_empty_language for c in components):
        return False
    start = (0,) * len(components) + (0,)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        states, matched = node[:-1], node[-1]
        if matched == len(word):
            return True
        for event in events:
            nxt = []
            blocked = False
            for c, q in zip(components, states):
                if event in c.alphabet.events:
                    t = c.step(q, event)
                    if t is None:
                        blocked = True
                        break
                    nxt.append(t)
                else:
                    nxt.append(q)
            if blocked:
                continue
            if event in target:
                if matched < len(word) and word[matched] == event:
                    grown = tuple(nxt) + (matched + 1,)
                else:
                    continue
            else:
                grown = tuple(nxt) + (matched,)
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)
    return False


# ---------------------------------------------------------------------------
# replaced routes, kept as references for differential tests

def reference_parse(states, triples, initial):
    """``(labels, rows)`` of ``make_generator(states, alphabet, triples,
    initial)`` by the route parsing used to take: integer rows indexed by
    position in ``states``, renumbered by a breadth-first search from
    ``initial`` with events in sorted order, unreachable states dropped.
    The input is assumed valid."""
    index = {name: i for i, name in enumerate(states)}
    rows = [{} for _ in states]
    for src, event, dst in triples:
        rows[index[src]][event] = index[dst]
    order = [index[initial]]
    renamed = {order[0]: 0}
    canonical = []
    for old in order:
        row = {}
        for event, target in sorted(rows[old].items()):
            if target not in renamed:
                renamed[target] = len(order)
                order.append(target)
            row[event] = renamed[target]
        canonical.append(row)
    return tuple(states[old] for old in order), tuple(canonical)


def reference_is_observer(g: Generator, events):
    """``is_observer`` by the route it used to take: the target events
    enabled in each state's hidden closure come from one breadth-first
    search per state, which is quadratic on a long hidden chain."""
    target = g.alphabet.restrict(events).events
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")
    hidden = g.alphabet.events - target
    det = project(g, target)

    matchable: list[frozenset[str]] = []
    for state in g.states:
        seen = {state}
        queue = deque([state])
        enabled = set()
        while queue:
            for event, nxt in g.rows[queue.popleft()].items():
                if event in target:
                    enabled.add(event)
                elif nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        matchable.append(frozenset(enabled))

    def successors(pair):
        q, x = pair
        row, det_row = g.rows[q], det.rows[x]
        for event in g.alphabet.sorted_events:
            if event in hidden:
                nxt = row.get(event)
                if nxt is not None:
                    yield event, (nxt, x)
            elif (dx := det_row.get(event)) is not None:
                if event not in matchable[q]:
                    yield event, None
                elif (nq := row.get(event)) is not None:
                    yield event, (nq, dx)

    word = search((0, 0), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word,
            "projected continuation is not realizable after this word")
    return PropertyReport(True, detail="observer property holds")


def reference_is_occ(g: Generator, events, eu):
    """``is_occ`` by the route it used to take: a search over (state, dirty
    bit) with its own successor function, in place of the walk against a
    two-state monitor."""
    target = g.alphabet.restrict(events).events
    eu = g.alphabet.restrict(eu).events
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")
    kinds = {event: (event in target, event in eu)
             for event in g.alphabet.events}

    def successors(node):
        q, dirty = node
        out = []
        for event, nxt in g.rows[q].items():
            projected, uncontrollable = kinds[event]
            if not projected:
                out.append((event, (nxt, dirty or not uncontrollable)))
            elif dirty and uncontrollable:
                out.append((event, None))
                break
            else:
                out.append((event, (nxt, False)))
        return out

    word = search((0, False), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word,
            "controllable hidden event precedes an uncontrollable projected "
            "event")
    return PropertyReport(True, detail="output control consistency holds")


def reference_sup_c_deletions(k: Generator, l: Generator, eu):
    """``(pairs, rows, deleted)`` of ``sup_c`` by the route it used to
    take: the product of K and L searched on its own, then one pass over
    every product node for the violations (L enables an uncontrollable
    event that K does not), then deletion backwards along uncontrollable
    edges.  K and L are assumed non-empty, over one alphabet."""
    def product(pair):
        qk, ql = pair
        row_l = l.rows[ql]
        for event, tk in k.rows[qk].items():
            tl = row_l.get(event)
            if tl is not None:
                yield event, (tk, tl)

    pairs, rows, *_ = search((0, 0), product)
    predecessors: dict[int, list[int]] = {}
    for node, row in enumerate(rows):
        for event, target in row.items():
            if event in eu:
                predecessors.setdefault(target, []).append(node)
    deleted = {
        node for node, (_, ql) in enumerate(pairs)
        if any(event in eu and event not in rows[node] for event in l.rows[ql])
    }
    worklist = list(deleted)
    while worklist:
        for node in predecessors.get(worklist.pop(), ()):
            if node not in deleted:
                deleted.add(node)
                worklist.append(node)
    return pairs, rows, deleted


def reference_sup_c(k: Generator, l: Generator, eu) -> Generator:
    """``sup_c(k, l)``, with E_u given as ``eu``, by the route it used to
    take: the deletions of ``reference_sup_c_deletions``, then a second
    search over the surviving states, which numbers them in their own
    discovery order, whether or not anything was deleted.  ``eu`` is assumed valid."""
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return empty_generator(k.alphabet)
    pairs, rows, deleted = reference_sup_c_deletions(k, l, eu)
    if 0 in deleted:
        return empty_generator(k.alphabet)

    def surviving(node):
        for event, target in rows[node].items():
            if target not in deleted:
                yield event, target

    nodes, survivors, *_ = search(0, surviving)
    return Generator(k.alphabet, tuple(pairs[node] for node in nodes),
                     survivors)


def reference_sync_product(g1: Generator, g2: Generator) -> Generator:
    """``sync_product`` by the route it used to take: one search over the
    state pairs, stepping through the union alphabet's sorted events with
    a move table that says which operand takes each event (an operand
    without the event stays put)."""
    merged = union_alphabets(g1.alphabet, g2.alphabet)
    if g1.recognizes_empty_language or g2.recognizes_empty_language:
        return empty_generator(merged)
    moves = [(event, event in g1.alphabet.events, event in g2.alphabet.events)
             for event in merged.sorted_events]

    def successors(pair):
        q1, q2 = pair
        row1, row2 = g1.rows[q1], g2.rows[q2]
        for event, in1, in2 in moves:
            if in1 and event not in row1 or in2 and event not in row2:
                continue
            yield event, (row1[event] if in1 else q1,
                          row2[event] if in2 else q2)

    nodes, rows, *_ = search((0, 0), successors)
    return Generator(merged, tuple(nodes), rows)


def language_union(g1: Generator, g2: Generator) -> Generator:
    """Generator of L(G1) ∪ L(G2) (same alphabet required).  Built on the
    product of the completed automata; a product state survives while either
    component is alive."""
    if g1.alphabet != g2.alphabet:
        raise AlphabetMismatchError("language_union requires generators "
                                    "over the same alphabet")
    if g1.recognizes_empty_language:
        return g2
    if g2.recognizes_empty_language:
        return g1
    alphabet = g1.alphabet
    DEAD = -1
    rows1, rows2 = g1.rows, g2.rows
    events = alphabet.sorted_events

    def successors(pair):
        q1, q2 = pair
        row1 = rows1[q1] if q1 != DEAD else {}
        row2 = rows2[q2] if q2 != DEAD else {}
        out = []
        for event in events:
            if event in row1:
                out.append((event, (row1[event],
                                    row2[event] if event in row2 else DEAD)))
            elif event in row2:
                out.append((event, (DEAD, row2[event])))
        return out

    nodes, rows, *_ = search((0, 0), successors)
    return Generator(alphabet, tuple(nodes), rows)


def reference_is_admissible(s: Generator, g: Generator) -> PropertyReport:
    """``is_admissible`` by the route it used to take: the pair search of
    ``reference_sync_product``, ended where G takes one of its
    uncontrollable events and S, which has the event, does not."""
    merged = union_alphabets(s.alphabet, g.alphabet)
    if s.recognizes_empty_language or g.recognizes_empty_language:
        return PropertyReport(True, detail="closed loop is empty")
    eu = g.alphabet.uncontrollable
    moves = [(event, event in s.alphabet.events, event in g.alphabet.events)
             for event in merged.sorted_events]

    def successors(pair):
        qs, qg = pair
        row_s, row_g = s.rows[qs], g.rows[qg]
        for event, in_s, in_g in moves:
            if in_g and event not in row_g:
                continue
            if in_s and event not in row_s:
                if event in eu:
                    yield event, None
                continue
            yield event, (row_s[event] if in_s else qs,
                          row_g[event] if in_g else qg)

    word = search((0, 0), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word, "supervisor disables an uncontrollable plant event")
    return PropertyReport(True, detail="supervisor is admissible")


def reference_language_subset(g1: Generator, g2: Generator):
    """``language_subset(g1, g2)`` by the route it used to take, as
    (holds, counterexample): a search over pairs (q1, q2) along G1's rows
    that ends on the first event G2 does not take.  The generators are
    assumed non-empty, over one alphabet."""
    def successors(pair):
        q1, q2 = pair
        row2 = g2.rows[q2]
        for event, t1 in g1.rows[q1].items():
            yield event, (t1, row2[event]) if event in row2 else None

    word = search((0, 0), successors)[2]
    return word is None, word


def reference_is_controllable(k: Generator, l: Generator, eu):
    """``is_controllable(k, l)``, with E_u given as ``eu``, by the route it
    used to take, as (holds, counterexample): a search over pairs
    (q_K, q_L) along L's rows that ends on the first event of ``eu`` that
    L takes and K does not.
    The generators are assumed non-empty, over one alphabet."""
    def successors(pair):
        qk, ql = pair
        row_k = k.rows[qk]
        for event, tl in l.rows[ql].items():
            if event in row_k:
                yield event, (row_k[event], tl)
            elif event in eu:
                yield event, None

    word = search((0, 0), successors)[2]
    return word is None, word


def spec_within_plant(k: Generator, g1: Generator, g2: Generator,
                      gk: Generator) -> PropertyReport:
    """The report of K ⊆ L(G_1 ∥ G_2 ∥ G_k)."""
    return language_subset(k, sync_product(sync_product(g1, g2), gk))


def reference_conditionally_controllable(k: Generator, g1: Generator,
                                         g2: Generator, gk: Generator):
    """``is_conditionally_controllable`` by the route it used to take:
    after the same K ⊆ L precondition, each side condition is checked
    against the paper's three-factor ambient
    L(G_i) ∥ P_k(K) ∥ P_k(L(G_j) ∥ P_k(K)), built literally."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    inclusion = spec_within_plant(k, g1, g2, gk)
    if not inclusion.holds:
        raise PreconditionError(
            "specification is not contained in the plant language", inclusion)
    pk, p1k, p2k = (project(k, target.events)
                    for target in (scheme.ek, scheme.e1k, scheme.e2k))
    plants = [sync_product(g, pk) for g in (g1, g2)]
    projected = [project(plant, scheme.ek.events) for plant in plants]
    return ConditionalControllabilityReport(
        is_controllable(pk, gk),
        is_controllable(p1k, sync_product(plants[0], projected[1])),
        is_controllable(p2k, sync_product(plants[1], projected[0])))


def reference_sup_cc(k: Generator, g1: Generator, g2: Generator,
                     gk: Generator):
    """``(sup_k, sup_1k, sup_2k, composed)`` of ``sup_cc`` by the route it
    used to take, preconditions not checked: each specification is first
    intersected with the plant factor that supC is then taken against,
    supC(P_k(K) ∥ P_k(L_1 ∥ L_2) ∥ L_k, L_k) and
    supC(P_{i+k}(K) ∥ L_i, L_i ∥ supC_k)."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    pk, p1k, p2k = (project(k, target.events)
                    for target in (scheme.ek, scheme.e1k, scheme.e2k))
    pk_plant = project(inverse_project(sync_product(g1, g2), scheme.full),
                       scheme.ek.events)
    sup_k = sup_c(sync_product(sync_product(pk, pk_plant), gk), gk)
    sup_1k, sup_2k = (
        sup_c(sync_product(pik, g), sync_product(g, sup_k))
        for pik, g in ((p1k, g1), (p2k, g2)))
    return sup_k, sup_1k, sup_2k, sync_product(sup_1k, sup_2k)


def counted_rows(g: Generator):
    """``(counted, reads)``: ``g`` with rows that count every call made on
    them (``items``, ``get``, ``[]``, ``in``, iteration), and a function
    returning the count so far."""
    reads = 0

    class Row(dict):
        def items(self):
            nonlocal reads
            reads += 1
            return super().items()

        def get(self, *args):
            nonlocal reads
            reads += 1
            return super().get(*args)

        def __getitem__(self, key):
            nonlocal reads
            reads += 1
            return super().__getitem__(key)

        def __contains__(self, key):
            nonlocal reads
            reads += 1
            return super().__contains__(key)

        def __iter__(self):
            nonlocal reads
            reads += 1
            return super().__iter__()

    counted = Generator(g.alphabet, g.labels, tuple(map(Row, g.rows)))
    return counted, lambda: reads


def hidden_chain(n: int) -> Generator:
    """States c0 .. c{n-1} chained by the hidden event ``h``, then ``e``
    from the last back to c0: the target event of c0 is n - 1 hidden steps
    away, so a per-state closure search reads about n²/2 rows."""
    alphabet = Alphabet({"e", "h"}, {"e", "h"})
    states = [f"c{i}" for i in range(n)]
    triples = [(states[i], "h", states[i + 1]) for i in range(n - 1)]
    triples.append((states[-1], "e", states[0]))
    return make_generator(states, alphabet, triples, states[0])


# ---------------------------------------------------------------------------
# definition-literal bounded evaluators (independent of the production
# checkers: they enumerate words and walk the transition function only)

def bounded_observer_verdict(g: Generator, target, bound: int):
    """Evaluate the observer definition on all s in L and t in P(L) of
    length <= bound: some continuation u with su in L and P(su) = t must
    exist.  Witness search follows the definition directly: a hidden path,
    then the next target symbol of t, recursively (memoized, exact for
    arbitrary u lengths)."""
    target = frozenset(target)
    words = sorted(bounded_language(g, bound), key=lambda v: (len(v), v))
    projected = {erase(word, target) for word in words}

    hidden_closure: list[frozenset[int]] = []
    for state in g.states:
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for event in g.alphabet.sorted_events:
                if event in target:
                    continue
                nxt = g.step(current, event)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        hidden_closure.append(frozenset(seen))

    def moves(state: int, event: str) -> frozenset:
        return frozenset(
            nxt for q in hidden_closure[state]
            if (nxt := g.step(q, event)) is not None
        )

    memo: dict[tuple[int, tuple], bool] = {}

    def realizable(state: int, rest: tuple) -> bool:
        if not rest:
            return True
        key = (state, rest)
        if key not in memo:
            memo[key] = False  # cycle guard; rest strictly shrinks anyway
            memo[key] = any(realizable(nxt, rest[1:])
                            for nxt in moves(state, rest[0]))
        return memo[key]

    for s in words:
        ps = erase(s, target)
        state = g.run(s)
        for t in projected:
            if len(t) < len(ps) or t[: len(ps)] != ps:
                continue
            if not realizable(state, t[len(ps):]):
                return False, (s, t)
    return True, None


def bounded_occ_verdict(g: Generator, target, eu, bound: int):
    """Evaluate output control consistency word by word on L up to the
    bound: scanning each word, the hidden segment since the last target
    event must stay uncontrollable whenever the next target event is."""
    target = frozenset(target)
    eu = frozenset(eu)
    for word in sorted(bounded_language(g, bound),
                       key=lambda v: (len(v), v)):
        dirty = False
        for position, event in enumerate(word):
            if event in target:
                if event in eu and dirty:
                    return False, word[: position + 1]
                dirty = False
            elif event not in eu:
                dirty = True
    return True, None


# ---------------------------------------------------------------------------
# reference generator document

def serialize_generator(g: Generator, name: str) -> dict:
    """The document a generator file holds, built as a dict:
    ``json.dumps(serialize_generator(g, name), indent=2) + "\\n"`` is the
    reference for the bytes ``descoord.cli.generator_to_text`` writes."""
    doc = {
        "name": name,
        "events": [
            {"name": event, "controllable": event in g.alphabet.controllable}
            for event in g.alphabet.sorted_events
        ],
        "states": [f"q{i}" for i in range(g.num_states)],
        "initial": "q0",
        "transitions": [
            [f"q{src}", event, f"q{dst}"]
            for src, row in enumerate(g.rows) for event, dst in row.items()
        ],
    }
    if g.recognizes_empty_language:
        doc["recognizes_empty_language"] = True
    return doc


# ---------------------------------------------------------------------------
# hypothesis strategy

@st.composite
def generators(draw, max_states: int = 4, max_events: int = 4):
    n_events = draw(st.integers(1, max_events))
    events = [f"e{i}" for i in range(n_events)]
    controllable = draw(st.sets(st.sampled_from(events)))
    alphabet = Alphabet(frozenset(events), frozenset(controllable))
    n = draw(st.integers(1, max_states))
    table = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from(events)),
        st.integers(0, n - 1),
        max_size=n * n_events,
    ))
    return make_generator(
        [f"s{i}" for i in range(n)],
        alphabet,
        [(f"s{q}", event, f"s{t}") for (q, event), t in table.items()],
        "s0",
    )
