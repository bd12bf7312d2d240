"""Shared builders for the test suite: deterministic random instances and
definition-literal bounded evaluators used as independent oracles."""

import random

from hypothesis import strategies as st

from descoord import (
    Alphabet,
    CoordinationScheme,
    Generator,
    default_coordinator,
    from_words,
    make_generator,
    observer_occ_reports,
    parse_word,
    sync_product,
    trim_accessible,
)
from descoord.oracle import bounded_language, erase

w = parse_word


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
    g = make_generator([f"s{i}" for i in range(n)], alphabet, triples, "s0")
    return trim_accessible(g)


def sub_automaton(rng: random.Random, g: Generator,
                  keep: float = 0.7) -> Generator:
    """A random subautomaton of g: L(sub) ⊆ L(g), prefix-closed."""
    triples = [
        (f"s{src}", event, f"s{dst}")
        for src, row in enumerate(g.rows) for event, dst in row.items()
        if rng.random() < keep
    ]
    sub = make_generator([f"s{i}" for i in range(g.num_states)],
                         g.alphabet, triples, "s0")
    return trim_accessible(sub)


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
    start = tuple(c.initial for c in components) + (0,)
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
# definition-literal bounded evaluators (independent of the production
# checkers: they enumerate words and walk the transition function only)

def bounded_observer_verdict(g: Generator, target, bound: int):
    """Evaluate the observer definition on all s in L and t in P(L) of
    length <= bound: some continuation u with su in L and P(su) = t must
    exist.  Witness search follows the definition directly: a hidden path,
    then the next target symbol of t, recursively (memoized, exact for
    arbitrary u lengths)."""
    target = frozenset(target)
    words = sorted(bounded_language(g, bound).words, key=lambda v: (len(v), v))
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
    for word in sorted(bounded_language(g, bound).words,
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
        "initial": f"q{g.initial}",
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
