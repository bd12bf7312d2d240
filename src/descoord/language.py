"""Language operations on generators: synchronous product, natural
projection, inverse projection, and decidable comparisons.

Everything here is a pure function returning canonical generators, so
identical inputs always produce identical automata (state order included).
Every walk runs on ``automata.search``: a constructed generator takes the
search's discovery order as its state order, and a counterexample is the
search's violation word, shortest with ties broken by lexicographic event
order.  A walk over one generator iterates its rows, not its alphabet.
"""

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .automata import (
    EPSILON,
    Alphabet,
    Generator,
    PropertyReport,
    empty_generator,
    search,
    union_alphabets,
)
from .errors import AlphabetMismatchError


@dataclass(frozen=True)
class CoordinationScheme:
    """The event-set triple (E_1, E_2, E_k) of a coordination architecture,
    with the derived sets E_{1+k}, E_{2+k} and E = E_1 ∪ E_2 ∪ E_k."""

    e1: Alphabet
    e2: Alphabet
    ek: Alphabet

    def __post_init__(self):
        # Raises on any controllability disagreement between the three.
        union_alphabets(self.e1, self.e2, self.ek)

    @cached_property
    def e1k(self) -> Alphabet:
        return union_alphabets(self.e1, self.ek)

    @cached_property
    def e2k(self) -> Alphabet:
        return union_alphabets(self.e2, self.ek)

    @cached_property
    def full(self) -> Alphabet:
        return union_alphabets(self.e1, self.e2, self.ek)


def _require_same_alphabet(g1: Generator, g2: Generator, what: str) -> None:
    if g1.alphabet != g2.alphabet:
        raise AlphabetMismatchError(f"{what} requires generators over the "
                                    f"same alphabet")


def widen_alphabet(g: Generator, superset: Alphabet) -> Generator:
    """Reinterpret L(G) over a larger alphabet.  The word set is unchanged:
    the new events never occur (contrast with ``inverse_project``, which
    lets them interleave freely)."""
    if not g.alphabet.events <= superset.events:
        raise AlphabetMismatchError("superset alphabet does not contain the "
                                    "generator's events")
    union_alphabets(g.alphabet, superset)
    if g.recognizes_empty_language:
        return empty_generator(superset)
    return Generator(superset, g.labels, g.rows, g.initial,
                     g.reachable_count)


def sync_product(g1: Generator, g2: Generator) -> Generator:
    """Synchronous product: shared events move together, private events
    interleave.  Recognizes P_1^{-1}(L(G_1)) ∩ P_2^{-1}(L(G_2)) over the
    union alphabet.  The result is trim."""
    merged = union_alphabets(g1.alphabet, g2.alphabet)
    if g1.recognizes_empty_language or g2.recognizes_empty_language:
        return empty_generator(merged)
    in1 = g1.alphabet.events
    in2 = g2.alphabet.events

    def successors(pair):
        q1, q2 = pair
        row1, row2 = g1.rows[q1], g2.rows[q2]
        for event in merged.sorted_events:
            t1 = row1.get(event) if event in in1 else q1
            t2 = row2.get(event) if event in in2 else q2
            if t1 is not None and t2 is not None:
                yield event, (t1, t2)

    nodes, rows, _ = search((g1.initial, g2.initial), successors)
    return Generator(merged, tuple(nodes), rows, 0, len(nodes))


def project(g: Generator, events: Iterable[str]) -> Generator:
    """Natural projection of L(G) onto ``events``, a subset of G's events
    (``ValidationError`` otherwise): erase the other transitions, then
    determinize by subset construction.  Subset states are canonically
    encoded (sorted member ids), so identical runs produce identical
    automata.  The result is deterministic and trim."""
    target = g.alphabet.restrict(events)
    if g.recognizes_empty_language:
        return empty_generator(target)
    hidden = g.alphabet.events - target.events

    def closure(states: Iterable[int]) -> tuple[int, ...]:
        seen = set(states)
        queue = deque(seen)
        while queue:
            for event, nxt in g.rows[queue.popleft()].items():
                if event in hidden and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return tuple(sorted(seen))

    def successors(subset):
        for event in target.sorted_events:
            stepped = [t for s in subset
                       if (t := g.rows[s].get(event)) is not None]
            if stepped:
                yield event, closure(stepped)

    nodes, rows, _ = search(closure([g.initial]), successors)
    return Generator(target, tuple(nodes), rows, 0, len(nodes))


def inverse_project(g: Generator, superset: Alphabet) -> Generator:
    """Inverse image P^{-1}(L(G)) over a larger alphabet, realized by
    self-loops on the new events at every state."""
    if not g.alphabet.events <= superset.events:
        raise AlphabetMismatchError("inverse projection needs the generator's "
                                    "alphabet to be contained in the superset")
    union_alphabets(g.alphabet, superset)
    if g.recognizes_empty_language:
        return empty_generator(superset)
    fresh = superset.events - g.alphabet.events
    rows = [dict(sorted([*row.items(), *((event, state) for event in fresh)]))
            for state, row in enumerate(g.rows)]
    return Generator(superset, g.labels, rows, g.initial, g.reachable_count)


def language_subset(g1: Generator, g2: Generator) -> PropertyReport:
    """Does L(G1) ⊆ L(G2) hold?  The counterexample is the shortest word of
    L(G1) \\ L(G2), found on the product of G1 with the (implicitly
    completed) G2."""
    _require_same_alphabet(g1, g2, "language_subset")
    if g1.recognizes_empty_language:
        return PropertyReport(True, detail="∅ is a subset of every language")
    if g2.recognizes_empty_language:
        return PropertyReport(False, EPSILON,
                              "right-hand language is empty")

    def successors(pair):
        q1, q2 = pair
        row2 = g2.rows[q2]
        for event, t1 in g1.rows[q1].items():
            t2 = row2.get(event)
            yield event, None if t2 is None else (t1, t2)

    word = search((g1.initial, g2.initial), successors)[2]
    if word is not None:
        return PropertyReport(False, word, "word is in the left language only")
    return PropertyReport(True, detail="inclusion holds")


def language_equal(g1: Generator, g2: Generator) -> PropertyReport:
    """Does L(G1) = L(G2) hold?  The counterexample is a shortest word in
    the symmetric difference (ties broken lexicographically)."""
    left = language_subset(g1, g2)
    right = language_subset(g2, g1)
    if left.holds and right.holds:
        return PropertyReport(True, detail="languages are equal")
    witnesses = []
    if not left.holds:
        witnesses.append((left.counterexample, "left language only"))
    if not right.holds:
        witnesses.append((right.counterexample, "right language only"))
    word, side = min(witnesses, key=lambda w: (len(w[0]), w[0]))
    return PropertyReport(False, word, f"word is in the {side}")


def language_union(g1: Generator, g2: Generator) -> Generator:
    """Generator of L(G1) ∪ L(G2) (same alphabet required).  Built on the
    product of the completed automata; a product state survives while either
    component is alive."""
    _require_same_alphabet(g1, g2, "language_union")
    if g1.recognizes_empty_language:
        return g2
    if g2.recognizes_empty_language:
        return g1
    alphabet = g1.alphabet
    DEAD = -1

    def successors(pair):
        q1, q2 = pair
        row1 = g1.rows[q1] if q1 != DEAD else {}
        row2 = g2.rows[q2] if q2 != DEAD else {}
        for event in alphabet.sorted_events:
            t1 = row1.get(event, DEAD)
            t2 = row2.get(event, DEAD)
            if t1 != DEAD or t2 != DEAD:
                yield event, (t1, t2)

    nodes, rows, _ = search((g1.initial, g2.initial), successors)
    return Generator(alphabet, tuple(nodes), rows, 0, len(nodes))
