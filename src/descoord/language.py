"""Language operations on generators: synchronous product, natural
projection, inverse projection, and decidable comparisons.

Everything here is a pure function returning canonical generators, so
identical inputs always produce identical automata (state order included).
Every walk runs on ``automata.search``: a constructed generator takes the
search's discovery order as its state order, and a counterexample is the
search's violation word, shortest with ties broken by lexicographic event
order.  A walk over one generator iterates its rows, not its alphabet.
The product and the inclusion check walk ``automata.intersect``, over
rows that ``_lifted_rows`` gives the inverse projection's self-loops.
A projection's subset construction is built on demand
(``SubsetConstruction``), so a check that only needs a verdict walks it
without building the projected generator.
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
    intersect,
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
    lets them interleave freely), and G's rows and flag are kept."""
    if not g.alphabet.events <= superset.events:
        raise AlphabetMismatchError("superset alphabet does not contain the "
                                    "generator's events")
    union_alphabets(g.alphabet, superset)
    return Generator(superset, g.labels, g.rows, g.recognizes_empty_language)


def _lifted_rows(g: Generator, superset: Alphabet):
    """G's rows over ``superset``, which contains G's alphabet: every event
    outside G's alphabet self-loops at every state, and each row keeps the
    superset's sorted event order.  G's own rows when nothing is added."""
    if g.alphabet.events == superset.events:
        return g.rows
    own = g.alphabet.events
    table = [(event, event in own) for event in superset.sorted_events]
    return [{e: row[e] if mine else q for e, mine in table
             if not mine or e in row}
            for q, row in enumerate(g.rows)]


def sync_product(g1: Generator, g2: Generator) -> Generator:
    """Synchronous product: shared events move together, private events
    interleave.  Built as P_1^{-1}(L(G_1)) ∩ P_2^{-1}(L(G_2)) over the
    union alphabet, each state labelled by its pair.  The result is trim."""
    merged = union_alphabets(g1.alphabet, g2.alphabet)
    if g1.recognizes_empty_language or g2.recognizes_empty_language:
        return empty_generator(merged)
    nodes, rows, *_ = intersect(_lifted_rows(g1, merged),
                                _lifted_rows(g2, merged))
    return Generator(merged, tuple(nodes), rows)


class SubsetConstruction:
    """The subset construction of the natural projection of L(G) onto
    ``events``, a subset of G's events (``ValidationError`` otherwise),
    built on demand.  A subset is the hidden-event closure of a set of G's
    states, kept as its sorted member ids and interned as a dense id when
    first reached (the start subset is id 0).  A subset's row, its steps
    on every target event, is computed once, when a walk first expands
    the subset, and kept, so that walks over one construction share their
    work and one that stops early leaves the rest unbuilt.  Onto no events,
    the one subset is all of G's states (each is reachable), with no step.
    An empty G's dead state is one subset with no step as well, and
    ``generator`` carries G's empty-language flag."""

    def __init__(self, g: Generator, events: Iterable[str]):
        self.g = g
        self.alphabet = g.alphabet.restrict(events)
        self._hidden = g.alphabet.events - self.alphabet.events
        self.members: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._rows: list[dict[str, int] | None] = []
        self._intern([0])

    def _intern(self, states: list[int]) -> int:
        """The id of the hidden-event closure of ``states``."""
        rows, hidden = self.g.rows, self._hidden
        seen = set(states)
        queue = deque(seen)
        while queue:
            for event, nxt in rows[queue.popleft()].items():
                if event in hidden and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        subset = tuple(sorted(seen))
        found = self._ids.get(subset)
        if found is None:
            found = self._ids[subset] = len(self.members)
            self.members.append(subset)
            self._rows.append(None)
        return found

    def row(self, subset: int) -> dict[str, int]:
        """The steps of ``subset``: each target event some member moves on,
        in sorted order, mapped to the subset it reaches."""
        row = self._rows[subset]
        if row is None:
            rows, target = self.g.rows, self.alphabet.events
            stepped: dict[str, list[int]] = {}
            for state in self.members[subset]:
                for event, nxt in rows[state].items():
                    if event in target:
                        stepped.setdefault(event, []).append(nxt)
            row = self._rows[subset] = {event: self._intern(stepped[event])
                                        for event in sorted(stepped)}
        return row

    def generator(self) -> Generator:
        """P(L(G)) as a generator: the search over the whole construction,
        in canonical state order, each state labelled by its subset."""
        row = self.row
        nodes, rows, *_ = search(0, lambda subset: row(subset).items())
        members = self.members
        return Generator(self.alphabet, tuple(members[i] for i in nodes),
                         rows, self.g.recognizes_empty_language)


def project(g: Generator, events: Iterable[str]) -> Generator:
    """Natural projection of L(G) onto ``events``, a subset of G's events
    (``ValidationError`` otherwise): erase the other transitions, then
    determinize by the subset construction of ``SubsetConstruction``,
    searched in full.  A state is labelled by its subset (sorted member
    ids), so identical runs produce identical automata.  The result is
    deterministic and trim."""
    return SubsetConstruction(g, events).generator()


def inverse_project(g: Generator, superset: Alphabet) -> Generator:
    """Inverse image P^{-1}(L(G)) over a larger alphabet, realized by
    self-loops on the new events at every state."""
    if not g.alphabet.events <= superset.events:
        raise AlphabetMismatchError("inverse projection needs the generator's "
                                    "alphabet to be contained in the superset")
    union_alphabets(g.alphabet, superset)
    if g.recognizes_empty_language:
        return empty_generator(superset)
    return Generator(superset, g.labels, _lifted_rows(g, superset))


def language_subset(g1: Generator, g2: Generator) -> PropertyReport:
    """Does L(G1) ⊆ L(G2) hold?  The counterexample is the shortest word of
    L(G1) \\ L(G2): the intersection walk's first word s·e with s in both
    languages and e taken by G1 only."""
    _require_same_alphabet(g1, g2, "language_subset")
    if g1.recognizes_empty_language:
        return PropertyReport(True, detail="∅ is a subset of every language")
    if g2.recognizes_empty_language:
        return PropertyReport(False, EPSILON,
                              "right-hand language is empty")

    # Every event of G1 that G2 does not take is a violation.
    word = intersect(g2.rows, g1.rows, g1.alphabet.events)[2]
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

