"""Language operations on generators: synchronous product, natural
projection, inverse projection, and decidable comparisons.

Everything here is a pure function returning canonical generators, so
identical inputs always produce identical automata (state order included).
The product and the inclusion check walk ``automata.intersect``, the pair
walk, which is its own loop with ``automata.search``'s contract: a
constructed generator takes the walk's discovery order as its state
order, and a counterexample is its violation word, shortest with ties
broken by lexicographic event order.  A walk over one generator iterates
its rows, not its alphabet.  The product walks rows that ``_lifted_rows``
gives the inverse projection's self-loops.
A projection's subset construction is built on demand
(``SubsetConstruction``), so a check that only needs a verdict walks it
without building the projected generator.  The projected generator is a
``search`` over the construction; the hidden-event closure of each new
subset is a breadth-first loop of its own.
"""

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
from .errors import AlphabetMismatchError, SubsetLimitError

# The subsets one ``SubsetConstruction`` may intern.  A projection of n
# states can have 2^n; past the limit it stops with ``SubsetLimitError``,
# having held about 150 MB, instead of exhausting memory.  The largest
# construction of the benchmark instances has 4824 subsets (of a
# 16 884-state specification), and of the tests 3216.
MAX_SUBSETS = 1 << 18


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
    return Generator(superset, g.rows, g.recognizes_empty_language)


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
    union alphabet, its states numbered in the search's discovery order of
    the operand pairs.  The result is trim."""
    merged, rows, _ = _product_walk(g1, g2)
    return Generator(merged, rows) if rows else empty_generator(merged)


def _plant(g1: Generator, g2: Generator, gk: Generator) -> Generator:
    """The plant G_1 ∥ G_2 ∥ G_k, built as G_1 ∥ (G_2 ∥ G_k): G_k ties the
    subsystems, so the inner product is small, and the large G_1 ∥ G_2 is
    never built."""
    return sync_product(g1, sync_product(g2, gk))


def _product_walk(g1: Generator, g2: Generator, refused=frozenset()):
    """``sync_product``'s walk: the union alphabet, and the rows and the
    violation word of ``intersect`` over both operands lifted to it, which
    ends where G_2 takes an event of ``refused`` that G_1 does not.  No
    rows and no word when either language is empty."""
    merged = union_alphabets(g1.alphabet, g2.alphabet)
    if g1.recognizes_empty_language or g2.recognizes_empty_language:
        return merged, [], None
    _, rows, word = intersect(_lifted_rows(g1, merged),
                              _lifted_rows(g2, merged), refused)
    return merged, rows, word


class SubsetConstruction:
    """The subset construction of the natural projection of L(G) onto
    ``events``, a subset of G's events (``ValidationError`` otherwise),
    built on demand.  A subset is the hidden-event closure of a set of G's
    states, kept as its sorted member ids and interned as a dense id when
    first reached (the start subset is id 0).  The closure reads each
    member's row once and collects the member's steps on target events as
    it goes; a new subset keeps them until a walk first expands it, when
    they become its row, its steps on every target event, kept so that
    walks over one construction share their work and one that stops early
    leaves the rest unbuilt.  ``built`` holds the rows built, else None;
    indexing by a subset's id gives its ``row``.  Onto no events, the
    one subset is all of G's states (each is reachable), with no step.
    An empty G's dead state is one subset with no step as well, and
    ``generator`` carries G's empty-language flag.  Interning a subset
    past ``MAX_SUBSETS`` raises ``SubsetLimitError``.

    ``_over``, a construction of G onto a superset of ``events`` whose
    every row is built, gives the same construction without reading G's
    rows: its subsets stand in for G's states, and a closed set of them is
    keyed by the union of their members.  For each word w, the states of G
    reached by the words that project to w are the union of those reached
    by the words that project to each word u of ``_over``'s projection
    that projects to w.  So the subsets, their order, their rows and
    ``SubsetLimitError`` are those of the construction over G."""

    def __init__(self, g: Generator, events: Iterable[str],
                 _over: "SubsetConstruction | None" = None):
        self.g = g
        self.alphabet = g.alphabet.restrict(events)
        base = g if _over is None else _over
        self._graph = g.rows if _over is None else _over.built
        self._parts = None if _over is None else _over.members
        self._hidden = base.alphabet.events - self.alphabet.events
        self.members: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self.built: list[dict[str, int] | None] = []
        self._steps: list[dict[str, list[int]] | None] = []
        self._single: dict[int, int] = {}
        self._intern([0])

    def _intern(self, states: list[int]) -> int:
        """The id of the hidden-event closure of ``states``, memoized for
        a single state: nearly every subset reached again is its closure."""
        single = states[0] if len(states) == 1 else None
        if (found := self._single.get(single)) is not None:
            return found
        rows, hidden = self._graph, self._hidden
        seen = set(states)
        queue = list(seen)
        stepped: dict[str, list[int]] = {}
        for state in queue:
            for event, nxt in rows[state].items():
                if event in stepped:
                    stepped[event].append(nxt)
                elif event not in hidden:
                    stepped[event] = [nxt]
                elif nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if self._parts is not None:
            seen = set().union(*map(self._parts.__getitem__, seen))
        subset = tuple(sorted(seen))
        found = self._ids.get(subset)
        if found is None:
            if len(self.members) >= MAX_SUBSETS:
                raise SubsetLimitError(
                    f"the projection of a {self.g.num_states}-state, "
                    f"{self.g.num_transitions}-transition generator onto "
                    f"{{{', '.join(self.alphabet.sorted_events)}}} stopped "
                    f"after {len(self.members)} subsets, the limit")
            found = self._ids[subset] = len(self.members)
            self.members.append(subset)
            self.built.append(None)
            self._steps.append(stepped)
        if single is not None:
            self._single[single] = found
        return found

    def row(self, subset: int) -> dict[str, int]:
        """The steps of ``subset``: each target event some member moves on,
        in sorted order, mapped to the subset it reaches."""
        row = self.built[subset]
        if row is None:
            stepped, self._steps[subset] = self._steps[subset], None
            row = self.built[subset] = {event: self._intern(stepped[event])
                                        for event in sorted(stepped)}
        return row

    __getitem__ = row

    def generator(self) -> Generator:
        """P(L(G)) as a generator: the search over the whole construction,
        its subsets numbered in canonical state order."""
        rows = search(0, lambda subset: self[subset].items())[1]
        return Generator(self.alphabet, rows, self.g.recognizes_empty_language)


def project(g: Generator, events: Iterable[str]) -> Generator:
    """Natural projection of L(G) onto ``events``, a subset of G's events
    (``ValidationError`` otherwise): erase the other transitions, then
    determinize by the subset construction of ``SubsetConstruction``,
    searched in full, so identical runs produce identical automata.  The
    result is deterministic and trim."""
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
    return Generator(superset, _lifted_rows(g, superset))


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
    return PropertyReport.of(
        intersect(g2.rows, g1.rows, g1.alphabet.events)[2],
        "word is in the left language only", "inclusion holds")


def language_equal(g1: Generator, g2: Generator) -> PropertyReport:
    """Does L(G1) = L(G2) hold?  The counterexample is a shortest word in
    the symmetric difference (ties broken lexicographically)."""
    witnesses = [(report.counterexample, side)
                 for report, side in ((language_subset(g1, g2), "left"),
                                      (language_subset(g2, g1), "right"))
                 if not report.holds]
    word, side = min(witnesses, key=lambda w: (len(w[0]), w[0]),
                     default=(None, ""))
    return PropertyReport.of(word, f"word is in the {side} language only",
                             "languages are equal")

