"""Deterministic generators with partial transition functions, and the
three kernels that the engine's state-space walks run on: a breadth-first
search, a pair walk over two row tables, and a backward reachability pass.

A generator recognizes the prefix-closed language of all words along which
its transition function stays defined; there is no marking.  The empty
language, which has no such representation, is carried by a dedicated
``recognizes_empty_language`` flag.

All values are immutable and safe to share across threads.
"""

from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import (
    ControllabilityConflictError,
    DeterminismError,
    ValidationError,
)

Word = tuple[str, ...]
EPSILON: Word = ()


def parse_word(text: str) -> Word:
    """Parse a dot-separated word; the empty string is the empty word."""
    if text in ("", "ε"):
        return EPSILON
    return tuple(text.split("."))


def format_word(word: Word) -> str:
    return ".".join(word) if word else "ε"


def _event_names(names: Iterable[str]) -> frozenset[str]:
    """``names`` as a set, each checked to be a non-empty string before it
    is hashed, so that a list name raises ``ValidationError``.  A string is
    one name, not a collection of one-letter names, and is rejected too."""
    if isinstance(names, str):
        raise ValidationError(f"expected a collection of event names, "
                              f"got the string {names!r}")
    names = tuple(names)
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"invalid event name: {name!r}")
    return frozenset(names)


def _require_events(alphabet: "Alphabet", word: Word) -> None:
    """Raise ``ValidationError`` on the first event of ``word`` outside
    ``alphabet``, checking that it is a string before it is hashed."""
    for event in word:
        if not isinstance(event, str) or event not in alphabet.events:
            raise ValidationError(f"event {event!r} not in the alphabet")


@dataclass(frozen=True)
class Alphabet:
    """An event set split into controllable and uncontrollable events."""

    events: frozenset[str]
    controllable: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "events", _event_names(self.events))
        object.__setattr__(self, "controllable",
                           _event_names(self.controllable))
        extra = self.controllable - self.events
        if extra:
            raise ValidationError(
                f"controllable events not in the alphabet: {sorted(extra)}"
            )

    @property
    def uncontrollable(self) -> frozenset[str]:
        return self.events - self.controllable

    @cached_property
    def sorted_events(self) -> tuple[str, ...]:
        return tuple(sorted(self.events))

    def restrict(self, events: Iterable[str]) -> "Alphabet":
        """Sub-alphabet over ``events``, controllability inherited."""
        kept = _event_names(events)
        missing = kept - self.events
        if missing:
            raise ValidationError(f"unknown events: {sorted(missing)}")
        return Alphabet(kept, self.controllable & kept)


def union_alphabets(*alphabets: Alphabet) -> Alphabet:
    """Union of alphabets.  A shared event whose controllability status
    differs between two operands is an error, never a silent override."""
    controllable = frozenset().union(*(a.controllable for a in alphabets))
    uncontrollable = frozenset().union(*(a.uncontrollable
                                         for a in alphabets))
    conflicts = sorted(controllable & uncontrollable)
    if conflicts:
        raise ControllabilityConflictError(
            f"events {conflicts} are controllable in one alphabet and "
            f"uncontrollable in another"
        )
    return Alphabet(controllable | uncontrollable, controllable)


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of a decidable check, with a witness when it fails."""

    holds: bool
    counterexample: Word | None = None
    detail: str = ""

    def __post_init__(self):
        if not self.holds and self.counterexample is None:
            raise ValidationError("failing report requires a counterexample")

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True, eq=False)
class Generator:
    """A deterministic finite-state generator.

    States are canonical dense integers: every state is reachable, state 0
    is the initial state, where every walk starts, and the others follow in
    breadth-first order, events sorted.  A label names a state for display
    only: a parsed or word-built generator keeps its state names, and a
    constructed one labels each state with the node it was discovered as (a
    pair of operand states, or a tuple of subset members).  ``rows[q]`` maps
    each event defined at state ``q``, in sorted order, to its target; rows
    are made read-only here.  Do not instantiate directly; use
    ``make_generator`` or the other public constructors.
    """

    alphabet: Alphabet
    labels: tuple
    rows: tuple[Mapping[str, int], ...]
    recognizes_empty_language: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(
            row if type(row) is MappingProxyType else MappingProxyType(row)
            for row in self.rows))

    @property
    def num_states(self) -> int:
        return len(self.rows)

    @property
    def states(self) -> range:
        return range(len(self.rows))

    @property
    def num_transitions(self) -> int:
        return sum(map(len, self.rows))

    def step(self, state: int, event: str) -> int | None:
        return self.rows[state].get(event)

    def run(self, word: Iterable[str]) -> int | None:
        """Extended transition function: the state after ``word``, or None.
        Every event of the word is validated, also after the run dies."""
        word = tuple(word)
        _require_events(self.alphabet, word)
        state: int | None = 0
        for event in word:
            state = self.rows[state].get(event)
            if state is None:
                return None
        return state


def search(start, successors):
    """Breadth-first search from ``start``.

    ``successors(node)`` returns the ``(event, target)`` pairs of ``node``
    in sorted event order, as an iterable (the walks build a list); a
    ``None`` target is a violation and ends the search.  Returns
    ``(nodes, rows, violation, parents)``: the nodes in discovery order, one
    row ``{event: index}`` per expanded node, its events in sorted order,
    the word leading to the violation (None when there is none), and for
    each node the ``(index, event)`` of its first discovery (``(0, "")`` for
    the start).  Nodes are expanded in discovery order, so the violation
    word, rebuilt from the parents, is the shortest one, ties broken
    lexicographically, and the node order is the canonical state order of a
    generator built from the rows.

    Callers may rely on one more thing: nothing after a ``None`` target is
    read, so a walk may stop building its list there."""
    nodes = [start]
    ids = {start: 0}
    parents: list[tuple[int, str]] = [(0, "")]
    rows: list[dict[str, int]] = []
    for index, node in enumerate(nodes):
        rows.append(row := {})
        for event, target in successors(node):
            if target is None:
                word = [event]
                while index:
                    index, event = parents[index]
                    word.append(event)
                return nodes, rows, tuple(reversed(word)), parents
            found = ids.get(target)
            if found is None:
                found = ids[target] = len(nodes)
                nodes.append(target)
                parents.append((index, event))
            row[event] = found
    return nodes, rows, None, parents


def intersect(a_rows, b_rows, refused=frozenset()):
    """``search`` from the pair (0, 0) of two row tables over one
    alphabet, each started at its state 0: a pair (a, b) moves on each
    event of b's row, in row order, that a's row also has, and the search
    ends where b takes an event of ``refused`` that a does not."""
    def successors(pair):
        qa, qb = pair
        row_a = a_rows[qa]
        out = []
        for event, tb in b_rows[qb].items():
            if event in row_a:
                out.append((event, (row_a[event], tb)))
            elif event in refused:
                out.append((event, None))
                break
        return out

    return search((0, 0), successors)


def backward(rows, events, *sources) -> list[set[int]]:
    """For each collection of ``sources``, in order, the nodes of the row
    table ``rows`` from which a path over ``events`` reaches one of its
    nodes, the sources included.  The predecessor lists over ``events`` are
    built once per call, reading each row once, and shared by all the
    collections; each pass over them visits each node and edge once."""
    predecessors: list[list[int]] = [[] for _ in rows]
    for node, row in enumerate(rows):
        for event, target in row.items():
            if event in events:
                predecessors[target].append(node)
    out = []
    for group in sources:
        out.append(reached := set(group))
        worklist = list(reached)
        while worklist:
            for node in predecessors[worklist.pop()]:
                if node not in reached:
                    reached.add(node)
                    worklist.append(node)
    return out


def _canonicalize(
    alphabet: Alphabet,
    labels: list[str],
    rows: list[dict[str, int]],
    initial: int,
) -> Generator:
    """The generator of the states reachable from ``initial`` in ``rows``
    (state ``q`` labelled ``labels[q]``), renumbered canonically by one
    search.  The rows given may list their events in any order."""
    nodes, canonical, *_ = search(initial, lambda q: sorted(rows[q].items()))
    return Generator(alphabet, tuple(labels[q] for q in nodes), canonical)


def _validated(states: Iterable[str], alphabet: Alphabet,
               transitions: Iterable[tuple[str, str, str]], initial: str):
    """``make_generator`` up to ``_canonicalize``, which never raises: every
    error is raised here.  Returns the state names, rows and initial index."""
    names = list(states)
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"invalid state name: {name!r}")
    index = {name: i for i, name in enumerate(names)}
    if len(names) != len(index):
        raise ValidationError("duplicate state names")
    if not names:
        raise ValidationError("a generator needs at least one state")
    if not isinstance(initial, str) or initial not in index:
        raise ValidationError(f"unknown initial state: {initial!r}")

    events = alphabet.events
    rows: list[dict[str, int]] = [{} for _ in names]
    for triple in transitions:
        if not (isinstance(triple, (tuple, list)) and len(triple) == 3
                and isinstance(triple[0], str) and isinstance(triple[1], str)
                and isinstance(triple[2], str)):
            raise ValidationError(
                "'transitions' must be [source, event, target] triples")
        src, event, dst = triple
        source, target = index.get(src), index.get(dst)
        if source is None or target is None:
            raise ValidationError(f"transition {src!r}-{event!r}->{dst!r} "
                                  f"references an unknown state")
        if event not in events:
            raise ValidationError(f"transition label {event!r} not in the alphabet")
        if rows[source].setdefault(event, target) != target:
            raise DeterminismError(
                f"duplicate transition on ({src!r}, {event!r})"
            )
    return names, rows, index[initial]


def make_generator(
    states: Iterable[str],
    alphabet: Alphabet,
    transitions: Iterable[tuple[str, str, str]],
    initial: str,
) -> Generator:
    """Validate and build a generator from named states and its
    ``[source, event, target]`` transition triples.  Raises
    ``DeterminismError`` for a duplicate (state, event) transition and
    ``ValidationError`` for a transition that is not a triple of strings and
    for references to unknown states or events.  Every transition is
    validated, but only the states reachable from ``initial`` are kept: the
    language cannot see the others.
    """
    return _canonicalize(alphabet, *_validated(states, alphabet, transitions,
                                               initial))


def empty_generator(alphabet: Alphabet) -> Generator:
    """The generator of the empty language over ``alphabet``."""
    return Generator(alphabet, ("dead",), ({},),
                     recognizes_empty_language=True)


def universal_generator(alphabet: Alphabet) -> Generator:
    """One state, self-loops on every event: recognizes all of E*."""
    return Generator(alphabet, ("all",),
                     (dict.fromkeys(alphabet.sorted_events, 0),))


def from_words(alphabet: Alphabet, words: Iterable[Word | str]) -> Generator:
    """Prefix-tree generator of the prefix closure of a finite word set."""
    parsed = [parse_word(w) if isinstance(w, str) else tuple(w) for w in words]
    for word in parsed:
        _require_events(alphabet, word)
    labels = ["ε"]
    rows: list[dict[str, int]] = [{}]
    nodes: dict[Word, int] = {EPSILON: 0}
    for word in parsed:
        for cut in range(1, len(word) + 1):
            prefix = word[:cut]
            if prefix not in nodes:
                nodes[prefix] = len(labels)
                labels.append(format_word(prefix))
                rows.append({})
                rows[nodes[prefix[:-1]]][prefix[-1]] = nodes[prefix]
    return _canonicalize(alphabet, labels, rows, 0)


def membership(g: Generator, word: Iterable[str]) -> bool:
    """True iff the word is in L(G), i.e. the run stays defined."""
    return g.run(word) is not None and not g.recognizes_empty_language


def reachable_events(g: Generator) -> frozenset[str]:
    """Events occurring on transitions of G (every state is reachable)."""
    return frozenset().union(*g.rows)


def shortest_words(g: Generator, count: int) -> list[Word]:
    """The first ``count`` words of L(G) in shortest-then-lexicographic
    order (used for display; the language may be infinite)."""
    if g.recognizes_empty_language or count <= 0:
        return []
    out: list[Word] = []
    queue: deque[tuple[int, Word]] = deque([(0, EPSILON)])
    while queue and len(out) < count:
        state, word = queue.popleft()
        out.append(word)
        for event, target in g.rows[state].items():
            queue.append((target, word + (event,)))
    return out
