"""Deterministic generators with partial transition functions, and the
breadth-first search kernel that the engine's state-space walks run on.

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

    def agrees_with(self, other: "Alphabet") -> bool:
        """True when shared events have the same controllability status."""
        shared = self.events & other.events
        return (self.controllable & shared) == (other.controllable & shared)


def union_alphabets(*alphabets: Alphabet) -> Alphabet:
    """Union of alphabets.  A shared event whose controllability status
    differs between two operands is an error, never a silent override."""
    events: set[str] = set()
    controllable: set[str] = set()
    for alpha in alphabets:
        for prev in alphabets:
            if prev is alpha:
                break
            if not prev.agrees_with(alpha):
                bad = sorted(
                    e
                    for e in prev.events & alpha.events
                    if (e in prev.controllable) != (e in alpha.controllable)
                )
                raise ControllabilityConflictError(
                    f"events {bad} are controllable in one alphabet and "
                    f"uncontrollable in another"
                )
        events |= alpha.events
        controllable |= alpha.controllable
    return Alphabet(frozenset(events), frozenset(controllable))


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

    States are canonical dense integers: 0 is the initial state, reachable
    states come first in breadth-first order (events sorted), unreachable
    states follow sorted by label.  A label names a state for display only:
    a parsed or word-built generator keeps its state names, and a constructed
    one labels each state with the node it was discovered as (a pair of
    operand states, or a tuple of subset members).  ``rows[q]`` maps each
    event defined at state ``q``, in sorted order, to its target; rows are
    made read-only here.  Do not instantiate directly; use
    ``make_generator`` or the other public constructors.
    """

    alphabet: Alphabet
    labels: tuple
    rows: tuple[Mapping[str, int], ...]
    initial: int
    reachable_count: int
    recognizes_empty_language: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(
            row if type(row) is MappingProxyType else MappingProxyType(row)
            for row in self.rows))

    @property
    def num_states(self) -> int:
        return len(self.labels)

    @property
    def states(self) -> range:
        return range(len(self.labels))

    @property
    def num_transitions(self) -> int:
        return sum(map(len, self.rows))

    def step(self, state: int, event: str) -> int | None:
        return self.rows[state].get(event)

    def run(self, word: Iterable[str]) -> int | None:
        """Extended transition function: the state after ``word``, or None."""
        state: int | None = self.initial
        for event in word:
            if event not in self.alphabet.events:
                raise ValidationError(f"event {event!r} not in the alphabet")
            state = self.rows[state].get(event)
            if state is None:
                return None
        return state


def search(start, successors):
    """Breadth-first search from ``start``.

    ``successors(node)`` yields ``(event, target)`` pairs in sorted event
    order; a ``None`` target is a violation and ends the search.  Returns
    ``(nodes, rows, violation)``: the nodes in discovery order, one row
    ``{event: index}`` per expanded node, its events in sorted order, and
    the word leading to the violation (None when there is none).  Nodes are
    expanded in discovery order and a parent pointer records each node's
    first discovery, so the violation word is the shortest one, ties broken
    lexicographically, and the node order is the canonical state order of a
    generator built from the rows."""
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
                return nodes, rows, tuple(reversed(word))
            found = ids.get(target)
            if found is None:
                found = ids[target] = len(nodes)
                nodes.append(target)
                parents.append((index, event))
            row[event] = found
    return nodes, rows, None


def _canonicalize(
    alphabet: Alphabet,
    labels: list[str],
    rows: list[dict[str, int]],
    initial: int,
) -> Generator:
    """Rename arbitrarily numbered states to canonical ids: breadth-first
    order from the initial state, then unreachable states by label.  The
    rows given may list their events in any order."""
    order, new_rows, _ = search(initial, lambda q: sorted(rows[q].items()))
    reachable_count = len(order)
    order.extend(sorted(set(range(len(labels))) - set(order),
                        key=lambda i: labels[i]))
    remap = {old: new for new, old in enumerate(order)}
    new_rows.extend(
        {event: remap[target] for event, target in sorted(rows[old].items())}
        for old in order[reachable_count:])
    return Generator(
        alphabet=alphabet,
        labels=tuple(labels[old] for old in order),
        rows=new_rows,
        initial=0,
        reachable_count=reachable_count,
    )


def make_generator(
    states: Iterable[str],
    alphabet: Alphabet,
    transitions: Mapping[tuple[str, str], str] | Iterable[tuple[str, str, str]],
    initial: str,
) -> Generator:
    """Validate and build a generator from named states.  Raises
    ``DeterminismError`` for a duplicate (state, event) transition and
    ``ValidationError`` for a transition that is not a triple of strings (or
    a mapping key that is not a (state, event) pair) and for references to
    unknown states or events.
    """
    names = list(states)
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"invalid state name: {name!r}")
    if len(names) != len(set(names)):
        raise ValidationError("duplicate state names")
    if not names:
        raise ValidationError("a generator needs at least one state")
    index = {name: i for i, name in enumerate(names)}
    if not isinstance(initial, str) or initial not in index:
        raise ValidationError(f"unknown initial state: {initial!r}")

    if isinstance(transitions, Mapping):
        if not all(isinstance(key, tuple) and len(key) == 2
                   for key in transitions):
            raise ValidationError("transition keys must be (state, event) "
                                  "pairs")
        transitions = [(src, event, dst)
                       for (src, event), dst in transitions.items()]

    rows: list[dict[str, int]] = [{} for _ in names]
    for triple in transitions:
        if not (isinstance(triple, (tuple, list)) and len(triple) == 3
                and isinstance(triple[0], str) and isinstance(triple[1], str)
                and isinstance(triple[2], str)):
            raise ValidationError(
                "'transitions' must be [source, event, target] triples")
        src, event, dst = triple
        if src not in index or dst not in index:
            raise ValidationError(f"transition {src!r}-{event!r}->{dst!r} "
                                  f"references an unknown state")
        if event not in alphabet.events:
            raise ValidationError(f"transition label {event!r} not in the alphabet")
        row = rows[index[src]]
        if event in row and row[event] != index[dst]:
            raise DeterminismError(
                f"duplicate transition on ({src!r}, {event!r})"
            )
        row[event] = index[dst]
    return _canonicalize(alphabet, names, rows, index[initial])


def empty_generator(alphabet: Alphabet) -> Generator:
    """The generator of the empty language over ``alphabet``."""
    return Generator(alphabet, ("dead",), ({},), 0, 1,
                     recognizes_empty_language=True)


def universal_generator(alphabet: Alphabet) -> Generator:
    """One state, self-loops on every event: recognizes all of E*."""
    return Generator(alphabet, ("all",),
                     (dict.fromkeys(alphabet.sorted_events, 0),), 0, 1)


def from_words(alphabet: Alphabet, words: Iterable[Word | str]) -> Generator:
    """Prefix-tree generator of the prefix closure of a finite word set."""
    parsed = [parse_word(w) if isinstance(w, str) else tuple(w) for w in words]
    for word in parsed:
        for event in word:
            if event not in alphabet.events:
                raise ValidationError(f"event {event!r} not in the alphabet")
    labels = ["ε"]
    rows: list[dict[str, int]] = [{}]
    nodes: dict[Word, int] = {EPSILON: 0}
    for word in sorted(parsed):
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
    if g.recognizes_empty_language:
        for event in word:
            if event not in g.alphabet.events:
                raise ValidationError(f"event {event!r} not in the alphabet")
        return False
    return g.run(word) is not None


def trim_accessible(g: Generator) -> Generator:
    """Drop states unreachable from the initial state; language unchanged.
    Reachable states come first, so the numbering is kept."""
    if g.reachable_count == g.num_states:
        return g
    keep = g.reachable_count
    return Generator(g.alphabet, g.labels[:keep], g.rows[:keep], g.initial,
                     keep, g.recognizes_empty_language)


def reachable_events(g: Generator) -> frozenset[str]:
    """Events occurring on transitions of the accessible part of G."""
    if g.recognizes_empty_language:
        return frozenset()
    return frozenset().union(*g.rows[:g.reachable_count])


def shortest_words(g: Generator, count: int) -> list[Word]:
    """The first ``count`` words of L(G) in shortest-then-lexicographic
    order (used for display; the language may be infinite)."""
    if g.recognizes_empty_language or count <= 0:
        return []
    out: list[Word] = []
    queue: deque[tuple[int, Word]] = deque([(g.initial, EPSILON)])
    while queue and len(out) < count:
        state, word = queue.popleft()
        out.append(word)
        for event, target in g.rows[state].items():
            queue.append((target, word + (event,)))
    return out
