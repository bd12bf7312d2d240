"""Definition-literal reference implementations on bounded word sets.

These exist for differential testing only: they evaluate the language
operations directly on explicit word sets, sharing no code with the
production constructions, and are deliberately naive.  Never use them on a
production path.
"""

from dataclasses import dataclass

from .automata import EPSILON, Generator, Word
from .errors import OracleBoundError

# The most words one oracle call builds; a bound that admits more fails
# with OracleBoundError instead of exhausting memory.  The largest word sets
# the tests build hold 103 702 words (tests/, a word-set product at bound 8)
# and 28 583 words (benchmarks/test_family.py, at bound 6).
MAX_WORDS = 1_500_000


def _too_many(n: int) -> OracleBoundError:
    return OracleBoundError(
        f"oracle bound {n} admits more than {MAX_WORDS} words; "
        f"use a smaller bound")


@dataclass(frozen=True)
class BoundedLanguage:
    """A prefix-closed set of words of length at most ``bound``."""

    words: frozenset[Word]
    bound: int


def bounded_language(g: Generator, n: int) -> BoundedLanguage:
    """Exactly {w in L(G) : |w| <= n}, by exhaustive graph walk.  Raises
    ``OracleBoundError`` when there are more than ``MAX_WORDS``."""
    if n < 0:
        raise ValueError("bound must be nonnegative")
    if g.recognizes_empty_language:
        return BoundedLanguage(frozenset(), n)
    # Count the words first, per length and end state, without listing
    # them: O(n * |transitions|).
    counts = {g.initial: 1}
    total = 1
    for _ in range(n):
        after: dict[int, int] = {}
        for state, count in counts.items():
            for target in g.rows[state].values():
                after[target] = after.get(target, 0) + count
        counts = after
        total += sum(counts.values())
        if total > MAX_WORDS:
            raise _too_many(n)
        if not counts:
            break
    words: set[Word] = set()
    frontier: list[tuple[int, Word]] = [(g.initial, EPSILON)]
    for _ in range(n + 1):
        nxt: list[tuple[int, Word]] = []
        for state, word in frontier:
            words.add(word)
            for event in g.alphabet.sorted_events:
                target = g.step(state, event)
                if target is not None:
                    nxt.append((target, word + (event,)))
        frontier = nxt
    return BoundedLanguage(frozenset(words), n)


def erase(word: Word, target_events) -> Word:
    """The natural projection of one word: keep target events, erase the
    rest (P(a) = a or ε per letter, extended by concatenation)."""
    return tuple(event for event in word if event in target_events)


def brute_product(ws1, e1, ws2, e2, n: int) -> frozenset[Word]:
    """Synchronous product on word sets: all words over E_1 ∪ E_2 of length
    at most n whose projections onto E_1 and E_2 lie in the operands.  Grown
    breadth-first; prefix closure of the operands makes the pruning exact.
    Raises ``OracleBoundError`` once it holds more than ``MAX_WORDS``."""
    e1 = frozenset(e1)
    e2 = frozenset(e2)
    ws1 = frozenset(map(tuple, ws1))
    ws2 = frozenset(map(tuple, ws2))
    alphabet = sorted(e1 | e2)

    def member(word: Word) -> bool:
        return erase(word, e1) in ws1 and erase(word, e2) in ws2

    out: set[Word] = set()
    frontier = [EPSILON] if member(EPSILON) else []
    for _ in range(n + 1):
        nxt = []
        for word in frontier:
            out.add(word)
            if len(word) == n:
                continue
            for event in alphabet:
                extended = word + (event,)
                if member(extended):
                    nxt.append(extended)
                    if len(out) + len(nxt) > MAX_WORDS:
                        raise _too_many(n)
        frontier = nxt
    return frozenset(out)


def bounded_projection(g: Generator, events, n: int) -> frozenset[Word]:
    """Exactly {P(w) : w in L(G), |P(w)| <= n}, for the natural projection
    P onto ``events``, whatever the length of w: a search over the pairs
    (state of G, projected word), where a hidden event keeps the word and a
    target event extends it up to length n.  Raises ``OracleBoundError``
    when it reaches more than ``MAX_WORDS`` pairs."""
    if n < 0:
        raise ValueError("bound must be nonnegative")
    if g.recognizes_empty_language:
        return frozenset()
    events = frozenset(events)
    seen = {(g.initial, EPSILON)}
    stack = list(seen)
    while stack:
        state, word = stack.pop()
        for event, target in g.rows[state].items():
            if event not in events:
                pair = (target, word)
            elif len(word) < n:
                pair = (target, word + (event,))
            else:
                continue
            if pair not in seen:
                seen.add(pair)
                if len(seen) > MAX_WORDS:
                    raise _too_many(n)
                stack.append(pair)
    return frozenset(word for _, word in seen)


def brute_sup_c(kw, lw, eu, n: int) -> frozenset[Word]:
    """Greatest fixpoint of controllability on bounded word sets: starting
    from K ∩ L, repeatedly delete any word with an uncontrollable
    continuation in L that has left the set, together with all its
    extensions.

    It brackets the exact supC on the words up to length n.  Given K's and
    L's words up to n, it misses only the violations beyond the bound, so
    supC ∩ E^{<=n} is a subset of its result.  Given L's words up to n + 1
    instead, it also deletes every word of length n at which L enables an
    uncontrollable event, and its result, a controllable sublanguage of K
    ∩ L, is a subset of supC."""
    kw = frozenset(map(tuple, kw))
    lw = frozenset(map(tuple, lw))
    eu = sorted(frozenset(eu))
    current = set(kw & lw)
    while True:
        doomed = {
            word
            for word in current
            for event in eu
            if word + (event,) in lw and word + (event,) not in current
        }
        if not doomed:
            return frozenset(current)
        current = {
            word
            for word in current
            if not any(word[: len(bad)] == bad for bad in doomed)
        }
