"""Decidable checks for the observer property and output control
consistency (OCC) of a natural projection.  These gate the distributed
supremal-synthesis procedure in ``coordination``."""

from collections import deque
from collections.abc import Iterable

from .automata import Generator, PropertyReport, search
from .language import project


def is_observer(g: Generator, events: Iterable[str]) -> PropertyReport:
    """Is the projection of L(G) onto ``events`` an L(G)-observer?

    For prefix-closed L it suffices to check one projected step at a time:
    whenever P(s)·e is in P(L) for some s in L, some hidden continuation
    u·e with u over hidden events must exist after s.  Decided on the
    synchronized pair of G and the determinized projection of G: from every
    reachable pair (q, x), each target event enabled at x must be matched
    from q by a path (E \\ E_k)* · e.  The counterexample encodes the pair
    (s, e) as the word s·e."""
    target = g.alphabet.restrict(events).events
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")
    hidden = g.alphabet.events - target
    det = project(g, target)

    # Per state of G: target events enabled somewhere in its hidden closure.
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

    word = search((g.initial, det.initial), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word,
            "projected continuation is not realizable after this word")
    return PropertyReport(True, detail="observer property holds")


def is_occ(g: Generator, events: Iterable[str], eu) -> PropertyReport:
    """Is the projection of L(G) onto ``events`` output control consistent
    for L(G)?

    A word violates OCC when the hidden segment since the last target event
    (or since the start of the word) contains a controllable event and the
    next target event is uncontrollable.  Tracked with one dirty bit per
    state, so hidden cycles need no unrolling; the counterexample is the
    shortest full violating word."""
    target = g.alphabet.restrict(events).events
    eu = g.alphabet.restrict(eu).events
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")

    def successors(node):
        q, dirty = node
        for event, nxt in g.rows[q].items():
            if event not in target:
                yield event, (nxt, dirty or event not in eu)
            elif dirty and event in eu:
                yield event, None
            else:
                yield event, (nxt, False)

    word = search((g.initial, False), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word,
            "controllable hidden event precedes an uncontrollable projected "
            "event")
    return PropertyReport(True, detail="output control consistency holds")
