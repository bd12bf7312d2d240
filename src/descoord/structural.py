"""Decidable checks for the observer property and output control
consistency (OCC) of a natural projection.  These gate the distributed
supremal-synthesis procedure in ``coordination``."""

from collections.abc import Iterable

from .automata import Generator, PropertyReport, backward, search
from .language import SubsetConstruction


def is_observer(g: Generator, events: Iterable[str]) -> PropertyReport:
    """Is the projection of L(G) onto ``events`` an L(G)-observer?

    For prefix-closed L it suffices to check one projected step at a time:
    whenever P(s)·e is in P(L) for some s in L, some hidden continuation
    u·e with u over hidden events must exist after s.  Decided on the
    reachable pairs (q, x) of a state of G and a subset of the projection's
    on-demand ``SubsetConstruction`` (left unfinished by a failing check):
    each target event enabled at x must be matched from q by a path
    (E \\ E_k)* · e.  The counterexample encodes (s, e) as the word s·e.

    The target events reachable through hidden events from each state of G
    are found first, by one ``backward`` pass over the hidden edges per
    target event, in time linear in the size of G; the walk then visits
    each reachable pair once.  On a chain of n states joined by hidden
    events both are linear in n."""
    target = g.alphabet.restrict(events).events
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")
    hidden = g.alphabet.events - target
    det = SubsetConstruction(g, target)

    # Per state of G: target events enabled somewhere in its hidden closure,
    # one backward pass along hidden edges per target event.
    matchable: list[set[str]] = [set() for _ in g.states]
    for event in target:
        for state in backward(g.rows, hidden,
                              [q for q, row in enumerate(g.rows)
                               if event in row]):
            matchable[state].add(event)

    rows = g.rows
    moves = [(event, event in hidden) for event in g.alphabet.sorted_events]

    def successors(pair):
        q, x = pair
        row, det_row = rows[q], det.row(x)
        out = []
        for event, is_hidden in moves:
            if is_hidden:
                if event in row:
                    out.append((event, (row[event], x)))
            elif event in det_row:
                if event not in matchable[q]:
                    out.append((event, None))
                    break
                if event in row:
                    out.append((event, (row[event], det_row[event])))
        return out

    word = search((g.initial, 0), successors)[2]
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

    rows = g.rows
    # Per event: (is a target event, is uncontrollable).
    kinds = {event: (event in target, event in eu)
             for event in g.alphabet.events}

    def successors(node):
        q, dirty = node
        out = []
        for event, nxt in rows[q].items():
            projected, uncontrollable = kinds[event]
            if not projected:
                out.append((event, (nxt, dirty or not uncontrollable)))
            elif dirty and uncontrollable:
                out.append((event, None))
                break
            else:
                out.append((event, (nxt, False)))
        return out

    word = search((g.initial, False), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word,
            "controllable hidden event precedes an uncontrollable projected "
            "event")
    return PropertyReport(True, detail="output control consistency holds")
