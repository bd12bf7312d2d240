"""Decidable checks for the observer property and output control
consistency (OCC) of a natural projection.  These gate the distributed
supremal-synthesis procedure in ``coordination``.  Both run on the kernels
of ``automata``: the observer check on one ``backward`` call and one
``search``, the OCC check on one ``intersect`` walk."""

from collections.abc import Iterable

from .automata import Generator, PropertyReport, backward, intersect, search
from .language import SubsetConstruction


def is_observer(g: Generator, events: Iterable[str]) -> PropertyReport:
    """Is the projection of L(G) onto ``events`` an L(G)-observer?

    For prefix-closed L it suffices to check one projected step at a time:
    whenever P(s)·e is in P(L) for some s in L, some hidden continuation
    u·e with u over hidden events must exist after s.  Decided on the
    reachable pairs (q, x) of a state of G and a subset of the projection's
    on-demand ``SubsetConstruction`` (left unfinished by a failing check):
    each target event e enabled at x must be matched from q by a path
    (E \\ E_k)* · e.  The counterexample encodes (s, e) as the word s·e.

    The states that match e are found first, for every target event at
    once: one pass over G's rows collects the states that enable each
    target event, and one ``backward`` call over the hidden edges grows
    each collection, building the predecessor lists once whatever the
    number of target events.  The walk then visits each reachable pair
    once.  On a chain of n states joined by hidden events both are linear
    in n."""
    target = g.alphabet.restrict(events).events
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")
    hidden = g.alphabet.events - target
    det = SubsetConstruction(g, target)

    rows = g.rows
    sources: dict[str, list[int]] = {event: [] for event in target}
    for q, row in enumerate(rows):
        for event in target.intersection(row):
            sources[event].append(q)
    reach = dict(zip(sources, backward(rows, hidden, *sources.values())))
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
                if q not in reach[event]:
                    out.append((event, None))
                elif event in row:
                    out.append((event, (row[event], det_row[event])))
        return out

    return PropertyReport.of(
        search((0, 0), successors)[2],
        "projected continuation is not realizable after this word",
        "observer property holds")


def is_occ(g: Generator, events: Iterable[str]) -> PropertyReport:
    """Is the projection of L(G) onto ``events`` output control consistent
    for L(G)?  The uncontrollable events are those of G's alphabet.

    A word violates OCC when the hidden segment since the last target event
    (or since the start of the word) contains a controllable event and the
    next target event is uncontrollable.  Decided by one ``intersect`` walk
    of a two-state monitor over G's alphabet against G: state 0 is clean
    and state 1 dirty; a controllable hidden event makes it dirty, an
    uncontrollable hidden event keeps its state, a target event makes it
    clean, and the dirty state refuses the uncontrollable target events.
    Hidden cycles need no unrolling, and the walk expands G's rows in
    order, so the counterexample is the shortest full violating word."""
    target = g.alphabet.restrict(events).events
    eu = g.alphabet.uncontrollable
    if g.recognizes_empty_language:
        return PropertyReport(True, detail="empty language")

    refused = target & eu
    monitor = [{event: int(event not in target
                           and (dirty or event not in eu))
                for event in g.alphabet.events
                if not (dirty and event in refused)}
               for dirty in (0, 1)]
    return PropertyReport.of(
        intersect(monitor, g.rows, refused)[2],
        "controllable hidden event precedes an uncontrollable projected event",
        "output control consistency holds")
