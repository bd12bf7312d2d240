"""Classical supervisory-control layer: controllability, the supremal
controllable sublanguage, supervisors and closed loops.

All languages are prefix-closed by construction, which makes the supC
computation a plain delete-and-retrim fixpoint on the product automaton:
no marking or nonblocking trimming is involved.
"""

from .automata import (
    Generator,
    PropertyReport,
    backward,
    empty_generator,
    intersect,
)
from .errors import PreconditionError
from .language import _product_walk, _require_same_alphabet


def is_controllable(k: Generator, l: Generator) -> PropertyReport:
    """Check K̄ E_u ∩ L ⊆ K̄ on the synchronized pair of K and L, which must
    share one alphabet; E_u is the uncontrollable part of that alphabet.

    Both languages are prefix-closed, so it suffices to walk their common
    words and look for an uncontrollable event that L enables and K does
    not.  The counterexample is the shortest violating word s·a."""
    _require_same_alphabet(k, l, "controllability")
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return PropertyReport(True, detail="vacuously controllable")

    return PropertyReport.of(
        intersect(k.rows, l.rows, k.alphabet.uncontrollable)[2],
        "uncontrollable continuation leaves the specification",
        "controllability holds")


def sup_c(k: Generator, l: Generator) -> Generator:
    """Supremal controllable sublanguage of K (∩ L) with respect to L and
    E_u, as the greatest fixpoint on the product of K and L: a product state
    is deleted where L enables an uncontrollable event that K does not, or
    where an uncontrollable event leads to a deleted state.  K and L must
    share one alphabet; E_u is the uncontrollable part of that alphabet.

    The product is one ``intersect`` walk of K against L.  A node (q_K, q_L)
    violates when an event of E_u missing from q_K's row is in q_L's row.
    When none does, the product is the result.  Otherwise the deleted
    states are those that reach a violating node along uncontrollable
    edges, one ``backward`` pass, and the result is the part still
    reachable through surviving states.  One breadth-first pass over the
    product rows numbers it: the pass skips deleted targets and numbers
    each survivor when it first reaches it, expanding survivors in that
    order and reading each row in its sorted event order, so it is the
    survivors' own search order.  K ⊆ L is not required; the product
    intersects implicitly.

    One product table is alive at a time.  The walk holds the product rows
    and the sets the scan reads, the events of E_u that a state of K lacks
    and those a state of L enables, one set per distinct value, shared by
    every state that has it.  The pair list lives only until the violation
    scan, which drops it with the sets.  ``backward`` adds its predecessor
    lists.  The survivor pass releases each product row as it reads it, so
    the survivor table replaces the product table row by row."""
    _require_same_alphabet(k, l, "sup_c")
    alphabet = k.alphabet
    eu = alphabet.uncontrollable
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return empty_generator(alphabet)
    shared = {}
    lacks = [shared.setdefault(s, s) for s in map(eu.difference, k.rows)]
    enabled = [shared.setdefault(s, s) for s in map(eu.intersection, l.rows)]
    pairs, rows, _ = intersect(k.rows, l.rows)
    violating = [node for node, (qk, ql) in enumerate(pairs)
                 if not lacks[qk].isdisjoint(enabled[ql])]
    del shared, lacks, enabled, pairs
    if not violating:
        return Generator(alphabet, rows)

    (deleted,) = backward(rows, eu, violating)
    if 0 in deleted:
        return empty_generator(alphabet)

    nodes, ids, survivors = [0], [None] * len(rows), []
    ids[0] = 0
    for node in nodes:
        survivors.append(row := {})
        for event, target in rows[node].items():
            if target not in deleted:
                if ids[target] is None:
                    ids[target] = len(nodes)
                    nodes.append(target)
                row[event] = ids[target]
        rows[node] = None
    return Generator(alphabet, survivors)


def is_admissible(s: Generator, g: Generator) -> PropertyReport:
    """A supervisor, realized as a generator over the plant's alphabet or a
    superset, is admissible for a plant when, after every word of
    L(S) ∥ L(G), it enables every uncontrollable event the plant enables.
    Decided on the intersection of both inverse images."""
    return _admissibility(s, g)[0]


def closed_loop(s: Generator, g: Generator) -> Generator:
    """L(S/G) = L(S) ∥ L(G) for an admissible supervisor; raises
    ``PreconditionError`` (with the admissibility report) otherwise."""
    report, merged, rows = _admissibility(s, g)
    if not report.holds:
        raise PreconditionError("supervisor is not admissible for this plant",
                                report)
    return Generator(merged, rows) if rows else empty_generator(merged)


def _admissibility(s: Generator, g: Generator):
    """``is_admissible``'s report, with the alphabet and rows of the walk
    that decides it.  A refused event only ends the walk, so when the
    report holds they are ``sync_product(s, g)``'s."""
    merged, rows, word = _product_walk(s, g, g.alphabet.uncontrollable)
    report = PropertyReport.of(
        word, "supervisor disables an uncontrollable plant event",
        "supervisor is admissible" if rows else "closed loop is empty")
    return report, merged, rows
