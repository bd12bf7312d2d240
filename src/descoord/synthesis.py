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
    search,
    union_alphabets,
)
from .errors import PreconditionError
from .language import _require_same_alphabet, inverse_project, sync_product


def is_controllable(k: Generator, l: Generator) -> PropertyReport:
    """Check K̄ E_u ∩ L ⊆ K̄ on the synchronized pair of K and L, which must
    share one alphabet; E_u is the uncontrollable part of that alphabet.

    Both languages are prefix-closed, so it suffices to walk their common
    words and look for an uncontrollable event that L enables and K does
    not.  The counterexample is the shortest violating word s·a."""
    _require_same_alphabet(k, l, "controllability")
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return PropertyReport(True, detail="vacuously controllable")

    word = intersect(k.rows, l.rows, k.alphabet.uncontrollable)[2]
    if word is not None:
        return PropertyReport(
            False, word, "uncontrollable continuation leaves the specification")
    return PropertyReport(True, detail="controllability holds")


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
    reachable through surviving states, numbered in its own discovery
    order.  When the node that first discovered each surviving state
    survives too, that order is the product's, so the surviving rows are
    renumbered by rank; otherwise a second search walks the survivors.
    K ⊆ L is not required; the product intersects implicitly."""
    _require_same_alphabet(k, l, "sup_c")
    alphabet = k.alphabet
    eu = alphabet.uncontrollable
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return empty_generator(alphabet)
    lacks = [eu.difference(row) for row in k.rows]
    enabled = [eu.intersection(row) for row in l.rows]
    pairs, rows, _, parents = intersect(k.rows, l.rows)
    violating = [node for node, (qk, ql) in enumerate(pairs)
                 if not lacks[qk].isdisjoint(enabled[ql])]
    if not violating:
        return Generator(alphabet, tuple(pairs), rows)

    (deleted,) = backward(rows, eu, violating)
    if 0 in deleted:
        return empty_generator(alphabet)

    nodes = [node for node in range(len(rows)) if node not in deleted]
    if any(parents[node][0] in deleted for node in nodes):
        nodes, survivors, *_ = search(0, lambda node: [
            (event, target) for event, target in rows[node].items()
            if target not in deleted])
    else:
        rank = {node: index for index, node in enumerate(nodes)}
        survivors = [{event: rank[target]
                      for event, target in rows[node].items()
                      if target in rank} for node in nodes]
    return Generator(alphabet, tuple(pairs[node] for node in nodes),
                     survivors)


def is_admissible(s: Generator, g: Generator) -> PropertyReport:
    """A supervisor, realized as a generator over the plant's alphabet or a
    superset, is admissible for a plant when, after every word of
    L(S) ∥ L(G), it enables every uncontrollable event the plant enables.
    Decided on the intersection of both inverse images."""
    merged = union_alphabets(s.alphabet, g.alphabet)
    if s.recognizes_empty_language or g.recognizes_empty_language:
        return PropertyReport(True, detail="closed loop is empty")
    lifted_s = inverse_project(s, merged)
    lifted_g = inverse_project(g, merged)
    word = intersect(lifted_s.rows, lifted_g.rows,
                     g.alphabet.uncontrollable)[2]
    if word is not None:
        return PropertyReport(
            False, word, "supervisor disables an uncontrollable plant event")
    return PropertyReport(True, detail="supervisor is admissible")


def closed_loop(s: Generator, g: Generator) -> Generator:
    """L(S/G) = L(S) ∥ L(G) for an admissible supervisor; raises
    ``PreconditionError`` (with the admissibility report) otherwise."""
    report = is_admissible(s, g)
    if not report.holds:
        raise PreconditionError("supervisor is not admissible for this plant",
                                report)
    return sync_product(s, g)
