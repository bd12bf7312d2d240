"""Classical supervisory-control layer: controllability, the supremal
controllable sublanguage, supervisors and closed loops.

All languages are prefix-closed by construction, which makes the supC
computation a plain delete-and-retrim fixpoint on the product automaton:
no marking or nonblocking trimming is involved.
"""

from itertools import count

from .automata import (
    Generator,
    PropertyReport,
    empty_generator,
    intersect,
    search,
    union_alphabets,
)
from .errors import AlphabetMismatchError, PreconditionError, ValidationError
from .language import inverse_project, sync_product


def _check_controllability_args(k: Generator, l: Generator, eu) -> frozenset[str]:
    if k.alphabet != l.alphabet:
        raise AlphabetMismatchError(
            "controllability needs both languages over the same alphabet"
        )
    eu = k.alphabet.restrict(eu).events
    stray = eu - k.alphabet.uncontrollable
    if stray:
        raise ValidationError(
            f"events {sorted(stray)} are not uncontrollable in this alphabet"
        )
    return eu


def is_controllable(k: Generator, l: Generator, eu) -> PropertyReport:
    """Check K̄ E_u ∩ L ⊆ K̄ on the synchronized pair of K and L.

    Both languages are prefix-closed, so it suffices to walk their common
    words and look for an uncontrollable event that L enables and K does
    not.  The counterexample is the shortest violating word s·a."""
    eu = _check_controllability_args(k, l, eu)
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return PropertyReport(True, detail="vacuously controllable")

    word = intersect(k.initial, k.rows, l.initial, l.rows, eu)[2]
    if word is not None:
        return PropertyReport(
            False, word, "uncontrollable continuation leaves the specification")
    return PropertyReport(True, detail="controllability holds")


def sup_c(k: Generator, l: Generator, eu) -> Generator:
    """Supremal controllable sublanguage of K (∩ L) with respect to L and
    E_u, as the greatest fixpoint on the product of K and L: a product state
    is deleted where L enables an uncontrollable event that K does not, or
    where an uncontrollable event leads to a deleted state.

    One search builds the product and, expanding each node, notes whether
    it violates.  When none does, the product is the result.  Otherwise
    deletion runs once, backwards along uncontrollable edges from the
    violating nodes, and a second search keeps the part still reachable
    through surviving states, numbered in its own discovery order.  K ⊆ L
    is not required; the product construction intersects implicitly."""
    eu = _check_controllability_args(k, l, eu)
    alphabet = k.alphabet
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return empty_generator(alphabet)
    rows_k, rows_l = k.rows, l.rows
    # ``search`` expands each node once, in discovery order, so the i-th
    # call of ``product`` is on node i.
    expanded = count()
    violating: list[int] = []

    def product(pair):
        qk, ql = pair
        row_k = rows_k[qk]
        out = []
        violates = False
        for event, tl in rows_l[ql].items():
            if event in row_k:
                out.append((event, (row_k[event], tl)))
            elif event in eu:
                violates = True
        index = next(expanded)
        if violates:
            violating.append(index)
        return out

    pairs, rows, _ = search((k.initial, l.initial), product)
    if not violating:
        return Generator(alphabet, tuple(pairs), rows, 0)

    predecessors: dict[int, list[int]] = {}
    for node, row in enumerate(rows):
        for event, target in row.items():
            if event in eu:
                predecessors.setdefault(target, []).append(node)
    deleted = set(violating)
    worklist = violating
    while worklist:
        for node in predecessors.get(worklist.pop(), ()):
            if node not in deleted:
                deleted.add(node)
                worklist.append(node)
    if 0 in deleted:
        return empty_generator(alphabet)

    def surviving(node):
        return [(event, target) for event, target in rows[node].items()
                if target not in deleted]

    nodes, survivors, _ = search(0, surviving)
    return Generator(alphabet, tuple(pairs[node] for node in nodes),
                     survivors, 0)


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
    word = intersect(lifted_s.initial, lifted_s.rows, lifted_g.initial,
                     lifted_g.rows, g.alphabet.uncontrollable)[2]
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
