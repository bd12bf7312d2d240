"""Classical supervisory-control layer: controllability, the supremal
controllable sublanguage, supervisors and closed loops.

All languages are prefix-closed by construction, which makes the supC
computation a plain delete-and-retrim fixpoint on the product automaton:
no marking or nonblocking trimming is involved.
"""

from .automata import (
    Generator,
    PropertyReport,
    empty_generator,
    search,
    union_alphabets,
)
from .errors import AlphabetMismatchError, PreconditionError, ValidationError
from .language import sync_product


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

    def successors(pair):
        qk, ql = pair
        row_k = k.rows[qk]
        for event, tl in l.rows[ql].items():
            tk = row_k.get(event)
            if tk is not None:
                yield event, (tk, tl)
            elif event in eu:
                yield event, None

    word = search((k.initial, l.initial), successors)[2]
    if word is not None:
        return PropertyReport(
            False, word, "uncontrollable continuation leaves the specification")
    return PropertyReport(True, detail="controllability holds")


def sup_c(k: Generator, l: Generator, eu) -> Generator:
    """Supremal controllable sublanguage of K (∩ L) with respect to L and
    E_u, as the greatest fixpoint on the product of K and L: a product state
    is deleted where L enables an uncontrollable event that K does not, or
    where an uncontrollable event leads to a deleted state.  Deletion runs
    once, backwards along uncontrollable edges from the first violations,
    and the result is the part still reachable through surviving states.
    K ⊆ L is not required; the product construction intersects
    implicitly."""
    eu = _check_controllability_args(k, l, eu)
    alphabet = k.alphabet
    if k.recognizes_empty_language or l.recognizes_empty_language:
        return empty_generator(alphabet)

    def product(pair):
        qk, ql = pair
        row_l = l.rows[ql]
        for event, tk in k.rows[qk].items():
            tl = row_l.get(event)
            if tl is not None:
                yield event, (tk, tl)

    pairs, rows, _ = search((k.initial, l.initial), product)

    predecessors: dict[int, list[int]] = {}
    for node, row in enumerate(rows):
        for event, target in row.items():
            if event in eu:
                predecessors.setdefault(target, []).append(node)
    deleted = {
        node for node, (_, ql) in enumerate(pairs)
        if any(event in eu and event not in rows[node] for event in l.rows[ql])
    }
    worklist = list(deleted)
    while worklist:
        for node in predecessors.get(worklist.pop(), ()):
            if node not in deleted:
                deleted.add(node)
                worklist.append(node)
    if 0 in deleted:
        return empty_generator(alphabet)

    def surviving(node):
        for event, target in rows[node].items():
            if target not in deleted:
                yield event, target

    nodes, survivors, _ = search(0, surviving)
    return Generator(alphabet, tuple(pairs[node] for node in nodes),
                     survivors, 0)


def is_admissible(s: Generator, g: Generator, eu=None) -> PropertyReport:
    """A supervisor, realized as a generator over the plant's alphabet or a
    superset, is admissible for a plant when, after every word of
    L(S) ∥ L(G), it enables every uncontrollable event the plant enables."""
    merged = union_alphabets(s.alphabet, g.alphabet)
    eu = (g.alphabet.uncontrollable if eu is None
          else g.alphabet.restrict(eu).events)
    stray = eu - merged.uncontrollable
    if stray:
        raise ValidationError(
            f"events {sorted(stray)} are not uncontrollable plant events"
        )
    if s.recognizes_empty_language or g.recognizes_empty_language:
        return PropertyReport(True, detail="closed loop is empty")
    in_s = s.alphabet.events
    in_g = g.alphabet.events

    def successors(pair):
        qs, qg = pair
        row_s, row_g = s.rows[qs], g.rows[qg]
        for event in merged.sorted_events:
            ts = row_s.get(event) if event in in_s else qs
            tg = row_g.get(event) if event in in_g else qg
            if event in eu and tg is not None and event in in_s and ts is None:
                yield event, None
            elif ts is not None and tg is not None:
                yield event, (ts, tg)

    word = search((s.initial, g.initial), successors)[2]
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
