"""Coordination control: conditional independence, decomposability and
controllability checks, supervisor synthesis, and the distributed
computation of the supremal conditionally controllable sublanguage.

The architecture is fixed at two subsystems plus one coordinator.  The
specification lives over E = E_1 ∪ E_2 ∪ E_k and talks to the subsystems
only through its projections onto E_k, E_{1+k} and E_{2+k}.
"""

from dataclasses import dataclass

from .automata import (
    Alphabet,
    Generator,
    PropertyReport,
    reachable_events,
    search,
    union_alphabets,
)
from .errors import AlphabetMismatchError, PreconditionError, ValidationError
from .language import (
    CoordinationScheme,
    SubsetConstruction,
    inverse_project,
    language_subset,
    project,
    sync_product,
    widen_alphabet,
)
from .structural import is_observer, is_occ
from .synthesis import is_controllable, sup_c


@dataclass(frozen=True)
class ConditionalControllabilityReport:
    """The three-part conditional-controllability verdict."""

    condition_i: PropertyReport
    condition_iia: PropertyReport
    condition_iib: PropertyReport

    @property
    def holds(self) -> bool:
        return (self.condition_i.holds and self.condition_iia.holds
                and self.condition_iib.holds)

    def __bool__(self) -> bool:
        return self.holds

    def first_failure(self) -> PropertyReport | None:
        for report in (self.condition_i, self.condition_iia,
                       self.condition_iib):
            if not report.holds:
                return report
        return None


@dataclass(frozen=True)
class SynthesisResult:
    """Output of the distributed supremal synthesis: the coordinator part,
    the two subsystem parts, and their synchronous product.  ``certified``
    is False when the observer/OCC preconditions were overridden, in which
    case the composition is still well-defined but not certified supremal."""

    sup_k: Generator
    sup_1k: Generator
    sup_2k: Generator
    composed: Generator
    certified: bool = True


def _require(report: PropertyReport, what: str) -> None:
    if not report.holds:
        raise PreconditionError(what, report)


def _check_spec_alphabet(k: Generator, scheme: CoordinationScheme) -> None:
    if k.alphabet != scheme.full:
        raise AlphabetMismatchError(
            "the specification must be over E_1 ∪ E_2 ∪ E_k"
        )


def conditionally_independent(g1: Generator, g2: Generator,
                              gk: Generator) -> PropertyReport:
    """No simultaneous move of both subsystems without the coordinator:
    every event reachable in G_1 ∥ G_2 and in both G_1 and G_2 must be
    reachable in G_k."""
    shared = (reachable_events(sync_product(g1, g2))
              & reachable_events(g1) & reachable_events(g2))
    missing = shared - reachable_events(gk)
    if missing:
        return PropertyReport(
            False, (min(missing),),
            "shared reachable event does not occur in the coordinator",
        )
    return PropertyReport(True, detail="subsystems are conditionally "
                                       "independent given the coordinator")


def _projected_parts(k: Generator, scheme: CoordinationScheme):
    """The subset constructions of P_k(K), P_{1+k}(K) and P_{2+k}(K):
    made once per synthesis and shared by every step on its path, so a
    projection built after the decomposability walk, which walks the last
    two, reuses the steps the walk took."""
    return tuple(SubsetConstruction(k, target.events)
                 for target in (scheme.ek, scheme.e1k, scheme.e2k))


def _generators(parts) -> tuple[Generator, ...]:
    return tuple(part.generator() for part in parts)


def conditionally_decomposable(k: Generator,
                               scheme: CoordinationScheme) -> PropertyReport:
    """Does K equal P_{1+k}(K) ∥ P_{2+k}(K) ∥ P_k(K)?  K is always
    contained in that product, so a counterexample is a word of the
    product outside K.  The factor P_k(K) is implied and not built: as
    E_k ⊆ E_{1+k}, P_{1+k}(w) = P_{1+k}(s) gives P_k(w) = P_k(s)."""
    _check_spec_alphabet(k, scheme)
    return _decomposable(k, SubsetConstruction(k, scheme.e1k.events),
                         SubsetConstruction(k, scheme.e2k.events))


def _decomposable(k: Generator, p1k, p2k) -> PropertyReport:
    """The inclusion P_{1+k}(K) ∥ P_{2+k}(K) ⊆ K, decided by one
    breadth-first walk over nodes (x_{1+k}, x_{2+k}, q_K) that builds no
    product: events are taken in sorted order, each subset construction
    moves on its own events, and where both move but K's row lacks the
    event, the walk ends on that violation.  It is the shortest word of
    the product outside K, ties broken lexicographically, as on the built
    product: both walks are breadth-first in sorted event order over nodes
    the word determines.  An empty K holds: its one dead state has no
    step, so neither subset construction moves."""
    moves = [(event, event in p1k.alphabet.events,
              event in p2k.alphabet.events)
             for event in k.alphabet.sorted_events]
    rows = k.rows

    def successors(node):
        x1, x2, q = node
        row1, row2 = p1k.row(x1), p2k.row(x2)
        row = rows[q]
        out = []
        for event, in1, in2 in moves:
            if in1:
                if event not in row1:
                    continue
                t1 = row1[event]
            else:
                t1 = x1
            if in2:
                if event not in row2:
                    continue
                t2 = row2[event]
            else:
                t2 = x2
            if event not in row:
                out.append((event, None))
                break
            out.append((event, (t1, t2, row[event])))
        return out

    word = search((0, 0, 0), successors)[2]
    if word is None:
        return PropertyReport(True, detail="specification is conditionally "
                                           "decomposable")
    return PropertyReport(
        False, word,
        "word is in the product of the projections but not in the "
        "specification",
    )


def _require_spec_within_plant(k: Generator, g1: Generator, g2: Generator,
                               gk: Generator) -> None:
    plant = sync_product(sync_product(g1, g2), gk)
    _require(language_subset(k, plant),
             "specification is not contained in the plant language")


def is_conditionally_controllable(
    k: Generator,
    g1: Generator,
    g2: Generator,
    gk: Generator,
) -> ConditionalControllabilityReport:
    """Evaluate the three conditional-controllability conditions:

    (i)    P_k(K) is controllable w.r.t. L(G_k) and E_{k,u};
    (ii.a) P_{1+k}(K) is controllable w.r.t.
           L(G_1) ∥ P_k(K) ∥ P_k^{2+k}(L(G_2) ∥ P_k(K)) and E_{1+k,u};
    (ii.b) symmetrically for subsystem 2.

    Requires K ⊆ L(G_1 ∥ G_2 ∥ G_k), checked first (``PreconditionError``
    with the witness word), for under it the third factor of (ii.a) is
    P_k(K): each P_k(s), s in K, has the preimage P_{2+k}(s) in
    L(G_2) ∥ P_k(K).  So side i is checked against L(G_i) ∥ P_k(K)."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    _check_spec_alphabet(k, scheme)
    _require_spec_within_plant(k, g1, g2, gk)
    return _conditionally_controllable(
        g1, g2, gk, _generators(_projected_parts(k, scheme)))


def _conditionally_controllable(
    g1: Generator,
    g2: Generator,
    gk: Generator,
    parts,
) -> ConditionalControllabilityReport:
    """The three conditions on ``parts``, the generators of P_k(K),
    P_{1+k}(K) and P_{2+k}(K).  Each part is checked against a plant over
    its own alphabet, E_k or E_{i+k}, whose uncontrollable part is E_{k,u}
    or E_{i+k,u}."""
    pk, p1k, p2k = parts
    cond_i = is_controllable(pk, gk)
    # Each side's own plant, its whole ambient under K ⊆ L.
    cond_iia = is_controllable(p1k, sync_product(g1, pk))
    cond_iib = is_controllable(p2k, sync_product(g2, pk))
    return ConditionalControllabilityReport(cond_i, cond_iia, cond_iib)


def synthesize_supervisors(
    k: Generator,
    g1: Generator,
    g2: Generator,
    gk: Generator,
) -> tuple[Generator, Generator, Generator]:
    """Supervisors (S_k, S_1, S_2), each realized as a generator: the
    projections P_k(K), P_{1+k}(K) and P_{2+k}(K).

    Requires conditional independence, conditional decomposability and
    conditional controllability; under those, the closed loops compose
    exactly to K (the coordinator loop is P_k(K), and each local loop over
    G_i ∥ (S_k/G_k) is P_{i+k}(K))."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    _require(conditionally_independent(g1, g2, gk),
             "subsystems are not conditionally independent given the "
             "coordinator")
    _check_spec_alphabet(k, scheme)
    parts = _projected_parts(k, scheme)
    _require(_decomposable(k, *parts[1:]),
             "specification is not conditionally decomposable")
    _require_spec_within_plant(k, g1, g2, gk)
    supervisors = _generators(parts)
    report = _conditionally_controllable(g1, g2, gk, supervisors)
    if not report.holds:
        raise PreconditionError("specification is not conditionally "
                                "controllable", report.first_failure())
    return supervisors


def observer_occ_reports(g1: Generator, g2: Generator, ek: Alphabet,
                         checks=("observer", "occ")):
    """The distributed-synthesis preconditions: for i = 1, 2 the projection
    from E_{i+k} = E_i ∪ E_k to E_k must be an observer for, and output
    control consistent for, the inverse image of L(G_i) in E_{i+k}*, which
    is built once for both checks.  ``checks`` names the checks to run,
    ``"observer"`` and/or ``"occ"``; another name is a ``ValidationError``.
    Returns ``(name, report)`` pairs in the order observer 1, OCC 1,
    observer 2, OCC 2, less the checks not run."""
    unknown = set(checks) - {"observer", "occ"}
    if unknown:
        raise ValidationError(f"unknown checks: {sorted(unknown)}")
    reports = []
    for i, g in enumerate((g1, g2), 1):
        lifted = inverse_project(g, union_alphabets(g.alphabet, ek))
        if "observer" in checks:
            reports.append((f"observer(subsystem {i})",
                            is_observer(lifted, ek.events)))
        if "occ" in checks:
            reports.append((f"occ(subsystem {i})",
                            is_occ(lifted, ek.events)))
    return reports


def sup_cc(
    k: Generator,
    g1: Generator,
    g2: Generator,
    gk: Generator,
    force: bool = False,
) -> SynthesisResult:
    """Distributed computation of the supremal conditionally controllable
    sublanguage of K ∩ L, where L = L(G_1) ∥ L(G_2) ∥ L(G_k):

        supC_k     = supC(P_k(K) ∥ P_k(L_1 ∥ L_2) ∥ L_k,  L_k,          E_{k,u})
        supC_{i+k} = supC(P_{i+k}(K) ∥ L_i,               L_i ∥ supC_k, E_{i+k,u})

    each computed without its last factor, a factor of the language supC is
    taken against whose state fixes it, so supC(M ∥ F, L) = supC(M, L) row
    for row.  And composed = supC_k ∥ supC_{1+k} ∥ supC_{2+k} is built as
    supC_{1+k} ∥ supC_{2+k} (each supC_{i+k} already tracks supC_k, so
    the first factor adds no state and restricts no word).  Requires K
    conditionally decomposable and the observer/OCC preconditions; with
    ``force`` the latter are skipped and the result is marked uncertified
    (the composition is still controllable w.r.t. L, only supremality is at
    stake)."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    _check_spec_alphabet(k, scheme)
    parts = _projected_parts(k, scheme)
    _require(_decomposable(k, *parts[1:]),
             "specification is not conditionally decomposable")
    reports = observer_occ_reports(g1, g2, scheme.ek)
    if not force:
        for name, report in reports:
            _require(report, f"{name} precondition failed")
    certified = all(report.holds for _, report in reports)
    pk, p1k, p2k = _generators(parts)

    full = scheme.full
    # L_1 ∥ L_2 lives over the ambient alphabet E, so events private to the
    # coordinator interleave freely before the projection onto E_k.
    ambient_12 = inverse_project(sync_product(g1, g2), full)
    pk_plant = project(ambient_12, scheme.ek.events)
    sup_k = sup_c(sync_product(pk, pk_plant), gk)
    sup_1k, sup_2k = (sup_c(pik, sync_product(g, sup_k))
                      for pik, g in ((p1k, g1), (p2k, g2)))
    # supC_k ∥ supC_{1+k} ∥ supC_{2+k} without its first factor: each
    # supC_{i+k} is computed against L_i ∥ supC_k, so its state (a pair
    # whose second part is a state of L_i ∥ supC_k) fixes the state of
    # supC_k, and every E_k event it takes supC_k can take too.  So
    # supC_k ∥ supC_{1+k} is supC_{1+k} itself, state for state and in the
    # same discovery order, and the composition below has the same rows
    # and the same labels as the three-way one.
    composed = sync_product(sup_1k, sup_2k)
    return SynthesisResult(sup_k, sup_1k, sup_2k, composed, certified)


def check_optimality_conditions(g1: Generator, g2: Generator,
                                gk: Generator) -> PropertyReport:
    """Conditions under which the distributed result coincides with the
    global supremal controllable sublanguage: L_k ⊆ P_k(L_i) for i = 1, 2
    (with L_i taken over the ambient alphabet E_{i+k}, i.e. compared against
    P_k^{i+k}((P_i^{i+k})^{-1}(L_i))), and the projection onto E_{i+k} is
    output control consistent for P_{i+k}^{-1}(L_i ∥ L_k)."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    full = scheme.full
    for i, (g, eik) in enumerate(((g1, scheme.e1k), (g2, scheme.e2k)), 1):
        covered = project(inverse_project(g, eik), scheme.ek.events)
        inclusion = language_subset(gk, covered)
        if not inclusion.holds:
            return PropertyReport(
                False, inclusion.counterexample,
                f"coordinator word cannot be produced by subsystem {i}",
            )
        lifted = inverse_project(sync_product(g, gk), full)
        occ = is_occ(lifted, eik.events)
        if not occ.holds:
            return PropertyReport(
                False, occ.counterexample,
                f"projection keeping subsystem {i} and coordinator events "
                f"is not output control consistent",
            )
    return PropertyReport(True, detail="optimality conditions hold")


def default_coordinator(g1: Generator, g2: Generator,
                        ek: Alphabet) -> Generator:
    """Coordinator over E_k that does not restrict the plant:
    L_k = L(P^1_{1∩k}(G_1) ∥ P^2_{2∩k}(G_2)), so
    L(G_1 ∥ G_2) ∥ L_k = L(G_1 ∥ G_2).  Requires every reachable shared
    event of the subsystems to belong to E_k; otherwise raises
    ``PreconditionError``, its report's witness the least event outside."""
    union_alphabets(g1.alphabet, g2.alphabet, ek)
    shared = reachable_events(g1) & reachable_events(g2)
    outside = shared - ek.events
    if outside:
        raise PreconditionError(
            f"shared events {sorted(outside)} are outside the coordinator "
            f"event set",
            PropertyReport(False, (min(outside),),
                           "reachable shared event is outside E_k"))
    p1 = project(g1, g1.alphabet.events & ek.events)
    p2 = project(g2, g2.alphabet.events & ek.events)
    return widen_alphabet(sync_product(p1, p2), ek)


def suggest_coordinator_events(
    k: Generator, g1: Generator, g2: Generator,
) -> tuple[Alphabet, PropertyReport]:
    """Grow a coordinator event set until the specification becomes
    conditionally decomposable and the observer/OCC preconditions of the
    distributed synthesis hold.

    Starts from the reachable shared events (plus any specification event
    outside both subsystems, which can only live in E_k), then adds the
    remaining events smallest-first, returning the first success; falls
    back to the full alphabet when nothing smaller works.  Returns the
    event set and the conditional-decomposability report of K for it, so
    that a caller need not decide it again."""
    pool = union_alphabets(g1.alphabet, g2.alphabet, k.alphabet)
    if not (g1.alphabet.events | g2.alphabet.events) <= k.alphabet.events:
        raise AlphabetMismatchError(
            "the specification must cover both subsystem alphabets"
        )
    current = set(reachable_events(g1) & reachable_events(g2))
    current |= k.alphabet.events - g1.alphabet.events - g2.alphabet.events
    remaining = sorted(pool.events - current)

    while True:
        ek = pool.restrict(current)
        decomposable = conditionally_decomposable(
            k, CoordinationScheme(g1.alphabet, g2.alphabet, ek))
        if not remaining or (decomposable.holds and all(
                report.holds
                for _, report in observer_occ_reports(g1, g2, ek))):
            return ek, decomposable
        current.add(remaining.pop(0))
