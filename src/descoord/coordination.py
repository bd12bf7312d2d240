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
    union_alphabets,
)
from .errors import AlphabetMismatchError, PreconditionError
from .language import (
    CoordinationScheme,
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
    """P_k(K), P_{1+k}(K) and P_{2+k}(K): computed once per public entry
    point and shared by every check and synthesis step on its path."""
    return tuple(project(k, target.events)
                 for target in (scheme.ek, scheme.e1k, scheme.e2k))


def conditionally_decomposable(k: Generator,
                               scheme: CoordinationScheme) -> PropertyReport:
    """Does K equal the synchronous product of its projections onto
    E_{1+k}, E_{2+k} and E_k?  K is always contained in that product, so a
    counterexample is a word of the product outside K."""
    _check_spec_alphabet(k, scheme)
    return _decomposable(k, _projected_parts(k, scheme))


def _decomposable(k: Generator, parts) -> PropertyReport:
    pk, p1k, p2k = parts
    composed = sync_product(sync_product(p1k, p2k), pk)
    inclusion = language_subset(composed, k)
    if inclusion.holds:
        return PropertyReport(True, detail="specification is conditionally "
                                           "decomposable")
    return PropertyReport(
        False, inclusion.counterexample,
        "word is in the product of the projections but not in the "
        "specification",
    )


def _require_spec_within_plant(k: Generator, g1: Generator, g2: Generator,
                               gk: Generator) -> None:
    plant = sync_product(sync_product(g1, g2), gk)
    inclusion = language_subset(k, plant)
    if not inclusion.holds:
        raise PreconditionError(
            "specification is not contained in the plant language", inclusion
        )


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

    Requires K ⊆ L(G_1 ∥ G_2 ∥ G_k); a violation raises
    ``PreconditionError`` carrying the witness word."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    _check_spec_alphabet(k, scheme)
    _require_spec_within_plant(k, g1, g2, gk)
    return _conditionally_controllable(g1, g2, gk, scheme,
                                       _projected_parts(k, scheme))


def _conditionally_controllable(
    g1: Generator,
    g2: Generator,
    gk: Generator,
    scheme: CoordinationScheme,
    parts,
) -> ConditionalControllabilityReport:
    pk, p1k, p2k = parts
    cond_i = is_controllable(pk, gk, scheme.ek.uncontrollable)

    def side_condition(own: Generator, own_plant: Generator,
                       other_plant: Generator,
                       own_alpha: Alphabet) -> PropertyReport:
        other = project(sync_product(other_plant, pk), scheme.ek.events)
        ambient = sync_product(sync_product(own_plant, pk), other)
        return is_controllable(own, ambient, own_alpha.uncontrollable)

    cond_iia = side_condition(p1k, g1, g2, scheme.e1k)
    cond_iib = side_condition(p2k, g2, g1, scheme.e2k)
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
    independent = conditionally_independent(g1, g2, gk)
    if not independent.holds:
        raise PreconditionError("subsystems are not conditionally "
                                "independent given the coordinator",
                                independent)
    _check_spec_alphabet(k, scheme)
    parts = _projected_parts(k, scheme)
    decomposable = _decomposable(k, parts)
    if not decomposable.holds:
        raise PreconditionError("specification is not conditionally "
                                "decomposable", decomposable)
    _require_spec_within_plant(k, g1, g2, gk)
    report = _conditionally_controllable(g1, g2, gk, scheme, parts)
    if not report.holds:
        raise PreconditionError("specification is not conditionally "
                                "controllable", report.first_failure())
    return parts


def _lifted_subsystems(g1: Generator, g2: Generator, ek: Alphabet):
    """For i = 1, 2: i and the inverse image of L(G_i) in E_{i+k}*."""
    return [(i, inverse_project(g, union_alphabets(g.alphabet, ek)))
            for i, g in enumerate((g1, g2), 1)]


def _observer(i: int, lifted: Generator, ek: Alphabet):
    return f"observer(subsystem {i})", is_observer(lifted, ek.events)


def _occ(i: int, lifted: Generator, ek: Alphabet):
    return (f"occ(subsystem {i})",
            is_occ(lifted, ek.events, lifted.alphabet.uncontrollable))


def observer_reports(g1: Generator, g2: Generator, ek: Alphabet):
    """The observer halves of ``observer_occ_reports``."""
    return [_observer(i, lifted, ek)
            for i, lifted in _lifted_subsystems(g1, g2, ek)]


def occ_reports(g1: Generator, g2: Generator, ek: Alphabet):
    """The OCC halves of ``observer_occ_reports``."""
    return [_occ(i, lifted, ek)
            for i, lifted in _lifted_subsystems(g1, g2, ek)]


def observer_occ_reports(g1: Generator, g2: Generator, ek: Alphabet):
    """The distributed-synthesis preconditions: for i = 1, 2 the projection
    from E_{i+k} = E_i ∪ E_k to E_k must be an observer for, and output
    control consistent for, the inverse image of L(G_i) in E_{i+k}*, which
    is built once for both checks.  Returns ``(name, report)`` pairs in the
    order observer 1, OCC 1, observer 2, OCC 2."""
    return [pair for i, lifted in _lifted_subsystems(g1, g2, ek)
            for pair in (_observer(i, lifted, ek), _occ(i, lifted, ek))]


def _certify_preconditions(k: Generator, parts, g1: Generator,
                           g2: Generator, ek: Alphabet, force: bool) -> bool:
    decomposable = _decomposable(k, parts)
    if not decomposable.holds:
        raise PreconditionError("specification is not conditionally "
                                "decomposable", decomposable)
    certified = True
    for name, report in observer_occ_reports(g1, g2, ek):
        if not report.holds:
            if not force:
                raise PreconditionError(f"{name} precondition failed", report)
            certified = False
    return certified


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

    and composed = supC_k ∥ supC_{1+k} ∥ supC_{2+k}.  Requires K
    conditionally decomposable and the observer/OCC preconditions; with
    ``force`` the latter are skipped and the result is marked uncertified
    (the composition is still controllable w.r.t. L, only supremality is at
    stake)."""
    scheme = CoordinationScheme(g1.alphabet, g2.alphabet, gk.alphabet)
    _check_spec_alphabet(k, scheme)
    parts = _projected_parts(k, scheme)
    certified = _certify_preconditions(k, parts, g1, g2, scheme.ek, force)
    pk, p1k, p2k = parts

    full = scheme.full
    # L_1 ∥ L_2 lives over the ambient alphabet E, so events private to the
    # coordinator interleave freely before the projection onto E_k.
    ambient_12 = inverse_project(sync_product(g1, g2), full)
    pk_plant = project(ambient_12, scheme.ek.events)
    sup_k = sup_c(sync_product(sync_product(pk, pk_plant), gk), gk,
                  scheme.ek.uncontrollable)

    sup_1k, sup_2k = (
        sup_c(sync_product(pik, g), sync_product(g, sup_k),
              eik.uncontrollable)
        for pik, g, eik in ((p1k, g1, scheme.e1k), (p2k, g2, scheme.e2k))
    )
    composed = sync_product(sync_product(sup_k, sup_1k), sup_2k)
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
        occ = is_occ(lifted, eik.events, full.uncontrollable)
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
    event of the subsystems to belong to E_k."""
    union_alphabets(g1.alphabet, g2.alphabet, ek)
    shared = reachable_events(g1) & reachable_events(g2)
    outside = shared - ek.events
    if outside:
        raise PreconditionError(
            f"shared events {sorted(outside)} are outside the coordinator "
            f"event set"
        )
    p1 = project(g1, g1.alphabet.events & ek.events)
    p2 = project(g2, g2.alphabet.events & ek.events)
    return widen_alphabet(sync_product(p1, p2), ek)


def suggest_coordinator_events(k: Generator, g1: Generator,
                               g2: Generator) -> Alphabet:
    """Grow a coordinator event set until the specification becomes
    conditionally decomposable and the observer/OCC preconditions of the
    distributed synthesis hold.

    Starts from the reachable shared events (plus any specification event
    outside both subsystems, which can only live in E_k), then adds the
    remaining events smallest-first, returning the first success; falls
    back to the full alphabet when nothing smaller works."""
    pool = union_alphabets(g1.alphabet, g2.alphabet, k.alphabet)
    if not (g1.alphabet.events | g2.alphabet.events) <= k.alphabet.events:
        raise AlphabetMismatchError(
            "the specification must cover both subsystem alphabets"
        )
    current = set(reachable_events(g1) & reachable_events(g2))
    current |= k.alphabet.events - g1.alphabet.events - g2.alphabet.events
    remaining = sorted(pool.events - current)

    def passes(events: set[str]) -> bool:
        ek = pool.restrict(events)
        scheme = CoordinationScheme(g1.alphabet, g2.alphabet, ek)
        if not conditionally_decomposable(k, scheme).holds:
            return False
        return all(report.holds
                   for _, report in observer_occ_reports(g1, g2, ek))

    while True:
        if passes(current):
            return pool.restrict(current)
        if not remaining:
            return pool
        current.add(remaining.pop(0))
