"""Supervisory control synthesis of modular discrete-event systems with a
coordinator: generators and language operations, classical controllability
and supremal synthesis, and the conditional-controllability layer with its
distributed synthesis procedure."""

from .automata import (
    EPSILON,
    Alphabet,
    Generator,
    PropertyReport,
    Word,
    empty_generator,
    format_word,
    from_words,
    make_generator,
    membership,
    parse_word,
    reachable_events,
    shortest_words,
    union_alphabets,
    universal_generator,
)
from .coordination import (
    ConditionalControllabilityReport,
    SynthesisResult,
    check_optimality_conditions,
    conditionally_decomposable,
    conditionally_independent,
    default_coordinator,
    is_conditionally_controllable,
    observer_occ_reports,
    suggest_coordinator_events,
    sup_cc,
    synthesize_supervisors,
)
from .errors import (
    AlphabetMismatchError,
    ControllabilityConflictError,
    DescoordError,
    DeterminismError,
    OracleBoundError,
    PreconditionError,
    ProjectError,
    ValidationError,
)
from .language import (
    CoordinationScheme,
    inverse_project,
    language_equal,
    language_subset,
    project,
    sync_product,
    widen_alphabet,
)
from .structural import is_observer, is_occ
from .synthesis import (
    closed_loop,
    is_admissible,
    is_controllable,
    sup_c,
)

__all__ = [
    "EPSILON",
    "Alphabet",
    "AlphabetMismatchError",
    "ConditionalControllabilityReport",
    "ControllabilityConflictError",
    "CoordinationScheme",
    "DescoordError",
    "DeterminismError",
    "Generator",
    "OracleBoundError",
    "PreconditionError",
    "ProjectError",
    "PropertyReport",
    "SynthesisResult",
    "ValidationError",
    "Word",
    "check_optimality_conditions",
    "closed_loop",
    "conditionally_decomposable",
    "conditionally_independent",
    "default_coordinator",
    "empty_generator",
    "format_word",
    "from_words",
    "inverse_project",
    "is_admissible",
    "is_conditionally_controllable",
    "is_controllable",
    "is_observer",
    "is_occ",
    "language_equal",
    "language_subset",
    "make_generator",
    "membership",
    "observer_occ_reports",
    "parse_generator",
    "parse_word",
    "project",
    "reachable_events",
    "shortest_words",
    "suggest_coordinator_events",
    "sup_c",
    "sup_cc",
    "sync_product",
    "synthesize_supervisors",
    "union_alphabets",
    "universal_generator",
    "widen_alphabet",
]


def parse_generator(doc: dict,
                    origin: str = "<inline>") -> tuple[str, Generator]:
    """``descoord.cli.parse_generator``.  ``cli`` is imported on the first
    call, not with the package: ``python -m descoord.cli`` would otherwise
    run a module already in ``sys.modules``, and runpy warns."""
    from .cli import parse_generator

    return parse_generator(doc, origin)
