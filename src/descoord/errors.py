"""Exception types shared across the package."""


class DescoordError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DescoordError):
    """A generator or alphabet definition references unknown states/events
    or violates a structural invariant."""


class DeterminismError(ValidationError):
    """Two transitions leave the same state on the same event."""


class AlphabetMismatchError(DescoordError):
    """An operation that requires equal (or compatible) alphabets was given
    generators over different ones."""


class ControllabilityConflictError(DescoordError):
    """A shared event is controllable in one alphabet and uncontrollable in
    another.  There is one global uncontrollable event set; this is never
    silently overridden."""


class PreconditionError(DescoordError):
    """An operation's precondition failed.  Carries the failing check's
    report so callers can surface the counterexample."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ProjectError(DescoordError):
    """A project or generator file could not be parsed or resolved."""


class OracleBoundError(DescoordError):
    """A brute-force oracle bound admits more words than the oracle will
    enumerate."""


class SubsetLimitError(DescoordError):
    """A subset construction needs more subsets than
    ``language.MAX_SUBSETS``: its projection blows up."""
