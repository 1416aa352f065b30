"""Exception types shared across the toolkit.

Everything derives from ToolkitError so callers can catch broadly; the
value-flavored ones also subclass ValueError so generic handling keeps
working.
"""


class ToolkitError(Exception):
    pass


class DimensionMismatch(ToolkitError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ValueOutOfDomain(ToolkitError, ValueError):
    """A coordinate value lies outside {0, ..., kappa-1}."""


class IndexOutOfRange(ToolkitError, ValueError):
    """A basis index lies outside {1, ..., dim}."""


class ValueOutOfRange(ToolkitError, ValueError):
    """A scalar parameter violates its documented range."""


class Unstable(ToolkitError, ValueError):
    """Dynamics are not contractive (spectral radius >= 1)."""


class Infeasible(ToolkitError, ValueError):
    """No parameter in the admissible range satisfies the predicate."""


class PreconditionViolated(ToolkitError, ValueError):
    """A documented precondition does not hold for the given data."""


class StateNotInConstraint(ToolkitError, ValueError):
    """A queried state lies outside the admissible state set."""


class InitialStateViolatesConstraint(StateNotInConstraint):
    """The initial state lies outside the admissible state set."""


class NoCycle(ToolkitError, ValueError):
    """The restricted transition graph contains no directed cycle."""


class ScheduleViolation(ToolkitError, ValueError):
    """A replayed schedule leaves the admissible state or input sets."""


class InsufficientTrials(ToolkitError, ValueError):
    """Too few Monte-Carlo trials for the statistical check."""


class ParseError(ToolkitError, ValueError):
    """The scenario document is not well-formed."""


class ValidationError(ToolkitError, ValueError):
    """The scenario document is well-formed but violates invariants.

    Carries the full list of violations so callers can report all of
    them at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "%d validation error(s):\n  %s"
            % (len(self.violations), "\n  ".join(self.violations))
        )
