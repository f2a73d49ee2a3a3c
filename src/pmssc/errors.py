"""Exception types shared across the solver library."""


class PmsscError(Exception):
    """Base class for all library errors."""


class InvalidIndexError(PmsscError):
    """A set or element index is out of range or referenced twice."""


class InfiniteCostError(PmsscError):
    """An infinite-cost placement entered an assignment or schedule."""


class UncoveredElementError(PmsscError):
    def __init__(self, element):
        super().__init__("element %d is not covered by any scheduled set" % element)
        self.element = element


class EmptyAssignmentError(PmsscError):
    """Density is undefined for an assignment with no sets."""


class NoCoverageError(PmsscError):
    """No candidate set covers any remaining element."""


class UncoverableError(PmsscError):
    """The union of all sets does not cover the universe."""


class StalledOracleError(PmsscError):
    """A densest-subfamily oracle covered nothing although coverage is possible."""


class NoIterationKeptError(PmsscError):
    def __init__(self, attempts):
        super().__init__(
            "no rounding iteration passed the budget check in %d attempts" % attempts
        )
        self.attempts = attempts


class NumericalFailureError(PmsscError):
    """The LP solver's pivot tolerance cascade failed."""


class LimitsExceededError(PmsscError):
    """An exact solver refused an instance larger than its limits."""


class CyclicDagError(PmsscError):
    """The precedence graph contains a directed cycle."""


class NotClosedError(PmsscError):
    """A set family is missing a predecessor required by the precedence graph."""


class InvariantError(PmsscError):
    """A solver produced a result that breaks a bound its analysis relies on."""


class DomainError(PmsscError):
    """A numeric argument lies outside the function's domain."""


class ParseError(PmsscError):
    """Instance data is not syntactically valid."""


class ValidationError(PmsscError):
    def __init__(self, path, message):
        super().__init__("%s: %s" % (path, message))
        self.path = path
        self.message = message
