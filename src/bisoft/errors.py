"""Exception types shared across the package."""


class BisoftError(Exception):
    """Base class for all package errors."""


class ContextMismatchError(BisoftError):
    """Two values from different (universe, parameter set) contexts were mixed."""


class UnknownElementError(BisoftError, KeyError):
    """An element name is not part of the universe."""

    def __str__(self):
        return f"unknown element {self.args[0]!r}"


class UnknownParameterError(BisoftError, KeyError):
    """A parameter name is not part of the parameter set."""

    def __str__(self):
        return f"unknown parameter {self.args[0]!r}"


class InvalidTopologyError(BisoftError):
    """A soft set family violates the topology axioms.

    Carries the list of violations so callers can print witnesses.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"not a soft topology: {lines}")


class TooManyMembersError(BisoftError):
    """A topology has too many members to list (``topology.MEMBER_CAP``)."""


class FixtureError(BisoftError):
    """A fixture document failed to parse or resolve."""


class UnknownClaimError(BisoftError, KeyError):
    """A claim identifier is not registered; ``args`` are the identifier
    followed by the registered identifiers."""

    def __str__(self):
        claim_id, *known = self.args
        return f"unknown claim {claim_id!r}; known claims: " + ", ".join(known)
