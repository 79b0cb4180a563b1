"""Exception hierarchy shared by every locgenus module.

Each class carries the ``exit_code`` the CLI returns for it; subclasses
inherit theirs. Parse errors exit 2, domain errors (violated
preconditions) 3, resource guards (factorization bound, enumeration size,
fingerprint search cap, p-adic precision cap, digits to print) 4.
"""


class LocgenusError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ParseError(LocgenusError):
    """Input text does not match the descriptor grammar."""

    exit_code = 2

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DomainError(LocgenusError):
    """A precondition on an operation's inputs was violated."""


class PrecisionError(DomainError):
    """A p-adic approximation carries too few digits to decide the question."""


class ResourceError(LocgenusError):
    """A configurable computation cap was exceeded."""

    exit_code = 4


class FactorBoundError(ResourceError):
    """An integer could not be factored within the trial-division bound."""


class EnumerationLimitError(ResourceError):
    """A requested enumeration would produce too many descriptors."""


class FingerprintCapError(ResourceError):
    """The fingerprint search hit its cap without stabilizing."""
