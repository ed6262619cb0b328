"""Exception types shared across the toolkit.

Every error that crosses the CLI boundary maps to a machine-readable code,
which is simply the class name.
"""


class SmallDoublingError(Exception):
    """Base class for all toolkit errors."""


class InvalidTable(SmallDoublingError):
    """A raw multiplication table violates a group axiom, or a group spec is
    malformed.  An axiom's `witness` pins down the first offending tuple, e.g.
    ``("associativity", (a, b, c))`` or ``("closure", (a, b))``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SizeLimitExceeded(SmallDoublingError):
    """A group order or search space exceeds the configured cap."""


class GroupMismatch(SmallDoublingError):
    """Operands belong to groups of different order."""


class EmptySet(SmallDoublingError):
    """An operation that requires a nonempty set received an empty one."""


class NotASubgroup(SmallDoublingError):
    """A set that must be a subgroup fails the closure check."""


class NotAbelian(SmallDoublingError):
    """An operation restricted to abelian groups received a nonabelian one."""


class KOutOfRange(SmallDoublingError):
    """The expansion parameter K is outside the range the solver supports."""


class HypothesisFailed(SmallDoublingError):
    """A theorem checker's hypothesis does not hold; its message states the
    failed inequality with both sides evaluated."""


class TheoryViolation(SmallDoublingError):
    """An internal state that the theory proves impossible was observed.

    This is a loud bug-detection signal, never a valid outcome.
    """


class UsageError(SmallDoublingError):
    """Invalid command-line or file input."""
