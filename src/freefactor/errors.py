"""Exception hierarchy shared by the whole package."""


class DomainError(ValueError):
    """Base class for every input/precondition failure raised by this package."""


class WordSyntaxError(DomainError):
    """A word string (or raw letter sequence) could not be interpreted."""


class RankError(DomainError):
    """A rank is out of range, or two objects live over different ranks."""


class IdentityWordError(DomainError):
    """An operation that needs a nontrivial element received the identity."""


class NotCyclicallyReducedError(DomainError):
    """An operation requires a cyclically reduced word and got something else."""


class AxesEqualError(DomainError):
    """Two elements share an axis (they have a common power)."""


class PreconditionError(DomainError):
    """A documented operation precondition was violated by the caller."""


class InternalContradictionError(DomainError):
    """Observed data contradicts an invariant that is a theorem; signals a bug.

    The CLI exits with code 3 for it, not 1 as for other domain errors.
    """
