"""Exception types shared across the package."""


class HyperkError(Exception):
    """Base class for all package errors."""


class InvalidInputError(HyperkError, ValueError):
    """A precondition on user-supplied data was violated."""


class DegenerateResultError(HyperkError):
    """A construction collapsed to a different kind of object.

    Carries the degenerate object (e.g. the geodesic produced when a
    hypercycle construction is fed a point on the spanning geodesic).
    """

    def __init__(self, message, degenerate=None):
        super().__init__(message)
        self.degenerate = degenerate


class NoSolutionError(HyperkError):
    """A solve step has no real solution for the given configuration."""

