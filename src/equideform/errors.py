"""Exception types shared across the package."""

import functools

import numpy as np


class EquideformError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EquideformError):
    """An input left its admissible domain (radius, weight, parameter)."""


class ShapeError(EquideformError):
    """An array argument has the wrong length or shape."""


class UnsupportedError(EquideformError):
    """The operation is not defined for this instance or grid kind."""


class SpentOperator(EquideformError):
    """A Jacobi operator was used after a reduction took its storage."""


class PreconditionError(EquideformError):
    """A documented precondition was violated by the caller."""


class NoConvergence(EquideformError):
    """An iteration failed to meet its tolerance within the allowed budget.

    When raised by branch continuation, ``partial_branch`` holds the records
    accepted before the failure, and ``log`` the causes of the attempts made
    after the last of them.
    """

    def __init__(self, message, partial_branch=None, log=None):
        super().__init__(message)
        self.partial_branch = partial_branch
        self.log = log


class IllConditioned(EquideformError):
    """A linear solve was abandoned because the matrix is too ill conditioned."""


class ConfigError(EquideformError):
    """A configuration file could not be parsed or validated."""


# the failures of a solve: exit 3 in the CLI, and in a branch the failures
# of one attempt, which halve the step instead of ending the branch
SOLVER_ERRORS = (NoConvergence, IllConditioned, PreconditionError, DomainError)


def linalg_guard(func):
    """Re-raise numpy's LinAlgError (scipy's is the same class) as IllConditioned."""
    @functools.wraps(func)
    def guarded(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"{func.__name__}: {exc}") from exc
    return guarded
