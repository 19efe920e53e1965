"""Error taxonomy shared by all specgap modules.

Every exception raised on purpose by this package derives from
:class:`SpecGapError`, so callers can catch one type at the CLI boundary.
A non-informative lower bound (value 0) is *not* an error and is reported
through the ``informative`` flag on the bound object instead.
"""


class SpecGapError(Exception):
    """Base class for all specgap errors."""


class InvalidInput(SpecGapError):
    """Arguments outside the documented domain of an operation."""


class DomainError(SpecGapError):
    """Evaluation requested outside a function's domain (e.g. r <= 0)."""


class NonIntegrable(SpecGapError):
    """An integrand was detected (by tail probing) not to be integrable."""


class HypothesisFailed(SpecGapError):
    """A structural hypothesis (positivity, monotonicity) failed on the
    diagnostic grid, so the requested bound does not apply; or the
    essential spectrum of the generator reaches zero, so it has no
    spectral gap to estimate."""


class DegenerateFunction(SpecGapError):
    """A test function with (numerically) zero variance was supplied."""


class DiscretizationError(SpecGapError):
    """The finite-volume assembly produced an unusable operator
    (e.g. a cell mass underflowed to zero)."""


class ConvergenceError(SpecGapError):
    """An eigenvalue computation or nonlinear solve failed to converge,
    or a spectral gap was not resolved: the estimate did not exceed its
    own error, though the essential spectrum starts above zero."""


class TruncationWarning(UserWarning):
    """Emitted when the computational window dominates the error of a
    returned eigenvalue: the truncation bracket of its last domain is
    wider than its mesh error.  The message names the case, the bracket
    and the domain."""
