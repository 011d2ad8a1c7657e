"""Exception types shared across the library."""


class ClikError(Exception):
    """Base class for all clik errors."""


class DomainError(ClikError):
    """A parameter value lies outside (or too close to the boundary of) the
    model's admissible region."""


class SingularMatrix(ClikError):
    """A matrix that must be inverted is singular to working tolerance.

    For a stack of matrices, ``rows`` holds the positions of the singular
    ones along the leading axis.
    """

    def __init__(self, message="", rows=None):
        super().__init__(message)
        self.rows = rows


class NotPositiveDefinite(ClikError):
    """A matrix required to be positive definite is not."""


class DimensionMismatch(ClikError):
    """Operands have incompatible dimensions."""


class NoRootInDomain(ClikError):
    """A score equation has no root inside the open parameter domain."""


class FailureBudgetExceeded(ClikError):
    """Too many replicates of a simulation study failed to converge."""


class InvalidArgument(ClikError, ValueError):
    """An argument is malformed or out of range: a component or spec that
    cannot be built, too few draws or batches, or an estimate that fails
    a consistency guard.  A ValueError too, so callers that catch that
    keep working."""


class UnknownParameter(ClikError, KeyError):
    """A parameter name that the point does not have.  A KeyError too, as
    a failed lookup by name."""


class UnsupportedSpec(ClikError, ValueError):
    """A spec cannot be fitted: it leaves no free parameter, or (checked
    before a study samples) it carries no information on one."""


class ConfigError(ClikError):
    """A simulation config file could not be parsed."""
