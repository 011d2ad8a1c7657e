"""Exception types shared across the library."""


class ClikError(Exception):
    """Base class for all clik errors."""


class DomainError(ClikError):
    """A parameter value lies outside (or too close to the boundary of) the
    model's admissible region."""


class SingularMatrix(ClikError):
    """A matrix that must be inverted is singular to working tolerance."""


class NotPositiveDefinite(ClikError):
    """A matrix required to be positive definite is not."""


class DimensionMismatch(ClikError):
    """Operands have incompatible dimensions."""


class NoRootInDomain(ClikError):
    """A score equation has no root inside the open parameter domain."""


class FailureBudgetExceeded(ClikError):
    """Too many replicates of a simulation study failed to converge."""


class UnsupportedSpec(ClikError, ValueError):
    """A spec has no registered fast path and more (or fewer) free
    parameters than the Newton solver handles."""


class ConfigError(ClikError):
    """A simulation config file could not be parsed."""
