"""Exception types shared across the package."""

__all__ = [
    "UmdoBenchError",
    "CapacityError",
    "ProblemFormatError",
    "ProblemVersionError",
    "SingularCouplingError",
    "NumericalError",
    "UndefinedMetricError",
    "InfeasibleReferenceError",
]


class UmdoBenchError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(UmdoBenchError):
    """Requested problem dimensions exceed the configured memory cap."""


class ProblemFormatError(UmdoBenchError):
    """A problem file cannot be parsed; carries the offending field path."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class ProblemVersionError(ProblemFormatError):
    """A problem file declares an unsupported format version."""


class SingularCouplingError(UmdoBenchError):
    """The coupling matrix is singular or numerically close to singular."""


class NumericalError(UmdoBenchError):
    """A computed quantity violates a numerical sanity bound."""


class UndefinedMetricError(UmdoBenchError):
    """A relative error metric is undefined because the reference norm is zero."""


class InfeasibleReferenceError(UmdoBenchError):
    """The reference QP admits no feasible point, so no benchmark can be scored."""
