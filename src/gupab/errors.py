"""Exception types shared across the package."""


class GupabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GupabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularInputError(GupabError, ValueError):
    """Input hits a singular point of a formula (e.g. zero momentum, on-axis point)."""


class GeometryError(GupabError, ValueError):
    """Degenerate geometry: bad loops and paths into the coil."""


class FieldEvaluationError(GupabError, RuntimeError):
    """A field sample came back non-finite during quadrature.

    Carries the curve parameter of the offending sample in ``parameter``.
    """

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


class ConfigError(GupabError, ValueError):
    """A run configuration failed to parse or validate."""
