"""Semantic exception hierarchy; the CLI's exit code follows the class alone."""


class FairRegressionError(Exception):
    """Base class for all package errors; raised bare by a failed check (CLI exit 3)."""


class ParameterError(FairRegressionError):
    """Model parameters violate the constraint set or a precondition (CLI exit 2)."""


class DimensionError(FairRegressionError):
    """Shapes of inputs do not match the declared (d, M) (CLI exit 2)."""


class DegenerateDirectionError(FairRegressionError):
    """A group coefficient vector has zero norm; its direction is undefined (CLI exit 3)."""


class SingularMatrixError(FairRegressionError):
    """A Gram matrix is numerically singular (condition estimate > 1e12) (CLI exit 3)."""


class ConfigError(FairRegressionError):
    """A sweep / CLI configuration is invalid (CLI exit 2)."""
