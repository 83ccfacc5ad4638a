"""Exception types shared across the package."""


class GdoError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GdoError):
    """A physical parameter is outside its admissible range."""


class DomainError(GdoError):
    """An evaluation point is not a finite number."""


class PoleError(GdoError):
    """Evaluation requested too close to a pole of the coupling function."""


class UnsupportedError(GdoError):
    """The operation is not defined for this interaction or model kind."""


class DimensionError(GdoError):
    """Array or matrix dimensions do not match."""


class LevelOutOfRangeError(GdoError):
    """The requested level index lies outside the bound-state range."""


class BranchError(GdoError):
    """Spinor coefficients requested outside the positive energy branch."""


class ConvergenceError(GdoError):
    """An iterative eigenvalue computation did not converge."""


class SingularPivotError(GdoError):
    """Tridiagonal elimination broke down at the requested shift."""


class ResolutionError(GdoError):
    """A numeric route cannot tell the requested levels apart on this grid."""


class NonFiniteError(GdoError):
    """A measurement came out NaN or infinite, so no check can pass on it."""


class ConfigError(GdoError):
    """A run configuration file is malformed or incomplete."""
