"""Exception hierarchy shared by all renormlab modules."""

# Orbit coordinates beyond this size count as escaped (EscapeError).
ESCAPE_LIMIT = 1e10


class RenormLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RenormLabError):
    """Evaluation point lies outside the map's domain."""


class RangeError(RenormLabError):
    """An intermediate value left the domain it must stay inside."""


class SingularScalingError(RenormLabError):
    """A rescaling factor is zero (or numerically indistinguishable from it)."""


class NoConvergenceError(RenormLabError):
    """An iterative solve failed; carries the last iterate and residual."""

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class LinearizationError(RenormLabError):
    """The operator could not be linearized at the given point."""


class DimensionError(RenormLabError):
    """Dimension outside the supported range (n >= 2 for n-D maps)."""


class DiskError(RenormLabError):
    """Degenerate affine disk: linear part is (numerically) singular."""


class RefitError(RenormLabError):
    """Polynomial refit residual exceeded its threshold."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EscapeError(RenormLabError):
    """An orbit escaped to overflow scale; carries the escape step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class BracketError(RenormLabError):
    """A root bracket does not actually bracket a sign change."""


class WrongPeriodError(RenormLabError):
    """The orbit found has a smaller true period; carries that period."""

    def __init__(self, message, true_period=None):
        super().__init__(message)
        self.true_period = true_period


class InsufficientDataError(RenormLabError):
    """Too few data points for the requested extrapolation or ratio."""


class ResolutionError(RenormLabError):
    """Atom clusters overlap; more orbit points or a better parameter needed."""
