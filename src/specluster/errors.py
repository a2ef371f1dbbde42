"""Exception types shared across the package."""


class SpeclusterError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(SpeclusterError):
    """A line of an edge-list file could not be parsed."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class ConfigError(SpeclusterError):
    """A config file is malformed or inconsistent."""


class SizeCapError(SpeclusterError):
    """A dense n-by-n computation was requested above the size cap."""


class SingularLaplacianError(SpeclusterError):
    """Some regularized degree is zero, so the Laplacian is undefined."""


class DegenerateModelError(SpeclusterError):
    """The block model (or an estimate of it) is rank deficient."""


class EmptyClusterError(SpeclusterError):
    """An operation that needs non-empty clusters received an empty one."""


class InfeasibleConfigError(SpeclusterError):
    """An experiment configuration cannot be realized (probability > 1)."""


class ConvergenceError(SpeclusterError):
    """An iterative solver did not reach its tolerance.

    Carries the best available residuals so callers can decide whether
    the partial answer is usable.
    """

    def __init__(self, message, *, residuals=None):
        super().__init__(message)
        self.residuals = residuals
