"""Exception types shared across the package.

The CLI maps ``ValueError`` subclasses (bad input, bad config) to exit
code 1 and ``ArithmeticError`` subclasses (numerical failure) to exit
code 2, so new error types should slot into one of those families.
"""

__all__ = [
    "BranchCutError",
    "CalibrationError",
    "ConfigError",
    "DefectiveMatrixError",
    "PauliParseError",
    "QuadratureError",
    "ResolutionError",
    "ResourceLimitError",
    "ToleranceError",
]


class PauliParseError(ValueError):
    """A Pauli label contains a character outside {I, X, Y, Z}."""


class ResourceLimitError(ValueError):
    """A requested qubit count exceeds the configured resource bound."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class BranchCutError(ArithmeticError):
    """An eigenvalue sits too close to the principal logarithm's branch cut."""


class DefectiveMatrixError(ArithmeticError):
    """A matrix has no reliable eigendecomposition: it is defective, or so
    nearly defective that its eigenbasis cannot reconstruct it."""


class CalibrationError(ArithmeticError):
    """The calibration relation could not be inverted on its bracket."""


class ResolutionError(ArithmeticError):
    """Roundoff would swamp the result: the input lies where the computation
    cannot resolve it (say, a duration so short that a channel log's
    roundoff, divided by tau, outgrows the weights read from it)."""


class ToleranceError(ArithmeticError):
    """A numerical crosscheck finished but some rows exceeded their tolerance
    (or failed to converge)."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature missed its tolerance within the evaluation budget.

    Carries the best estimate computed so far in ``best`` (a
    ``QuadratureResult``), or ``None`` if no refinement level completed.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
