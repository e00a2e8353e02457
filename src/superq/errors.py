"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """Raised when a truncation size is too small for the requested object."""


class TruncationError(ValueError):
    """Raised when an operation needs more Fock levels than the space provides.

    ``required_dim`` carries the smallest acceptable truncation size; for a
    displacement whose alpha has a part larger than dim it carries the
    floor |alpha|^2 + 6 |alpha| + 20, a lower bound found without the tail
    scan.
    """

    def __init__(self, message: str, required_dim: int):
        super().__init__(message)
        self.required_dim = required_dim


class UnsupportedLevelError(ValueError):
    """Raised for displaced number states beyond the supported levels 0 and 1."""


class SingularParameterError(ValueError):
    """Raised when a sphere label of zero would put a 1/zeta entry out of range."""


class NormalizationError(ValueError):
    """Raised when an operation requires a normalized state vector."""


class NumericalConsistencyError(ArithmeticError):
    """Raised when floating-point results violate a mathematical bound."""
