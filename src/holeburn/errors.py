"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when a function receives an argument outside its domain."""


class ConfigurationError(ValueError):
    """Raised when a grid or scenario cannot support the requested computation."""


class NumericsError(RuntimeError):
    """Raised when a quadrature or solver fails to reach its tolerance.

    The achieved residual, when known, is stored in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
