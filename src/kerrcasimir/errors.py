"""Exception types shared across the package."""


class KerrCasimirError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KerrCasimirError):
    """Raised for malformed configuration files or inconsistent options."""


class MaterialError(KerrCasimirError):
    """Raised for unphysical or ill-formed material response data."""


class UnconvergedError(KerrCasimirError):
    """Raised when an adaptive quadrature or frequency sum gives up before
    reaching the requested tolerance and the caller asked for strictness."""


class NearResonanceError(KerrCasimirError):
    """Raised when an operator inversion is requested too close to a
    resonance of the combined system, where the result would be garbage."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number
