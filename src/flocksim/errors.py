"""Exception types shared across the package."""


class FlockError(Exception):
    """Base class for all package errors."""


class DomainError(FlockError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``key`` names the offending field when there is one.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class SingularEvaluationError(FlockError, ArithmeticError):
    """The singular weight was evaluated at zero separation between
    particles of distinct clusters."""


class DivergenceError(FlockError, ArithmeticError):
    """Integration produced a non-finite state or derivative."""


class LocalizationError(FlockError, ArithmeticError):
    """Step size underflow while advancing or localizing an event."""


class InsufficientDataError(FlockError, ValueError):
    """Not enough samples to run an estimate."""


class ConfigError(FlockError, ValueError):
    """Configuration text failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(FlockError, ValueError):
    """A configuration value failed validation."""

    def __init__(self, message, key=None):
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key
