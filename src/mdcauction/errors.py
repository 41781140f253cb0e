"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user input. Always names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class InvariantViolation(RuntimeError):
    """Internal consistency failure: a mechanism bug, not bad input."""
