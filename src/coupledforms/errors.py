"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class ConfigError(ValidationError):
    """Config file is syntactically fine but semantically invalid."""


class DimensionError(ValidationError):
    """Array shapes are inconsistent with the requested operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed; the message carries diagnostics."""


class SolverError(NumericalError):
    """A linear solve inside a time step failed or lost accuracy."""
