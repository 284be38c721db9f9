"""Exception types shared across the package."""

__all__ = ["BoxprecError", "ConfigError", "DomainError", "SolverError"]


class BoxprecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BoxprecError, ValueError):
    """Inputs lie outside the valid parameter domain."""


class SolverError(BoxprecError, RuntimeError):
    """An iterative solver failed to converge or to meet its residual contract."""


class ConfigError(BoxprecError, ValueError):
    """An experiment configuration failed validation."""
