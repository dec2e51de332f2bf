"""Exception taxonomy shared by all modules.

The CLI maps ValidationError to exit code 2 and BudgetError to exit code 3.
"""


class FractalabError(Exception):
    """Base class for all package errors."""


class ValidationError(FractalabError, ValueError):
    """Bad inputs: violated preconditions, malformed configs, degenerate fits."""


class ValidityCapError(ValidationError):
    """Frequency above the discretization validity cap. Carries the cap value."""

    def __init__(self, message: str, cap: float):
        super().__init__(message)
        self.cap = cap


class BudgetError(FractalabError, RuntimeError):
    """Work-size guard tripped (pair counts, brute-force sizes, grid sizes),
    or a quadrature reached its node cap before its tolerance."""
