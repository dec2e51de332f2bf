"""Exception taxonomy shared by all modules, and the one work-size guard.

The CLI maps ValidationError to exit code 2 and BudgetError to exit code 3.
Every BudgetError comes from over_budget, so every refusal reads "<what>,
past its <cap> budget; <remedy>", with the remedy named by the caller.
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
    """Work-size guard tripped (pair counts, brute-force sizes, grid sizes,
    circle samples, quadrature nodes), before the work it guards."""


def over_budget(what: str, need, cap: int, remedy: str) -> None:
    """BudgetError "<what>, past its <cap> budget; <remedy>" unless need <= cap
    (NaN and inf are refused); cap reads 2**k if a power of two, else %.3g."""
    if not need <= cap:
        k = cap.bit_length() - 1 if isinstance(cap, int) else -1
        shown = f"2**{k}" if k > 0 and cap == 1 << k else f"{cap:.3g}"
        raise BudgetError(f"{what}, past its {shown} budget; {remedy}")
