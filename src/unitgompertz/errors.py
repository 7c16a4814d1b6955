"""Exceptions and warning categories shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OracleError(ArithmeticError):
    """The quadrature oracle failed to reach the requested accuracy."""


class CancellationWarning(RuntimeWarning):
    """An alternating sum lost enough digits that a slower route was used.

    Nothing emits it since order-statistic moments became a positive integral.
    """
