"""Exceptions and warning categories shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OracleError(ArithmeticError):
    """A quadrature, the oracle's or the library's own, failed to converge."""


class CancellationWarning(RuntimeWarning):
    """An alternating sum lost enough digits that a slower route was used.

    Nothing emits it since order-statistic moments became a positive integral.
    """
