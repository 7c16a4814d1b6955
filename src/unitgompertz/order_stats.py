"""Density and moments of order statistics from an i.i.d. unit-Gompertz sample.

The j-th order statistic of n draws has density

    f_(j)(x) = n! / ((j-1)! (n-j)!) * f(x) F(x)^(j-1) (1 - F(x))^(n-j)

assembled here in log space so neither the factorials nor the cdf powers
overflow or underflow.  Expanding (1 - F)^(n-j) binomially turns the k-th
moment into an alternating sum of incomplete-gamma terms; the e^(r*alpha)
factors cancel against the scaled gammas exactly, so each term is
individually well-ranged, but the alternation can still cancel.  When more
than CANCEL_DIGITS decimal digits are lost the moment is recomputed by
adaptive quadrature of the density and a CancellationWarning is emitted.

Every moment is finite for every k: each term's incomplete gamma has the
strictly positive lower limit alpha*(j+r).
"""

from __future__ import annotations

import math
import warnings

from . import oracle
from .distribution import Params, _as_count, log_cdf, log_pdf, sf
from .errors import CancellationWarning, DomainError
from .specfun import upper_inc_gamma_scaled

# Decimal digits the alternating sum may lose before the quadrature route
# takes over.
CANCEL_DIGITS = 8.0
_FALLBACK_REL_TOL = 1e-10


def _check_rank(n, j) -> tuple[int, int]:
    n = _as_count(n, 1, "sample size")
    j = _as_count(j, 1, "rank")
    if j > n:
        raise DomainError(f"rank must satisfy 1 <= j <= n, got j={j!r}, n={n!r}")
    return n, j


def order_stat_pdf(p: Params, n: int, j: int, x: float) -> float:
    """Density of the j-th of n order statistics at x, for x in [0, 1]."""
    n, j = _check_rank(n, j)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"order statistic density needs x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return p.alpha * p.beta if j == n else 0.0
    log_comb = math.lgamma(n + 1) - math.lgamma(j) - math.lgamma(n - j + 1)
    total = log_comb + log_pdf(p, x)
    if j > 1:
        total += (j - 1) * log_cdf(p, x)
    if j < n:
        total += (n - j) * math.log(sf(p, x))
    return math.exp(total)


def order_stat_moment(p: Params, n: int, j: int, k: int) -> float:
    """k-th moment of the j-th of n order statistics.

    Alternating binomial sum over incomplete-gamma terms, accumulated
    exactly with math.fsum; falls back to quadrature (with a
    CancellationWarning) if the sum cancels away more than CANCEL_DIGITS
    digits.
    """
    n, j = _check_rank(n, j)
    k = _as_count(k, 1, "moment order")
    a, b = p.alpha, p.beta
    s = 1.0 - k / b
    terms = []
    for r in range(n - j + 1):
        z = a * (j + r)
        # e^(r*alpha) * Gamma(s; z) = e^(-j*alpha) * scaled form, and the
        # e^(j*alpha) prefactor cancels; only z^(k/beta - 1) remains.
        magnitude = (
            math.comb(n - j, r)
            * z ** (k / b - 1.0)
            * upper_inc_gamma_scaled(s, z)
        )
        terms.append(-magnitude if r % 2 else magnitude)
    total = math.fsum(terms)
    log_comb = math.lgamma(n + 1) - math.lgamma(j) - math.lgamma(n - j + 1)
    largest = max(abs(t) for t in terms)
    if total <= 0.0 or math.log10(largest / total) > CANCEL_DIGITS:
        warnings.warn(
            f"alternating sum for order-statistic moment (n={n}, j={j}, k={k}) "
            "lost too many digits; returning the quadrature value",
            CancellationWarning,
            stacklevel=2,
        )
        return oracle.integrate(
            lambda y: y**k * order_stat_pdf(p, n, j, y),
            0.0,
            1.0,
            rel_tol=_FALLBACK_REL_TOL,
        ).value
    return a * math.exp(log_comb) * total


def order_stat_mixture_pdf(p: Params, n: int, x: float) -> float:
    """Average of the n order-statistic densities; equals the parent density."""
    n, _ = _check_rank(n, 1)
    return math.fsum(order_stat_pdf(p, n, j, x) for j in range(1, n + 1)) / n
