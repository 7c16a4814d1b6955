"""Density and moments of order statistics from an i.i.d. unit-Gompertz sample.

The j-th order statistic of n draws has density

    f_(j)(x) = n! / ((j-1)! (n-j)!) * f(x) F(x)^(j-1) (1 - F(x))^(n-j)

assembled here in log space so neither the factorials nor the cdf powers
overflow or underflow.

Moments are read through V = -ln F(X_(j)), where F(X_(j)) ~ Beta(j, n - j + 1)
and X = (alpha / (alpha + V))^(1/beta):

    E[X_(j)^k] = n! / ((j-1)! (n-j)!) * integral over v > 0 of
                 (alpha/(alpha+v))^(k/beta) e^(-jv) (1 - e^(-v))^(n-j) dv,

a positive integrand with no special function and nothing to cancel, taken
by `distribution._v_integral`.  Every moment is finite for every k.
"""

from __future__ import annotations

import math
import sys

from .distribution import Params, _as_count, _v_integral, log_cdf, log_pdf, sf
from .errors import DomainError


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
    """k-th moment of the j-th of n order statistics, by the integral over v above."""
    n, j = _check_rank(n, j)
    k = _as_count(k, 1, "moment order")
    m = k / p.beta
    log_comb = math.log(j * math.comb(n, j))  # exact; lgamma differences lose n*eps
    log_alpha = math.log(p.alpha)

    def log_g(u: float) -> float:
        v = math.exp(u)
        x = v / p.alpha  # u - ln alpha would carry the rounding of ln alpha, times m
        if v < sys.float_info.min or not sys.float_info.min <= x < math.inf:
            d = u - log_alpha  # log1p(v/alpha) = log1p(e^d), which is d past d = 36
            lp = d if d >= 36.0 else math.log1p(math.exp(d))
        else:
            lp = math.log1p(x)
        total = log_comb + u - m * lp - j * v
        if j < n:  # ln(1 - e^-v) = u + ln((1 - e^-v)/v), which stays exact as v underflows
            total += (n - j) * (u + (math.log(-math.expm1(-v) / v) if v else 0.0))
        return total

    return _v_integral(log_g)


def order_stat_mixture_pdf(p: Params, n: int, x: float) -> float:
    """Average of the n order-statistic densities; equals the parent density."""
    n, _ = _check_rank(n, 1)
    return math.fsum(order_stat_pdf(p, n, j, x) for j in range(1, n + 1)) / n
