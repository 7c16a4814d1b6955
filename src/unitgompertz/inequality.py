"""First incomplete moment, mean deviations, and Lorenz/Bonferroni/Zenga curves.

The building block is m1(z) = integral of x f(x) over (0, z), the first
incomplete moment, with m1(1) = mean: one call of the incomplete-moment
kernel `distribution._lower_moment`, never mean - I1(z), which cancels as
z -> 0.  The mean and Zenga's e^alpha * Gamma(1 - 1/beta; alpha) are the
per-law constant, computed once in `distribution._head`.  The mean
deviation about any point x0 reduces to

    delta(x0) = 2*x0*F(x0) + mean - 2*m1(x0) - x0.

The Lorenz curve is L(p) = m1(q) / mean with q the p-quantile; it is finite
for every beta > 0 (not only beta > 1) because the incomplete-gamma lower
limit alpha / q^beta stays positive on a bounded support.  Zenga's curve
compares the conditional means below and above x.
"""

from __future__ import annotations

import math

from .distribution import (
    Params,
    _head,
    _lower_moment,
    _pow_neg_beta,
    cdf,
    raw_moment,
    sf,
)
from .errors import DomainError
from .specfun import upper_inc_gamma_scaled


def first_incomplete_moment(p: Params, z: float) -> float:
    """m1(z) = integral of x f(x) over (0, z) for z in (0, 1]; m1(1) is the mean."""
    if not 0.0 < z <= 1.0:
        raise DomainError(f"first incomplete moment needs z in (0, 1], got {z!r}")
    return _lower_moment(p, 1, p.alpha * _pow_neg_beta(z, p.beta))


def mean_deviation_about(p: Params, x0: float) -> float:
    """E|X - x0| for an interior point x0."""
    if not 0.0 < x0 < 1.0:
        raise DomainError(f"mean deviation needs x0 in (0, 1), got {x0!r}")
    m1 = first_incomplete_moment(p, x0)
    return 2.0 * x0 * cdf(p, x0) + raw_moment(p, 1) - 2.0 * m1 - x0


def lorenz(p: Params, prob: float) -> float:
    """Lorenz curve L(p): share of the mean owned by the poorest `prob` mass.

    Uses w = alpha - ln(prob), the exact image of the quantile under
    alpha / q^beta, so L(1) = 1 to machine precision.
    """
    if not 0.0 < prob <= 1.0:
        raise DomainError(f"lorenz needs prob in (0, 1], got {prob!r}")
    return _lower_moment(p, 1, p.alpha - math.log(prob)) / raw_moment(p, 1)


def bonferroni(p: Params, prob: float) -> float:
    """Bonferroni curve B(p) = L(p) / p."""
    if not 0.0 < prob <= 1.0:
        raise DomainError(f"bonferroni needs prob in (0, 1], got {prob!r}")
    return lorenz(p, prob) / prob


def zenga(p: Params, x: float) -> float:
    """Zenga curve Z(x) = 1 - (lower conditional mean / upper conditional mean).

    Z(x) = 1 - [Gamma(s; z) / (Gamma(s; alpha) - Gamma(s; z))] * sf(x)/cdf(x)
    with s = 1 - 1/beta and z = alpha / x^beta, rearranged through the
    scaled gamma so the cdf in the denominator cancels analytically.
    Endpoints are excluded: one of the conditional means degenerates there.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"zenga needs x in (0, 1), got {x!r}")
    s = 1.0 - 1.0 / p.beta
    z = p.alpha * _pow_neg_beta(x, p.beta)
    if not math.isfinite(z):
        return 1.0  # x so small that the lower conditional mean vanishes
    head = _head(s, p.alpha)
    gamma_z = upper_inc_gamma_scaled(s, z)
    tail = math.exp(p.alpha - z) * gamma_z
    # Gamma(s; z) * e^z * sf / (e^alpha [Gamma(s;alpha) - Gamma(s;z)]) with
    # cdf = e^(alpha - z) already folded in.
    return 1.0 - gamma_z * sf(p, x) / (head - tail)
