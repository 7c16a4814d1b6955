"""First incomplete moment, mean deviations, and Lorenz/Bonferroni/Zenga curves.

The building block is m1(z) = integral of x f(x) over (0, z), the first
incomplete moment, with m1(1) = mean: one call of the incomplete-moment
kernel `distribution._lower_moment` at w = -ln F(z), never mean - I1(z),
which cancels as z -> 0.  The mean, e^alpha * Gamma(1 - 1/beta; alpha) up
to alpha^(1/beta), is the per-law constant, computed once in `distribution._head`.
The mean deviation about any point x0 reduces to

    delta(x0) = 2*x0*F(x0) + mean - 2*m1(x0) - x0.

The Lorenz curve is L(p) = m1(q) / mean with q the p-quantile; it is finite
for every beta > 0 (not only beta > 1) because the incomplete-gamma lower
limit alpha / q^beta stays positive on a bounded support.  Zenga's curve
compares the conditional means below and above x; the upper one comes from
`distribution._tail_moment`, which switches to the endpoint branch near x = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .distribution import (
    Params,
    _lower_moment,
    _lower_moment_array,
    _neg_log_cdf,
    _neg_log_cdf_array,
    _points,
    _power_gamma,
    _power_gamma_array,
    _quotient,
    _tail_moment,
    _tail_moment_array,
    cdf,
    raw_moment,
)
from .errors import DomainError
from .specfun import _PYTHON_FLOAT, _elementwise, _piecewise


def first_incomplete_moment(p: Params, z: float) -> float:
    """m1(z) = integral of x f(x) over (0, z) for z in (0, 1]; m1(1) is the mean."""
    if not 0.0 < z <= 1.0:
        raise DomainError(f"first incomplete moment needs z in (0, 1], got {z!r}")
    return _lower_moment(p, 1, _neg_log_cdf(p, z))


def mean_deviation_about(p: Params, x0: float) -> float:
    """E|X - x0| for an interior point x0."""
    if not 0.0 < x0 < 1.0:
        raise DomainError(f"mean deviation needs x0 in (0, 1), got {x0!r}")
    m1 = first_incomplete_moment(p, x0)
    return 2.0 * x0 * cdf(p, x0) + raw_moment(p, 1) - 2.0 * m1 - x0


def lorenz(p: Params, prob: float) -> float:
    """Lorenz curve L(p): share of the mean owned by the poorest `prob` mass.

    Uses w = -ln(prob), the exact -ln F of the quantile, so L(1) = 1 to
    machine precision.  prob may be a 1-d array (README, "Command line").
    """
    if isinstance(prob, np.ndarray):
        prob = _points(lorenz, p, prob, lambda u: (0.0 < u) & (u <= 1.0))
        with np.errstate(**_PYTHON_FLOAT):
            return _quotient(_lower_moment_array(p, 1, -_elementwise(math.log, prob)),
                             raw_moment(p, 1))
    if not 0.0 < prob <= 1.0:
        raise DomainError(f"lorenz needs prob in (0, 1], got {prob!r}")
    return _lower_moment(p, 1, -math.log(prob)) / raw_moment(p, 1)


def bonferroni(p: Params, prob: float) -> float:
    """Bonferroni curve B(p) = L(p) / p; prob may be a 1-d array."""
    if isinstance(prob, np.ndarray):
        prob = _points(bonferroni, p, prob, lambda u: (0.0 < u) & (u <= 1.0))
        with np.errstate(**_PYTHON_FLOAT):
            return lorenz(p, prob) / prob
    if not 0.0 < prob <= 1.0:
        raise DomainError(f"bonferroni needs prob in (0, 1], got {prob!r}")
    return lorenz(p, prob) / prob


def zenga(p: Params, x: float) -> float:
    """Zenga curve Z(x) = 1 - (lower conditional mean / upper conditional mean).

    Z(x) = 1 - E[X | X <= x] * sf(x) / I_1(x), where the lower conditional
    mean is alpha^m e^z Gamma(1 - m; z) with m = 1/beta and z = alpha + w
    (the cdf e^-w cancels analytically), and I_1, the integral of y f(y)
    over (x, 1), is the tail moment; one incomplete-gamma call serves both.
    Endpoints are excluded: one of the conditional means degenerates there.
    x may be a 1-d array (README, "Command line").
    """
    if isinstance(x, np.ndarray):
        x = _points(zenga, p, x, lambda x: (0.0 < x) & (x < 1.0))
        with np.errstate(**_PYTHON_FLOAT):
            w = _neg_log_cdf_array(p, x)
            return _piecewise(np.isfinite(w), lambda pick: _zenga_array(p, w[pick]), lambda _: 1.0)
    if not 0.0 < x < 1.0:
        raise DomainError(f"zenga needs x in (0, 1), got {x!r}")
    w = _neg_log_cdf(p, x)
    if not math.isfinite(w):
        return 1.0  # x so small that the lower conditional mean vanishes
    m = 1.0 / p.beta
    below = _power_gamma(p, m, 1.0 - m, w)
    return 1.0 - below * -math.expm1(-w) / _tail_moment(p, 1, w, math.exp(-w) * below)


def _zenga_array(p: Params, w: np.ndarray) -> np.ndarray:
    """`zenga` at each finite w = -ln F(x)."""
    m = 1.0 / p.beta
    below = _power_gamma_array(p, m, 1.0 - m, w)
    return 1.0 - _quotient(below * -_elementwise(math.expm1, -w),
                           _tail_moment_array(p, 1, w, _elementwise(math.exp, -w) * below))
