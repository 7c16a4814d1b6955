"""Hazard/reversed-hazard rates, residual and inactivity times, stress-strength.

Everything here is read through w = -ln F(t) from `distribution._neg_log_cdf`,
and reduces to the tail integral

    I_n(t) = integral of y^n f(y) over (t, 1) = E[X^n] - m_n(t),

where the incomplete moment m_n over (0, t) comes from the kernel
`distribution._lower_moment`, which keeps the e^alpha factor from
overflowing, and E[X^n] from `raw_moment`, whose per-law constant
e^alpha * Gamma(1 - n/beta; alpha) is computed once in `distribution._head`.
Near t = 1 that difference cancels, so `distribution._tail_moment` and
`distribution._integrated_sf` (Psi(t), the integral of sf over (t, 1))
switch to the endpoint branch there; mrl = Psi / sf, which near 1 is >= 0.
The reversed hazard r(x) = alpha*beta / x^(1+beta) is strictly decreasing
and the inactivity time is increasing for every parameter choice (the cdf
is log-concave); the plain hazard rises to +inf at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (
    Params,
    _as_count,
    _integrated_sf,
    _integrated_sf_array,
    _neg_log_cdf,
    _neg_log_cdf_array,
    _points,
    _power_gamma,
    _power_gamma_array,
    _quotient,
    _tail_moment,
    _v_integral,
    pdf,
    sf,
)
from .errors import DomainError
from .specfun import _PYTHON_FLOAT, _elementwise, _exp_or_inf, _piecewise


@dataclass(frozen=True)
class StressStrengthPair:
    """Strength X and stress Y, each a checked unit-Gompertz Params."""

    strength: Params
    stress: Params


def hazard(p: Params, x: float) -> float:
    """Hazard rate f(x) / (1 - F(x)) on [0, 1].

    Tends to 0 as x -> 0 and to +inf as x -> 1; x = 1 returns math.inf
    rather than raising, matching the limit.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hazard needs x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.inf
    return pdf(p, x) / sf(p, x)


def reversed_hazard(p: Params, x: float) -> float:
    """Reversed hazard rate f(x) / F(x) = alpha * beta / x^(1 + beta)."""
    if not 0.0 < x <= 1.0:
        raise DomainError(f"reversed hazard needs x in (0, 1], got {x!r}")
    return _exp_or_inf(math.log(p.alpha * p.beta) - (1.0 + p.beta) * math.log(x))


def partial_expectation(p: Params, n: int, t: float) -> float:
    """Tail moment integral of y^n f(y) over (t, 1).

    Accepts t in [0, 1]: t = 0 gives the full raw moment and t = 1 gives 0,
    both as exact continuous extensions of the closed form.
    """
    n = _as_count(n, 1, "moment order")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"partial expectation needs t in [0, 1], got {t!r}")
    return _tail_moment(p, n, _neg_log_cdf(p, t))


def conditional_moment(p: Params, n: int, x: float) -> float:
    """E[X^n | X > x] for x in [0, 1); the conditioning event dies at x = 1."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"conditional moment needs x in [0, 1), got {x!r}")
    return partial_expectation(p, n, x) / sf(p, x)


def mrl(p: Params, t: float) -> float:
    """Mean residual life E[X - t | X > t] on [0, 1].

    mrl(0) is the mean; mrl(1) is defined as 0, the continuous limit as the
    remaining support shrinks to nothing.  It is Psi / sf, with Psi the
    integral of sf over (t, 1); near 1, Psi comes from the endpoint branch
    and is positive term by term.  t may be a 1-d array (README, "Command line").
    """
    if isinstance(t, np.ndarray):
        t = _points(mrl, p, t, lambda t: (0.0 <= t) & (t <= 1.0))
        with np.errstate(**_PYTHON_FLOAT):
            return _piecewise(t == 1.0, lambda _: 0.0, lambda pick: _mrl_array(p, t[pick]))
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"mrl needs t in [0, 1], got {t!r}")
    if t == 1.0:
        return 0.0
    w = _neg_log_cdf(p, t)
    return _integrated_sf(p, t, w) / -math.expm1(-w)


def _mrl_array(p: Params, t: np.ndarray) -> np.ndarray:
    """`mrl` at each t in [0, 1)."""
    w = _neg_log_cdf_array(p, t)
    return _quotient(_integrated_sf_array(p, t, w), -_elementwise(math.expm1, -w))


def eit(p: Params, x: float) -> float:
    """Expected inactivity time E[x - X | X <= x] for x in (0, 1].

    Closed form (alpha^(1/beta) / beta) * e^z * Gamma(-1/beta; z) with
    z = alpha + w, evaluated in scaled form; eit(1) equals 1 - mean.
    x may be a 1-d array (README, "Command line").
    """
    if isinstance(x, np.ndarray):
        x = _points(eit, p, x, lambda x: (0.0 < x) & (x <= 1.0))
        with np.errstate(**_PYTHON_FLOAT):
            w = _neg_log_cdf_array(p, x)
            return _piecewise(
                np.isfinite(w),
                lambda pick: _power_gamma_array(p, 1.0 / p.beta, -1.0 / p.beta, w[pick]) / p.beta,
                lambda _: 0.0,
            )
    if not 0.0 < x <= 1.0:
        raise DomainError(f"eit needs x in (0, 1], got {x!r}")
    w = _neg_log_cdf(p, x)
    if not math.isfinite(w):
        return 0.0
    return _power_gamma(p, 1.0 / p.beta, -1.0 / p.beta, w) / p.beta


def stress_strength(pair: StressStrengthPair) -> float:
    """R = P(stress < strength) for independent unit-Gompertz X and Y.

    With a common scale the answer is exactly alpha_X / (alpha_X + alpha_Y).
    Otherwise R = E[F_Y(X)] is the integral over v = -ln F_X(x) > 0 of
    e^(-v - w_Y), with w_Y = -ln F_Y(x) = alpha_Y * expm1(r * log1p(v/alpha_X))
    and r = beta_Y/beta_X.  If X has the larger median, R = 1 - P(X < Y)
    instead: each integral is then at most 3/4, so R is in [0, 1] as rounded.
    """
    px, py = pair.strength, pair.stress
    if px.beta == py.beta:
        return px.alpha / (px.alpha + py.alpha)
    # ln(-ln median) = ln log1p(ln 2 / alpha) - ln beta
    lx, ly = (math.log(math.log1p(math.log(2.0) / p.alpha)) - math.log(p.beta) for p in (px, py))
    if lx < ly:
        px, py = py, px
    log_r = math.log(py.beta) - math.log(px.beta)
    log_ax = math.log(px.alpha)

    def log_g(u: float) -> float:
        # r * log1p(v/alpha_X) as e^(ln r + ln log1p(e^d)): no 0 * inf, no false 0
        d = u - log_ax
        log_lp = d if d < -37.0 else math.log(math.log1p(math.exp(d)) if d < 36.0 else d)
        try:
            return u - math.exp(u) - py.alpha * math.expm1(math.exp(log_r + log_lp))
        except OverflowError:
            return -math.inf

    below = _v_integral(log_g)
    return 1.0 - below if lx < ly else below
