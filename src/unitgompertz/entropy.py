"""Renyi and Shannon entropies and the variance-of-log-density shape measure.

For order g > 0, g != 1, the Renyi entropy is (1 - g)^-1 * ln of the
integral of f^g, which for this law collapses to incomplete-gamma terms:

    I(g) = (1-g)^-1 * [ alpha*g + ((1-g)/beta) ln alpha - (1-g) ln beta
                        + (1/beta)(1 - g(1+beta)) ln g
                        + ln Gamma(g + (g-1)/beta; alpha*g) ]

The Shannon entropy is the g -> 1 limit, 1 - ln(alpha*beta)
- (1+beta) e^alpha Gamma(0; alpha) / beta.  The shape measure returned by
`song_measure` is -2 times the derivative of the Renyi entropy at g = 1,
which equals Var[ln f(X)]; the closed form needs E1 and the tail integral
of e^(-t) (ln t)^2, both at alpha.
"""

from __future__ import annotations

import math

from .distribution import Params, _head
from .errors import DomainError
from .specfun import _log_sq_tail_scaled, _tail_ratio

# Orders this close to 1 are rejected; use shannon_entropy instead.
RENYI_ORDER_GAP = 1e-12


def renyi_entropy(p: Params, gamma: float) -> float:
    """Renyi entropy of order gamma (gamma > 0, gamma != 1).

    gamma = 1 is rejected rather than silently limited; the limit is the
    Shannon entropy and has its own function.
    """
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise DomainError(f"Renyi order must be positive, got {gamma!r}")
    if abs(gamma - 1.0) <= RENYI_ORDER_GAP:
        raise DomainError("Renyi order 1 is the Shannon entropy; call shannon_entropy")
    a, b = p.alpha, p.beta
    s = gamma + (gamma - 1.0) / b
    # ln Gamma(s; a*g) = ln(scaled) - a*g, and the -a*g cancels the alpha*g
    # term of the closed form exactly; ln(scaled) = s ln(a*g) + ln(ratio)
    # stays finite where Gamma(s; a*g) itself leaves the double range.
    x = a * gamma
    log_gamma_term = s * math.log(x) + math.log(_tail_ratio(s, x))
    bracket = (
        (1.0 - gamma) / b * math.log(a)
        - (1.0 - gamma) * math.log(b)
        + (1.0 - gamma * (1.0 + b)) / b * math.log(gamma)
        + log_gamma_term
    )
    return bracket / (1.0 - gamma)


def shannon_entropy(p: Params) -> float:
    """Shannon entropy E[-ln f(X)] in closed form."""
    a, b = p.alpha, p.beta
    return 1.0 - p._log_alpha_beta - (1.0 + b) / b * _head(0.0, a)


def song_measure(p: Params) -> float:
    """Shape measure -2 * d/dg Renyi(g) at g = 1, equal to Var[ln f(X)].

    Plays the role kurtosis plays for tail-weight comparisons, and is
    invariant under location/scale changes.  Always nonnegative.  With
    T = alpha X^-beta, where T - alpha ~ Exp(1), ln f(X) = c ln T - T + const
    for c = 1 + 1/beta, so Var[ln f(X)] = Var[T] - 2c Cov(ln T, T) + c^2 Var[ln T]
    with Var[T] = 1, Cov(ln T, T) = 1 - alpha g0 and E[ln T] = ln alpha + g0.
    """
    a, b = p.alpha, p.beta
    c = 1.0 + 1.0 / b
    g0 = _head(0.0, a)  # e^alpha Gamma(0; alpha)
    k = _log_sq_tail_scaled(a)  # E[(ln T)^2]: e^alpha * tail integral of e^-t (ln t)^2
    return 1.0 - 2.0 * c * (1.0 - a * g0) + c * c * (k - (math.log(a) + g0) ** 2)
