"""The unit-Gompertz law: parameters, pdf/cdf/sf, quantile, sampling, moments.

A unit-Gompertz variable lives on (0, 1) and has

    pdf  f(x) = alpha * beta * exp(-alpha * (x^-beta - 1)) / x^(1 + beta)
    cdf  F(x) = exp(-alpha * (x^-beta - 1))

for shape alpha > 0 and scale beta > 0.  Endpoint conventions: F(0) = 0,
F(1) = 1, f(0) = 0 by continuity, and f(1) = alpha * beta (the density is
positive at the upper endpoint, which is why several textbook shape results
for (0, inf)-supported laws do not carry over).

The density is log-concave only up to min((alpha*beta)^(1/beta), 1); beyond
that point the second derivative of log f turns positive, and the mode sits
at min((alpha*beta/(1+beta))^(1/beta), 1).

Incomplete moments all come from one kernel, `_lower_moment`; its z = alpha
case, the per-law constant e^alpha * Gamma(s; alpha), is computed in one
place, the bounded memo `_head`, so a curve or an order-suite lattice pays
it once per law rather than once per point.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError


def _as_count(n, minimum: int, what: str) -> int:
    """Coerce an int-like argument (Python or numpy, not bool) with a lower bound."""
    try:
        if isinstance(n, bool):  # an int subclass, but never a count
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None
    if n < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {n!r}")
    return n


@dataclass(frozen=True)
class Params:
    """Validated (alpha, beta) pair; both real (not bool), positive and finite."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            # Exact int and float skip the far slower numbers.Real ABC check.
            if type(v) not in (float, int) and (
                isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)
            ):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            try:
                v = float(v)
            except OverflowError:
                raise DomainError(f"{name} is past the double range") from None
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)


def _pow_neg_beta(x: float, beta: float) -> float:
    """x^(-beta) for x in (0, 1], saturating to inf instead of raising."""
    return specfun._exp_or_inf(-beta * math.log(x))


def _check_unit(x: float) -> None:
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0.0, 1.0], got {x!r}")


def log_cdf(p: Params, x: float) -> float:
    """log F(x) = -alpha * (x^-beta - 1); exact even when F underflows."""
    _check_unit(x)
    if x == 0.0:
        return -math.inf
    return -p.alpha * (_pow_neg_beta(x, p.beta) - 1.0)


def log_pdf(p: Params, x: float) -> float:
    """log f(x), computed entirely in log space.

    Returns -inf at x = 0 (continuous convention); raises DomainError
    outside [0, 1].
    """
    _check_unit(x)
    if x == 0.0:
        return -math.inf
    return (
        math.log(p.alpha * p.beta)
        - p.alpha * (_pow_neg_beta(x, p.beta) - 1.0)
        - (1.0 + p.beta) * math.log(x)
    )


def pdf(p: Params, x: float) -> float:
    """Density f(x) on [0, 1]; f(0) = 0 and f(1) = alpha * beta exactly."""
    if x == 1.0:
        return p.alpha * p.beta
    return math.exp(log_pdf(p, x))


def cdf(p: Params, x: float) -> float:
    """Distribution function F(x); 0 at x = 0 and 1 at x = 1."""
    _check_unit(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return math.exp(log_cdf(p, x))


def sf(p: Params, x: float) -> float:
    """Survival function 1 - F(x), via expm1 so precision survives x -> 1."""
    _check_unit(x)
    if x == 0.0:
        return 1.0
    if x == 1.0:
        return 0.0
    return -math.expm1(log_cdf(p, x))


def quantile(p: Params, u: float) -> float:
    """Inverse cdf: x = (alpha / (alpha - ln u))^(1/beta) for u in (0, 1]."""
    if not (0.0 < u <= 1.0):
        raise DomainError(f"quantile needs u in (0, 1], got {u!r}")
    return (p.alpha / (p.alpha - math.log(u))) ** (1.0 / p.beta)


def sample(p: Params, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws, reproducible for a fixed seed.

    Uses the Philox counter-based generator, whose key is an integer seed in
    [0, 2**128); the returned array is the raw generation order and every
    value lies in the open interval (0, 1).
    """
    n = _as_count(n, 1, "sample size")
    seed = _as_count(seed, 0, "seed")
    if seed >= 2**128:
        raise DomainError(f"seed must be < 2**128, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = 1.0 - rng.random(n)  # in (0, 1]
    x = (p.alpha / (p.alpha - np.log(u))) ** (1.0 / p.beta)
    return np.minimum(x, np.nextafter(1.0, 0.0))


def _lower_moment(p: Params, n: int, z: float) -> float:
    """Integral of y^n f(y) over (0, x), with z = alpha * x^-beta.

    alpha^(n/beta) * e^(alpha - z) * [e^z Gamma(1 - n/beta; z)]; 0.0 once
    e^(alpha - z) underflows, without the gamma call (it fails past z = 2^53).
    """
    if p.alpha - z < -745.0:  # also z = inf
        return 0.0
    return (
        p.alpha ** (n / p.beta)
        * math.exp(p.alpha - z)
        * specfun.upper_inc_gamma_scaled(1.0 - n / p.beta, z)
    )


@functools.lru_cache(maxsize=256)
def _head(s: float, alpha: float) -> float:
    """e^alpha * Gamma(s; alpha): the kernel at z = alpha, once per (s, alpha).

    The one place the per-law constant is computed; alpha^(n/beta) times
    _head(1 - n/beta, alpha) is E[X^n].  The memo keeps the 256 latest keys;
    exceptions are not cached, and specfun is looked up at call time.
    """
    return specfun.upper_inc_gamma_scaled(s, alpha)


def raw_moment(p: Params, n: int) -> float:
    """E[X^n] = alpha^(n/beta) * e^alpha * Gamma(1 - n/beta; alpha), n >= 1.

    Finite for every moment order: the incomplete-gamma lower limit is
    alpha > 0, so no extra existence condition on n versus beta is needed
    (nor imposed here).
    """
    n = _as_count(n, 1, "moment order")
    return p.alpha ** (n / p.beta) * _head(1.0 - n / p.beta, p.alpha)


def log_pdf_second_derivative(p: Params, x: float) -> float:
    """d^2/dx^2 log f(x) = -((1 + beta) / x^2) * (alpha * beta / x^beta - 1)."""
    _check_unit(x)
    if x == 0.0:
        raise DomainError("second derivative undefined at x = 0")
    return -((1.0 + p.beta) / (x * x)) * (
        p.alpha * p.beta * _pow_neg_beta(x, p.beta) - 1.0
    )


def log_concavity_bound(p: Params) -> float:
    """Upper end of the log-concavity region: min((alpha*beta)^(1/beta), 1)."""
    return min((p.alpha * p.beta) ** (1.0 / p.beta), 1.0)


def mode(p: Params) -> float:
    """Unique mode min((alpha*beta/(1+beta))^(1/beta), 1).

    The unconstrained stationary point of log f can exceed the support, in
    which case the density is increasing throughout and the mode is the
    endpoint x = 1.
    """
    star = (p.alpha * p.beta / (1.0 + p.beta)) ** (1.0 / p.beta)
    return min(star, 1.0)
