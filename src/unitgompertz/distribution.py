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

Every x is read through w = -ln F(x) = alpha * expm1(-beta ln x), formed
only in `_neg_log_cdf`: W = -ln F(X) is Exp(1), and x -> 1 is w -> 0, where
expm1 keeps the digits that x^-beta - 1 cancels.

Incomplete moments all come from one kernel, `_lower_moment`; its w = 0
case, the per-law constant e^alpha * Gamma(s; alpha), is computed in one
place, the bounded memo `_head`, so a curve or an order-suite lattice pays
it once per law rather than once per point.  The tail integrals over (x, 1),
`_tail_moment` and `_integrated_sf`, are E[X^n] minus the kernel; near x = 1
they are instead summed as Taylor series in v over (0, w) by `_endpoint_mean`
(the endpoint branch), which leaves nothing to cancel.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, OracleError


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


# The endpoint series run while w * max(1, alpha + m) <= _ENDPOINT_SEAM * alpha,
# so every ratio of successive terms stays near 1/2 or below.
_ENDPOINT_SEAM = 0.5


def _neg_log_cdf(p: Params, x: float) -> float:
    """w = -ln F(x) = alpha * expm1(-beta ln x) on [0, 1]; inf at 0 and past overflow."""
    if x == 0.0:
        return math.inf
    if x == 1.0:
        return 0.0  # not the -0.0 of expm1(-0.0)
    try:
        return p.alpha * math.expm1(-p.beta * math.log(x))
    except OverflowError:
        return math.inf


def _check_unit(x: float) -> None:
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0.0, 1.0], got {x!r}")


def log_cdf(p: Params, x: float) -> float:
    """log F(x) = -w; exact even when F underflows or x is next to 1."""
    _check_unit(x)
    return -_neg_log_cdf(p, x)


def log_pdf(p: Params, x: float) -> float:
    """log f(x), computed entirely in log space.

    Returns -inf at x = 0 (continuous convention); raises DomainError
    outside [0, 1].
    """
    _check_unit(x)
    if x == 0.0:
        return -math.inf
    return math.log(p.alpha * p.beta) - _neg_log_cdf(p, x) - (1.0 + p.beta) * math.log(x)


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


def _power_gamma(p: Params, m: float, s: float, w: float) -> float:
    """alpha^m * e^z * Gamma(s; z) at z = alpha + w, for m + s in {0, 1}.

    The product under every incomplete-moment closed form; at w = 0 its
    gamma factor is the head.  Where alpha^m leaves the normal double range,
    e^z Gamma(s; z), near z^s / (z + 1 - s), leaves it the other way, so the
    product is formed as (alpha/z)^m * z^(m + s) * [z^-s e^z Gamma(s; z)].
    """
    try:
        scale = p.alpha**m
    except OverflowError:
        scale = math.inf
    if sys.float_info.min <= scale < math.inf:
        if w == 0.0:
            return scale * _head(s, p.alpha)
        return scale * specfun.upper_inc_gamma_scaled(s, p.alpha + w)
    z = p.alpha + w
    return (p.alpha / z) ** m * z ** (m + s) * specfun._tail_ratio(s, z)


def _lower_moment(p: Params, n: int, w: float) -> float:
    """E[X^n; X <= x] = e^-w * alpha^m * e^z Gamma(1 - m; z), m = n/beta, w = -ln F(x).

    0.0 once e^-w underflows, without the gamma call (it fails past z = 2^53).
    """
    if w > 745.0:  # also w = inf
        return 0.0
    m = n / p.beta
    return math.exp(-w) * _power_gamma(p, m, 1.0 - m, w)


def _at_endpoint(p: Params, m: float, w: float) -> bool:
    """Whether (0, w) is small enough against alpha for `_endpoint_mean`."""
    return w * max(1.0, p.alpha + m) <= _ENDPOINT_SEAM * p.alpha


def _endpoint_mean(p: Params, m: float, w: float, survival: bool = False) -> float:
    """Mean over v in (0, w) of (alpha/(alpha+v))^m * e^-v, or * (1 - e^-v) if survival.

    Termwise in v: h = (alpha/(alpha+v))^m e^-v obeys (alpha+v) h' = -(m + alpha + v) h,
    a three-term recurrence for its Taylor coefficients; (1 - e^-v) in place
    of e^-v adds a source term from q = (alpha/(alpha+v))^m.  Each coefficient
    is kept times w^k.  Only for `_at_endpoint` arguments.
    """
    u = w / p.alpha
    if survival:
        prev, cur, source = 0.0, w, (m - 1.0) * w
    else:
        prev, cur, source = 1.0, -u * (m + p.alpha), 0.0
    q = 1.0  # coefficient k - 1 of q, times w^(k-1)
    total = prev + cur / 2.0
    for k in range(1, 200):
        prev, cur = cur, -u * ((k + m + p.alpha) * cur + w * prev + source * q / k) / (k + 1)
        q *= -u * (k - 1 + m) / k
        total += cur / (k + 2)
        if abs(cur) <= specfun._EPS * abs(total):
            return total
    raise OracleError(f"endpoint series at w = {w} did not converge")


def _tail_moment(p: Params, n: int, w: float, lower: float | None = None) -> float:
    """E[X^n; X > x] with w = -ln F(x): the integral of (alpha/(alpha+v))^(n/beta) e^-v over (0, w).

    Near x = 1 (`_at_endpoint`) the endpoint series; elsewhere E[X^n] minus
    lower = E[X^n; X <= x], computed here unless the caller has it.
    """
    m = n / p.beta
    if _at_endpoint(p, m, w):
        return w * _endpoint_mean(p, m, w)
    if lower is None:
        lower = _lower_moment(p, n, w)
    return raw_moment(p, n) - lower


def _integrated_sf(p: Params, t: float, w: float) -> float:
    """Psi(t) = integral of sf over (t, 1) = E[X; X > t] - t sf(t), with w = -ln F(t).

    Near t = 1 the endpoint series: Psi is the integral over (0, w) of
    (alpha/(alpha+v))^(1 + 1/beta) (1 - e^-v) / (alpha beta), positive term by term.
    """
    m = 1.0 + 1.0 / p.beta
    if _at_endpoint(p, m, w):
        return w * _endpoint_mean(p, m, w, survival=True) / (p.alpha * p.beta)
    return _tail_moment(p, 1, w) - t * -math.expm1(-w)


@functools.lru_cache(maxsize=256)
def _head(s: float, alpha: float) -> float:
    """e^alpha * Gamma(s; alpha): the kernel at w = 0, once per (s, alpha).

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
    return _lower_moment(p, _as_count(n, 1, "moment order"), 0.0)


def log_pdf_second_derivative(p: Params, x: float) -> float:
    """d^2/dx^2 log f(x) = -((1 + beta) / x^2) * (beta * (alpha + w) - 1)."""
    _check_unit(x)
    if x == 0.0:
        raise DomainError("second derivative undefined at x = 0")
    return -((1.0 + p.beta) / (x * x)) * (p.beta * (p.alpha + _neg_log_cdf(p, x)) - 1.0)


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
