"""Upper incomplete gamma for arbitrary real shape, plus two tail integrals.

The central primitive is Gamma(s; x) = integral of t^(s-1) e^(-t) over
(x, inf), defined for every finite real s as long as x > 0.  Downstream
formulas need it at s = 0 (the exponential integral E1), at negative
fractional s (inactivity times, Lorenz-type curves), and at moderate
positive s, often multiplied by e^x; the scaled form e^x * Gamma(s; x) is
exposed separately because those products otherwise over/underflow.

Evaluation regimes:

* x >= max(1, s + 1): Legendre continued fraction (modified Lentz).
* x < max(1, s + 1), s > 0: power series for the lower incomplete gamma,
  complemented through the complete gamma function.
* s = 0, x <= 1: classical E1 series.
* s < 0, x < 1: downward recurrence Gamma(s, x) = (Gamma(s+1, x)
  - x^s e^(-x)) / s from the fractional seed s - floor(s).  A first-order
  error bound rides along with the iteration (the subtraction is where the
  digits go); the moment it can no longer certify REL_TOL_NEG, the value is
  recomputed by adaptive quadrature instead.
"""

from __future__ import annotations

import math

from . import oracle
from .errors import DomainError, OracleError

# Accuracy targets and guards, fixed here and nowhere else.
REL_TOL_POS = 1e-12  # target relative error for shape >= 0
REL_TOL_NEG = 1e-10  # target relative error for shape < 0 (recurrence budget)
TAIL_REL_TOL = 1e-10  # log-squared tail integral
_POS_GUARD_DIGITS = 3.5  # series-complement budget; 1e-16 * 10^3.5 stays under REL_TOL_POS
_RECURRENCE_SAFETY = 0.5  # fraction of REL_TOL_NEG the running bound may claim

_EULER = 0.57721566490153286060651209008240243
_EPS = 1.0e-16
_MACH_EPS = 2.220446049250313e-16
_TINY = 1.0e-300
_MAX_ITER = 10_000


def _check_args(s: float, x: float) -> None:
    if not math.isfinite(s):
        raise DomainError(f"shape must be finite, got {s!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"lower limit must be positive and finite, got {x!r}")


def _cf_factor(s: float, x: float) -> float:
    """Legendre continued fraction h(s, x), with Gamma(s, x) = x^s e^(-x) h."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise OracleError(f"continued fraction for Gamma({s}, {x}) did not converge")


def _exp_or_inf(arg: float) -> float:
    """e^arg, saturating to inf where math.exp raises OverflowError."""
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


def _lower_series(s: float, x: float) -> float:
    """Lower incomplete gamma(s, x) by power series; s > 0, x < s + 1."""
    ap = s
    total = 1.0 / s
    term = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(s * math.log(x) - x)
    raise OracleError(f"series for lower incomplete gamma({s}, {x}) did not converge")


def _e1_series(x: float) -> float:
    """E1(x) by the alternating series; x <= 1."""
    total = -_EULER - math.log(x)
    term = 1.0
    for k in range(1, _MAX_ITER):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < (abs(total) + _TINY) * _EPS:
            return total
    raise OracleError(f"E1 series at {x} did not converge")


def _quadrature_fallback(s: float, x: float, rel_tol: float = REL_TOL_NEG) -> float:
    def integrand(t: float) -> float:
        return math.exp((s - 1.0) * math.log(t) - t)

    return oracle.integrate(integrand, x, math.inf, rel_tol=rel_tol).value


def _positive_by_series_with_err(s: float, x: float) -> tuple[float, float]:
    """Gamma(s, x) for s > 0, x < s + 1, with an absolute error estimate.

    As s -> 0 both Gamma(s) and the lower integral blow up like 1/s while
    the difference stays O(1); past the digit budget the subtraction is
    abandoned for direct quadrature.
    """
    whole = math.gamma(s)
    result = whole - _lower_series(s, x)
    if result <= 0.0 or math.log10(whole / result) > _POS_GUARD_DIGITS:
        value = _quadrature_fallback(s, x, rel_tol=REL_TOL_POS)
        return value, REL_TOL_POS * value
    return result, 4.0 * _MACH_EPS * whole


def _negative_by_recurrence(s: float, x: float) -> float:
    """Gamma(s, x) for s < 0, x < 1, carrying a running error bound.

    Each downward step subtracts x^a e^(-x) from a same-sized quantity; the
    accumulated first-order bound decides when the result can no longer be
    certified to REL_TOL_NEG and quadrature takes over.
    """
    seed = s - math.floor(s)  # in [0, 1)
    steps = round(seed - s)
    if seed == 0.0:
        g = _e1_series(x)
        err = 4.0 * _MACH_EPS * (abs(g) + 1.0)
    else:
        g, err = _positive_by_series_with_err(seed, x)
    a = seed
    log_x = math.log(x)
    for _ in range(steps):
        a -= 1.0
        t = math.exp(a * log_x - x)  # x^a e^(-x)
        num = g - t
        err += _MACH_EPS * (abs(g) + t)
        if num == 0.0 or err > _RECURRENCE_SAFETY * REL_TOL_NEG * abs(num):
            return _quadrature_fallback(s, x)
        g = num / a
        err = err / abs(a) + _MACH_EPS * abs(g)
    return g


def upper_inc_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s; x) for any finite real s and x > 0.

    Relative accuracy targets REL_TOL_POS for s >= 0 and REL_TOL_NEG for
    s < 0.  The result is positive; it underflows to 0.0 only when the true
    value is below the smallest subnormal double.
    """
    _check_args(s, x)
    if x >= 1.0 and x >= s + 1.0:
        return _exp_or_inf(s * math.log(x) - x) * _cf_factor(s, x)
    if s > 0.0:
        return _positive_by_series_with_err(s, x)[0]
    if s == 0.0:
        return _e1_series(x)
    return _negative_by_recurrence(s, x)


def upper_inc_gamma_scaled(s: float, x: float) -> float:
    """e^x * Gamma(s; x): the numerically safe form for tail products.

    Every closed form in this package that multiplies Gamma(s; z) by e^z (or
    by e^alpha with z >= alpha) should go through this function; the bare
    product overflows once z passes ~700.
    """
    _check_args(s, x)
    if x >= 1.0 and x >= s + 1.0:
        return _exp_or_inf(s * math.log(x)) * _cf_factor(s, x)
    # x < 1 here, so the e^x factor is harmless.
    return math.exp(x) * upper_inc_gamma(s, x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = Gamma(0; x), x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"E1 needs x > 0, got {x!r}")
    return upper_inc_gamma(0.0, x)


def _log_sq_tail_scaled(a: float) -> float:
    """e^a * integral of e^(-t) ln(t)^2 over (a, inf), via t = a + u."""
    return oracle.integrate(
        lambda u: math.exp(-u) * math.log(a + u) ** 2,
        0.0,
        math.inf,
        rel_tol=TAIL_REL_TOL,
    ).value


def log_sq_tail_integral(a: float) -> float:
    """Integral of e^(-t) (ln t)^2 over (a, inf), a > 0.

    Computed under the substitution t = a + u so the quadrature never sees
    the exponentially small prefactor; relative accuracy TAIL_REL_TOL.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"tail integral needs a > 0, got {a!r}")
    return math.exp(-a) * _log_sq_tail_scaled(a)
