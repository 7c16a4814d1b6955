"""Upper incomplete gamma for arbitrary real shape, plus two tail integrals.

The central primitive is Gamma(s; x) = integral of t^(s-1) e^(-t) over
(x, inf), defined for every finite real s as long as x > 0.  Downstream
formulas need it at s = 0 (the exponential integral E1), at negative
fractional s (inactivity times, Lorenz-type curves), and at moderate
positive s, often multiplied by e^x; the scaled form e^x * Gamma(s; x) is
exposed separately because those products otherwise over/underflow.

Evaluation regimes, each a closed series or continued fraction:

* x >= max(1, s + 1), or s < -10000: Legendre continued fraction (modified
  Lentz), which at such s converges in a few terms for every x.
* x < s + 1, s >= 1/2: power series for the lower incomplete gamma,
  complemented through the complete gamma function.
* x < max(1, s + 1), s < 1/2: Gautschi's entire-function form at the seed
  a = s - floor(s + 1/2) in [-1/2, 1/2),
  Gamma(a, x) = (Gamma(1+a) - 1)/a - (x^a - 1)/a
                - x^a * sum_{k>=1} (-x)^k / (k! (a + k)),
  which at a = 0 is the E1 series; then the downward recurrence
  Gamma(a-1, x) = (Gamma(a, x) - x^(a-1) e^(-x)) / (a-1) down to s, run on
  r = e^x x^-a Gamma(a, x) as r <- (x r - 1) / (a - 1) so that x^s e^-x is
  applied once, as two factors x^(s/2) where x^s alone may overflow.  From a
  seed at or below 1/2 no step cancels more than a few bits.

The ratio r = x^-s e^x Gamma(s; x) (`_tail_ratio`), which the continued
fraction and the recurrence yield directly, stays finite where Gamma(s; x)
and x^s leave the double range together.

The tail integral of e^(-t) (ln t)^2 over (a, inf) is gamma^2 + pi^2/6 minus
the termwise-integrated power series of e^(-t) for small a, and the second
s-derivative of the Legendre continued fraction at s = 1 above that.
"""

from __future__ import annotations

import math

from .errors import DomainError, OracleError

_EPS = 1.0e-16
_TINY = 1.0e-300
_MAX_ITER = 10_000
# 1/Gamma(1 + a) = 1 + a * sum_k _RGAMMA_Q[k] a^k (A&S 6.1.34); twelve terms
# reach double precision for |a| < _RGAMMA_SEAM, where gamma(a) - x^a/a cancels.
_RGAMMA_Q = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
)
_RGAMMA_SEAM = 0.1
_LOG_SQ_TOTAL = 1.978111990655945  # gamma^2 + pi^2/6, the (0, inf) log-squared integral
_LOG_SQ_SEAM = 1.5  # series below, continued fraction at and above (errors cross here)


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


def _by_continued_fraction(s: float, x: float) -> bool:
    """Route to the Legendre continued fraction: x >= max(1, s + 1), or -s past
    _MAX_ITER, where it converges in a few terms and the recurrence would not."""
    return (x >= 1.0 and x >= s + 1.0) or s < -_MAX_ITER


def _seed(s: float, x: float) -> tuple[float, float]:
    """(a, Gamma(a, x)) at Gautschi's seed a = s - floor(s + 1/2) in [-1/2, 1/2).

    For x < max(1, s + 1).  The seed's first two pieces,
    (Gamma(1+a) - 1)/a - (x^a - 1)/a, are regrouped into gamma(a) - x^a/a
    once |a| >= _RGAMMA_SEAM, where they no longer cancel.
    """
    a = s - math.floor(s + 0.5)
    total = 0.0
    term = 1.0
    for k in range(1, _MAX_ITER):
        term *= -x / k
        contrib = term / (a + k)
        total += contrib
        if abs(contrib) <= abs(total) * _EPS:
            break
    else:
        raise OracleError(f"series for Gamma({a}, {x}) did not converge")
    if abs(a) >= _RGAMMA_SEAM:
        return a, math.gamma(a) - x**a * (1.0 / a + total)
    if a == 0.0:  # the E1 series; _RGAMMA_Q[0] is Euler's constant
        return a, -_RGAMMA_Q[0] - math.log(x) - total
    q = 0.0
    for c in reversed(_RGAMMA_Q):
        q = q * a + c
    # 1/Gamma(1+a) = 1 + a*q, so (Gamma(1+a) - 1)/a = -q / (1 + a*q).
    return a, -q / (1.0 + a * q) - math.expm1(a * math.log(x)) / a - x**a * total


def _recur(s: float, x: float, a: float, g: float) -> float:
    """r = e^x x^-s Gamma(s, x) from g = Gamma(a, x), a - s a whole number >= 0.

    Recurs on r itself, r <- (x r - 1) / (a - 1), near 1/(x + 1 - a): no x^a per step.
    """
    r = math.exp(x) * x**-a * g
    for _ in range(round(a - s)):
        a -= 1.0
        r = (x * r - 1.0) / a
    return r


def _small_x(s: float, x: float) -> float:
    """Gamma(s, x) for s < 1/2, x < max(1, s + 1): Gautschi's seed, then recurrence.

    Saturates to inf past the double range, as the continued fraction does,
    and then without running the recurrence.
    """
    a, g = _seed(s, x)
    if a == s:
        return g
    try:
        half = x ** (0.5 * s)  # x^s itself may overflow where Gamma(s, x) does not
    except OverflowError:  # x^s > 3e616 and e^-x r > 1/(e (2 - s)), so Gamma(s, x) too
        return math.inf
    return half * (half * math.exp(-x) * _recur(s, x, a, g))


def _tail_ratio(s: float, x: float) -> float:
    """x^-s e^x Gamma(s; x), near 1/(x + 1 - s) for s < 1/2.

    Finite where x^s and Gamma(s; x) pass the double range together, so a
    product alpha^m x^s that does not, or ln Gamma(s; x), can be formed
    from it instead.
    """
    if _by_continued_fraction(s, x):
        return _cf_factor(s, x)
    if s >= 0.5:  # one exponential: x^-s alone may underflow where the ratio does not
        return _exp_or_inf(x - s * math.log(x)) * upper_inc_gamma(s, x)
    return _recur(s, x, *_seed(s, x))


def upper_inc_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s; x) for any finite real s and x > 0.

    Relative accuracy is 1e-12 for s >= 0 and 1e-10 for s < 0.  The result
    is positive; it underflows to 0.0 only when the true value is below the
    smallest subnormal double.
    """
    _check_args(s, x)
    if _by_continued_fraction(s, x):
        return _exp_or_inf(s * math.log(x) - x) * _cf_factor(s, x)
    if s >= 0.5:
        return math.gamma(s) - _lower_series(s, x)
    return _small_x(s, x)


def upper_inc_gamma_scaled(s: float, x: float) -> float:
    """e^x * Gamma(s; x): the numerically safe form for tail products.

    Every closed form in this package that multiplies Gamma(s; z) by e^z (or
    by e^alpha with z >= alpha) should go through this function; the bare
    product overflows once z passes ~700.
    """
    _check_args(s, x)
    if _by_continued_fraction(s, x):
        return _exp_or_inf(s * math.log(x)) * _cf_factor(s, x)
    # x < 1 here, so the e^x factor is harmless.
    return math.exp(x) * upper_inc_gamma(s, x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = Gamma(0; x), x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"E1 needs x > 0, got {x!r}")
    return upper_inc_gamma(0.0, x)


def _log_sq_tail_scaled(a: float) -> float:
    """e^a * integral of e^(-t) ln(t)^2 over (a, inf), a > 0."""
    if a < _LOG_SQ_SEAM:
        # Integral over (0, a) term by term in e^-t = sum (-t)^(m-1) / (m-1)!:
        # integral of t^(m-1) ln(t)^2 over (0, a) = a^m ((m ln a - 1)^2 + 1) / m^3.
        log_a = math.log(a)
        head = 0.0
        term = a  # (-1)^(m-1) a^m / (m-1)!
        for m in range(1, _MAX_ITER):
            contrib = term * ((m * log_a - 1.0) ** 2 + 1.0) / m**3
            head += contrib
            if abs(contrib) <= abs(head) * _EPS:
                return math.exp(a) * (_LOG_SQ_TOTAL - head)
            term *= -a / m
        raise OracleError(f"log-squared series at {a} did not converge")
    # e^a Gamma(s, a) = a^s h(s, a); at s = 1 the second s-derivative is
    # a (ln(a)^2 h + 2 ln(a) h' + h'').  Lentz's method below carries each of
    # b, d, c, delta and h as (value, d/ds, d^2/ds^2), with b' = -1, an' = i.
    bv = a  # b = a + 1 - s at s = 1
    dv, d1, d2 = 1.0 / bv, 1.0 / (bv * bv), 2.0 / (bv * bv * bv)
    cv, c1, c2 = 1.0 / _TINY, 0.0, 0.0
    hv, h1, h2 = dv, d1, d2
    for i in range(1, _MAX_ITER):
        av = -i * (i - 1.0)
        bv += 2.0
        # d <- 1 / (an d + b)
        nv = av * dv + bv
        n1 = i * dv + av * d1 - 1.0
        n2 = 2.0 * i * d1 + av * d2
        dv = 1.0 / nv
        d1 = -n1 * dv * dv
        d2 = (2.0 * n1 * n1 * dv - n2) * dv * dv
        # c <- b + an / c
        iv = 1.0 / cv
        i1 = -c1 * iv * iv
        i2 = (2.0 * c1 * c1 * iv - c2) * iv * iv
        cv, c1, c2 = bv + av * iv, i * iv + av * i1 - 1.0, 2.0 * i * i1 + av * i2
        # h <- h * d * c
        ev, e1, e2 = dv * cv, d1 * cv + dv * c1, d2 * cv + 2.0 * d1 * c1 + dv * c2
        hv, h1, h2 = hv * ev, h1 * ev + hv * e1, h2 * ev + 2.0 * h1 * e1 + hv * e2
        if abs(ev - 1.0) + abs(e1) + abs(e2) < _EPS:
            log_a = math.log(a)
            return a * ((log_a * hv + 2.0 * h1) * log_a + h2)
    raise OracleError(f"continued fraction for the log-squared tail at {a} did not converge")


def log_sq_tail_integral(a: float) -> float:
    """Integral of e^(-t) (ln t)^2 over (a, inf), a > 0.

    The scaled form e^a * integral is computed in closed form (series or
    continued fraction) so the exponentially small prefactor is applied once.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"tail integral needs a > 0, got {a!r}")
    return math.exp(-a) * _log_sq_tail_scaled(a)
