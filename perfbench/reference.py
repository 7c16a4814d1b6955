"""mpmath references for the functions the benchmark calls.

Each reference is computed at REF_DPS decimal digits from the exact binary
value of every float argument, with guard digits where a formula cancels.
Closed forms are evaluated in mpmath arithmetic; the song measure and the
stress-strength probability take an independent route, a change of
variables to the exponential or uniform scale plus tanh-sinh quadrature.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

REF_DPS = 50
_GUARD_DPS = 30
# Quadrature references converge to this many digits, still far past a double.
_QUAD_DPS = 20

# Correct significant digits are capped here; float64 carries ~16.
DIGITS_CAP = 16.0
_TINY = 2.2250738585072014e-308  # smallest normal double
_HUGE = 1.7976931348623157e308


def _cdf(a, b, x):
    return mpmath.exp(-a * (x ** (-b) - 1))


def _sf(a, b, x):
    return -mpmath.expm1(-a * (x ** (-b) - 1))


def _log_pdf(a, b, x):
    return mpmath.log(a * b) - a * (x ** (-b) - 1) - (1 + b) * mpmath.log(x)


def _tail_moment(a, b, n, t):
    """Integral of y^n f(y) over (t, 1), as a difference of incomplete gammas.

    The difference cancels as t -> 1, so it is taken with _GUARD_DPS extra
    digits; at 1 - t = 1e-12 that still leaves more than REF_DPS.
    """
    with mp.extradps(_GUARD_DPS):
        s = 1 - mpf(n) / b
        z = a * t ** (-b)
        diff = mpmath.gammainc(s, a) - mpmath.gammainc(s, z)
        return a ** (mpf(n) / b) * mpmath.exp(a) * diff


def _raw_moment(a, b, n):
    return a ** (mpf(n) / b) * mpmath.exp(a) * mpmath.gammainc(1 - mpf(n) / b, a)


def _exp_variance(h):
    """Var[h(E)] for E ~ Exp(1), centred first so nothing cancels."""
    with mp.workdps(_QUAD_DPS):
        pieces = [0, 1, 10, mpmath.inf]
        m1 = mpmath.quad(lambda e: mpmath.exp(-e) * h(e), pieces)
        return mpmath.quad(lambda e: mpmath.exp(-e) * (h(e) - m1) ** 2, pieces)


def _log_density_on_exp_scale(a, b):
    """ln f(X) with X written through T = a X^-b = a + E, E ~ Exp(1)."""
    c = (1 + b) / b
    return lambda e: mpmath.log(a * b) - e + c * mpmath.log((a + e) / a)


def _order_stat_moment(a, b, n, j, k):
    """E[X_(j)^k] by the alternating binomial sum of incomplete gammas.

    The sum can cancel more than 100 digits deep in the lower tail, so it is
    repeated at doubling precision until two passes agree.
    """
    prev = None
    for dps in (40, 80, 160, 320, 640):
        with mp.workdps(dps):
            s = 1 - mpf(k) / b
            total = mpf(0)
            for r in range(n - j + 1):
                z = a * (j + r)
                term = mpmath.binomial(n - j, r) * z ** (k / b - 1) * mpmath.exp(z) * mpmath.gammainc(s, z)
                total += -term if r % 2 else term
            log_comb = mpmath.loggamma(n + 1) - mpmath.loggamma(j) - mpmath.loggamma(n - j + 1)
            value = a * mpmath.exp(log_comb) * total
        if prev is not None and abs(value - prev) <= mpf(10) ** -(REF_DPS // 2) * abs(value):
            return value
        prev = value
    raise ArithmeticError(f"order-statistic moment reference did not settle at {n, j, k}")


def value(fn: str, args: tuple) -> float:
    """Reference value of `fn` at `args`, rounded to the nearest double.

    `args` uses the same positional layout as the benchmark's op table:
    the parameter pair first, then the function's own arguments.
    """
    with mp.workdps(REF_DPS):
        return _to_float(_value(fn, args))


def _to_float(v) -> float:
    if abs(v) > _HUGE:
        return math.copysign(math.inf, float(mpmath.sign(v)))
    return float(v)


def _value(fn: str, args: tuple):
    if fn == "upper_inc_gamma":
        s, x = (mpf(v) for v in args)
        return mpmath.gammainc(s, x)
    if fn == "stress_strength":
        a1, b1, a2, b2 = (mpf(v) for v in args)
        # R = P(Y < X) = integral over u of F_Y(q_X(u)); x^-b1 = (a1 - ln u)/a1.
        with mp.workdps(_QUAD_DPS):
            return mpmath.quad(
                lambda u: mpmath.exp(-a2 * (((a1 - mpmath.log(u)) / a1) ** (b2 / b1) - 1)),
                [0, mpf(1) / 2, 1],
            )
    a, b = mpf(args[0]), mpf(args[1])
    rest = args[2:]
    if fn in ("pdf", "log_pdf", "cdf", "sf", "hazard", "reversed_hazard"):
        x = mpf(rest[0])
        if fn == "pdf":
            return mpmath.exp(_log_pdf(a, b, x))
        if fn == "log_pdf":
            return _log_pdf(a, b, x)
        if fn == "cdf":
            return _cdf(a, b, x)
        if fn == "sf":
            return _sf(a, b, x)
        if fn == "hazard":
            return mpmath.exp(_log_pdf(a, b, x)) / _sf(a, b, x)
        return a * b * x ** (-(1 + b))
    if fn == "quantile":
        u = mpf(rest[0])
        return (a / (a - mpmath.log(u))) ** (1 / b)
    if fn == "mrl":
        t = mpf(rest[0])
        return _tail_moment(a, b, 1, t) / _sf(a, b, t) - t
    if fn == "eit":
        x = mpf(rest[0])
        z = a * x ** (-b)
        return a ** (1 / b) / b * mpmath.exp(z) * mpmath.gammainc(-1 / b, z)
    if fn == "conditional_moment":
        n, x = int(rest[0]), mpf(rest[1])
        return _tail_moment(a, b, n, x) / _sf(a, b, x)
    if fn == "mean_deviation_about":
        x0 = mpf(rest[0])
        mean = _raw_moment(a, b, 1)
        return 2 * x0 * _cdf(a, b, x0) - mean + 2 * _tail_moment(a, b, 1, x0) - x0
    if fn in ("lorenz", "bonferroni"):
        prob = mpf(rest[0])
        s = 1 - 1 / b
        curve = mpmath.gammainc(s, a - mpmath.log(prob)) / mpmath.gammainc(s, a)
        return curve if fn == "lorenz" else curve / prob
    if fn == "zenga":
        x = mpf(rest[0])
        z = a * x ** (-b)
        # Lower conditional mean m1(x) / F(x), with m1(x) = a^(1/b) e^a Gamma(s; z).
        lower = a ** (1 / b) * mpmath.exp(z) * mpmath.gammainc(1 - 1 / b, z)
        upper = _tail_moment(a, b, 1, x) / _sf(a, b, x)
        return 1 - lower / upper
    if fn == "renyi_entropy":
        g = mpf(rest[0])
        log_gamma = mpmath.log(mpmath.gammainc(g + (g - 1) / b, a * g))
        bracket = (
            a * g
            + (1 - g) / b * mpmath.log(a)
            - (1 - g) * mpmath.log(b)
            + (1 - g * (1 + b)) / b * mpmath.log(g)
            + log_gamma
        )
        return bracket / (1 - g)
    if fn == "shannon_entropy":
        # -E[ln f(X)]; E[ln(a + E)] = ln a + e^a E1(a) for E ~ Exp(1).
        c = (1 + b) / b
        return -mpmath.log(a * b) + 1 - c * mpmath.exp(a) * mpmath.e1(a)
    if fn == "song_measure":
        return _exp_variance(_log_density_on_exp_scale(a, b))
    if fn == "order_stat_moment":
        return _order_stat_moment(a, b, *(int(v) for v in rest))
    raise KeyError(fn)


def digits(got: float, want: float) -> float:
    """Correct significant digits of `got` against `want`, in [0, DIGITS_CAP].

    Values below the normal range are compared on an absolute scale, and
    two infinities of the same sign agree: in both cases the double cannot
    do better.  NaN, a wrong sign or an error of 100% or more give 0.
    """
    if math.isinf(want) or math.isinf(got):
        return DIGITS_CAP if got == want else 0.0
    if math.isnan(got):
        return 0.0
    err = abs(got - want) / max(abs(want), _TINY)
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))
