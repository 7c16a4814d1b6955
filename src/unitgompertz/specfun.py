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

Series stop at a term below _EPS of their sum; continued fractions once a
step's ratio is within 2 * _EPS of 1, since past x ~ 2^53, where b = x + 1 - s
absorbs its b += 2, that ratio can settle at 1 - 2^-53, beyond _EPS.

The ratio r = x^-s e^x Gamma(s; x) (`_tail_ratio`), which the continued
fraction and the recurrence yield directly, stays finite where Gamma(s; x)
and x^s leave the double range together.

`upper_inc_gamma_scaled` also takes x as a 1-d float array with one scalar s.
Its array form runs each loop above as numpy arithmetic over all elements at
once, driven by `_converge`, which advances the state arrays and retires each
element at the iteration where its scalar loop would stop.  Only +, -, *, /,
abs and comparisons act on arrays; every log, exp, expm1, power and gamma
runs element by element through `math` (`_elementwise`), so each element is
bit-identical to the scalar call, and numpy's error state is set to Python's
float semantics (`_PYTHON_FLOAT`) for the duration.

The tail integral of e^(-t) (ln t)^2 over (a, inf) is gamma^2 + pi^2/6 minus
the termwise-integrated power series of e^(-t) for small a, and the second
s-derivative of the Legendre continued fraction at s = 1 above that.
"""

from __future__ import annotations

import math

import numpy as np

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
        if abs(delta - 1.0) < 2.0 * _EPS:
            return h
    raise OracleError(f"continued fraction for Gamma({s}, {x}) did not converge")


def _exp_or_inf(arg: float, scale: float = 1.0) -> float:
    """e^arg * scale, saturating to inf; where e^arg alone overflows, scale
    goes between two factors e^(arg/2), so a product that fits is kept."""
    try:
        return math.exp(arg) * scale
    except OverflowError:
        pass
    try:  # past arg = 1419.6 the product overflows too, for any scale > 1e-308
        half = math.exp(0.5 * arg)
    except OverflowError:
        return math.inf
    return half * scale * half


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
    return a, _rgamma_head(a) - math.expm1(a * math.log(x)) / a - x**a * total


def _rgamma_head(a: float) -> float:
    """(Gamma(1+a) - 1)/a for |a| < _RGAMMA_SEAM, a != 0."""
    q = 0.0
    for c in reversed(_RGAMMA_Q):
        q = q * a + c
    # 1/Gamma(1+a) = 1 + a*q, so (Gamma(1+a) - 1)/a = -q / (1 + a*q).
    return -q / (1.0 + a * q)


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
        return _exp_or_inf(x - s * math.log(x), upper_inc_gamma(s, x))
    return _recur(s, x, *_seed(s, x))


def upper_inc_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s; x) for any finite real s and x > 0.

    Relative accuracy is 1e-12 for s >= 0 and 1e-10 for s < 0.  The result
    is positive; it underflows to 0.0 only when the true value is below the
    smallest subnormal double.
    """
    _check_args(s, x)
    if _by_continued_fraction(s, x):
        return _exp_or_inf(s * math.log(x) - x, _cf_factor(s, x))
    if s >= 0.5:
        return math.gamma(s) - _lower_series(s, x)
    return _small_x(s, x)


def upper_inc_gamma_scaled(s: float, x: float) -> float:
    """e^x * Gamma(s; x): the numerically safe form for tail products.

    Every closed form in this package that multiplies Gamma(s; z) by e^z (or
    by e^alpha with z >= alpha) should go through this function; the bare
    product overflows once z passes ~700.

    x may also be a 1-d float array, with s one scalar shape: the array form
    returns every element bit-identical to the scalar call.  It raises
    DomainError before any work if s or some element is outside the domain,
    and otherwise OracleError where a scalar call would.
    """
    if isinstance(x, np.ndarray):
        return _scaled_array(s, x)
    _check_args(s, x)
    if _by_continued_fraction(s, x):
        return _exp_or_inf(s * math.log(x), _cf_factor(s, x))
    # x < 1 here, so the e^x factor is harmless.
    return math.exp(x) * upper_inc_gamma(s, x)


# Python's float arithmetic, for the numpy steps of the array forms: overflow,
# underflow and nan are silent, and only division by zero raises.
_PYTHON_FLOAT = {"over": "ignore", "under": "ignore", "invalid": "ignore", "divide": "raise"}


def _elementwise(f, *arrays: np.ndarray) -> np.ndarray:
    """f over the elements of equal-length 1-d arrays, as Python floats."""
    return np.fromiter(map(f, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def _piecewise(mask: np.ndarray, when, otherwise) -> np.ndarray:
    """when(mask) where mask holds and otherwise(~mask) elsewhere; each is
    called with its selection only if that selection is not empty."""
    out = np.empty(len(mask))
    for pick, f in ((mask, when), (~mask, otherwise)):
        if pick.any():
            out[pick] = f(pick)
    return out


def _converge(step, state: tuple, steps: range, fail) -> np.ndarray:
    """A scalar loop over 1-d arrays of its states at once.

    The loop is `for k in steps: state, done = step(k, *state)`, returning
    state[0] once done.  Each element retires at the iteration where its own
    loop would return, and step uses only +, -, *, /, abs and comparisons,
    so every result is bit-identical to the scalar loop's.  Retired elements
    ride along, ignored, until they are half the arrays, which are then
    compacted; step must not raise on them.  If elements are left after the
    last step, raises fail(i) for the first such index i.
    """
    out = np.empty(len(state[0]))
    index = np.arange(len(out))
    live = np.ones(len(out), dtype=bool)
    left = len(out)
    for k in steps:
        if not left:
            return out
        state, done = step(k, *state)
        done &= live
        if done.any():
            out[index[done]] = state[0][done]
            live &= ~done
            left = np.count_nonzero(live)
            if 2 * left <= len(live):
                index, state, live = index[live], [v[live] for v in state], live[live]
    if left:
        raise fail(int(index[live][0]))
    return out


def _cf_factor_array(s: float, x: np.ndarray) -> np.ndarray:
    """`_cf_factor` at each element of x."""

    def step(i, h, b, c, d):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = d * c
        return (h * delta, b, c, d), np.abs(delta - 1.0) < 2.0 * _EPS

    b = x + 1.0 - s
    d = 1.0 / b
    return _converge(step, (d, b, np.full(len(x), 1.0 / _TINY), d), range(1, _MAX_ITER),
                     lambda j: OracleError(f"continued fraction for Gamma({s}, {float(x[j])})"
                                           " did not converge"))


def _lower_series_array(s: float, x: np.ndarray) -> np.ndarray:
    """`_lower_series` at each element of x."""
    ap = s  # the same for every element: one running sum, as in the scalar loop

    def step(_, total, term, x):
        nonlocal ap
        ap += 1.0
        term = term * (x / ap)
        total = total + term
        return (total, term, x), np.abs(term) < np.abs(total) * _EPS

    first = np.full(len(x), 1.0 / s)
    total = _converge(step, (first, first, x), range(_MAX_ITER),
                      lambda j: OracleError(f"series for lower incomplete gamma({s}, {float(x[j])})"
                                            " did not converge"))
    return _elementwise(lambda v, t: t * math.exp(s * math.log(v) - v), x, total)


def _small_x_array(s: float, x: np.ndarray) -> np.ndarray:
    """`_small_x` at each element of x: `_seed`, then `_recur`, over the array."""
    a = s - math.floor(s + 0.5)

    def step(k, total, term, x):
        term = term * (-x / k)
        contrib = term / (a + k)
        total = total + contrib
        return (total, term, x), np.abs(contrib) <= np.abs(total) * _EPS

    total = _converge(step, (np.zeros(len(x)), np.ones(len(x)), x), range(1, _MAX_ITER),
                      lambda j: OracleError(f"series for Gamma({a}, {float(x[j])}) did not converge"))
    if abs(a) >= _RGAMMA_SEAM:
        head = math.gamma(a)
        g = _elementwise(lambda v, t: head - v**a * (1.0 / a + t), x, total)
    elif a == 0.0:
        g = _elementwise(lambda v, t: -_RGAMMA_Q[0] - math.log(v) - t, x, total)
    else:
        head = _rgamma_head(a)
        g = _elementwise(lambda v, t: head - math.expm1(a * math.log(v)) / a - v**a * t, x, total)
    if a == s:
        return g
    r = _elementwise(lambda v, gv: math.exp(v) * v**-a * gv, x, g)
    for _ in range(round(a - s)):
        a -= 1.0
        r = (x * r - 1.0) / a

    def scale(v, rv):
        try:
            half = v ** (0.5 * s)
        except OverflowError:
            return math.inf
        return half * (half * math.exp(-v) * rv)

    return _elementwise(scale, x, r)


def _scaled_array(s: float, x: np.ndarray) -> np.ndarray:
    """`upper_inc_gamma_scaled` at each element of the 1-d array x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"lower limit must be a float or a 1-d array, got a {x.ndim}-d array")
    bad = np.flatnonzero(~(np.isfinite(x) & (x > 0.0)))
    _check_args(s, float(x[bad[0]]) if bad.size else 1.0)  # s first, then the first bad x
    with np.errstate(**_PYTHON_FLOAT):
        return _piecewise(
            ((x >= 1.0) & (x >= s + 1.0)) | (s < -_MAX_ITER),
            lambda pick: _elementwise(lambda v, h: _exp_or_inf(s * math.log(v), h),
                                      x[pick], _cf_factor_array(s, x[pick])),
            lambda pick: _below_cf_array(s, x[pick]),
        )


def _below_cf_array(s: float, x: np.ndarray) -> np.ndarray:
    """e^x * Gamma(s; x) at each x < max(1, s + 1), as the scalar form gives it."""
    if s >= 0.5:
        head = math.gamma(s)
        return _elementwise(lambda v, low: math.exp(v) * (head - low), x, _lower_series_array(s, x))
    return _elementwise(lambda v, g: math.exp(v) * g, x, _small_x_array(s, x))


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
        if abs(ev - 1.0) + abs(e1) + abs(e2) < 2.0 * _EPS:
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
