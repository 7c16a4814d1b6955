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

Incomplete moments all come from one kernel, alpha^m e^z Gamma(1 - m; z)
with m = n/beta and z = alpha + w (`_power_gamma`, `_kernel`), formed from
specfun's ratio r = z^-s e^z Gamma(s; z) as exp(-m ln(z/alpha)) z r at any
m and alpha, or in the lower series from e^z Gamma(s; z).  Its w = 0 case,
the per-law constant, is computed once, in the bounded memo `_head`, so a
curve or an order-suite lattice pays it once per law, not once per point.
The tail integrals over (x, 1), `_tail_moment` and `_integrated_sf`, are
E[X^n] minus the kernel; near x = 1 they are instead summed as Taylor series
in v over (0, w) by `_endpoint_mean` (the endpoint branch), which leaves
nothing to cancel.

log_cdf, log_pdf, pdf, cdf, sf and quantile take x as a float or a 1-d
array.  A scalar call tests the type once and then calls only private
helpers; ln(alpha * beta) is formed once per Params, as ln alpha + ln beta
where the product leaves the normal doubles.  An array call is the scalar
loop itself (`_each_point`): a numpy form of these closed forms measured
no faster end to end (ROADMAP, item 6).

Each of `_neg_log_cdf`, `_power_gamma`, `_lower_moment`, `_endpoint_mean`,
`_tail_moment` and `_integrated_sf` has an `_array` counterpart that takes a
1-d array of points and returns each element bit-identical to the scalar
helper: `_neg_log_cdf_array` maps expm1 over -beta ln x, or the scalar
helper over all points if math raises at one, `_power_gamma_array` makes
one array call per specfun regime for all points, and the endpoint series
runs under specfun's retire-on-convergence loop `_converge`.  These serve
the array forms here and in `reliability` and `inequality`; `_on_points`
checks their input as the scalar loop would.
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

_MIN = sys.float_info.min
_ndarray = np.ndarray  # what the public functions dispatch on


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
        # ln(alpha * beta), in the density and both hazards; not a field.
        object.__setattr__(self, "_log_alpha_beta", _log_product(self.alpha, self.beta))


def _log_product(a: float, b: float) -> float:
    """ln(a * b) for a, b > 0; ln a + ln b where the product is not a normal double."""
    ab = a * b
    if _MIN <= ab < math.inf:
        return math.log(ab)
    return math.log(a) + math.log(b)


# The endpoint series run while w * max(1, alpha + m) <= _ENDPOINT_SEAM * alpha,
# so every ratio of successive terms stays near 1/2 or below.
_ENDPOINT_SEAM = 0.5

# Two levels of `_v_integral`'s rule agree to this, relative to the value,
# and each of its walks stops at a node below its square against the sum.
_V_REL_TOL = 1e-13


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


def _v_integral(log_g) -> float:
    """Integral over v > 0 of h, given log_g(u) = ln(v h(v)) at v = e^u.

    v h must be log-concave in u and carry the factor e^-v.  After a peak
    search, a trapezoid rule in t on u = u* + t - expm1(-t) + (cosh t - 1)/8
    halves its step until two levels agree to _V_REL_TOL (README, "Two
    quantities have no closed form").  Sums are in units of the largest node.
    """
    edge = -math.log(sys.float_info.min)
    lo, hi = -2.0 * edge, edge  # at alpha = beta = 1e-300 the peak is near v = 1e-600
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        if log_g(mid + 0.25) > log_g(mid - 0.25):
            lo = mid
        else:
            hi = mid
    centre = 0.5 * (lo + hi)

    def node(t: float) -> float:  # ln of the integrand in t, with e = e^-t
        e = math.exp(-t)
        u = centre + t + 1.0 - e + (e + 1.0 / e - 2.0) / 16.0
        lv = log_g(u) + math.log(1.0 + e + (1.0 / e - e) / 16.0) if u <= edge else -math.inf
        if lv != lv:
            raise OracleError(f"integrand returned nan at ln v = {u!r}")
        return lv

    top = node(0.0)  # the sums are in units of e^top, the largest node so far
    total = 1.0 if top > -math.inf else 0.0
    best, step, stride, last = 0, 1.0, 1, None  # node i sits at t = i * step
    for _ in range(16):
        start, anchor = best, top
        for side in (1, -1):
            prior = math.exp(anchor - top) if total else 0.0
            i = start + side
            while True:
                lv = node(i * step)
                if lv > top:
                    scale = math.exp(top - lv)
                    total, prior, top, best = total * scale, prior * scale, lv, i
                    last = None if last is None else last * scale
                y = math.exp(lv - top) if lv > -math.inf else 0.0
                total += y
                if y <= prior and y <= _V_REL_TOL**2 * total:
                    break
                prior, i = y, i + side * stride
        value = step * total
        if last is not None and abs(value - last) <= _V_REL_TOL * value:
            return math.exp(top + math.log(value)) if value else 0.0
        last, step, best, stride = value, 0.5 * step, 2 * best, 2  # add the odd nodes
    raise OracleError("trapezoid rule in ln v did not converge")


def _outside_unit(x) -> DomainError:
    return DomainError(f"x must lie in [0.0, 1.0], got {x!r}")


# Each public function below takes x as a float or a 1-d array.  A float
# passes the dispatch on `type(x) is not float` alone, and a scalar call
# then calls only private helpers, never another public function: one more
# dispatch per nested call costs a scalar call 25-45% (ROADMAP, item 6).


def log_cdf(p: Params, x: float) -> float:
    """log F(x) = -w; exact even when F underflows or x is next to 1."""
    if type(x) is not float and isinstance(x, _ndarray):
        return _each_point(log_cdf, p, x)
    if not 0.0 <= x <= 1.0:
        raise _outside_unit(x)
    return -_neg_log_cdf(p, x)


def log_pdf(p: Params, x: float) -> float:
    """log f(x), computed entirely in log space.

    Returns -inf at x = 0 (continuous convention); raises DomainError
    outside [0, 1].
    """
    if type(x) is not float and isinstance(x, _ndarray):
        return _each_point(log_pdf, p, x)
    if not 0.0 <= x <= 1.0:
        raise _outside_unit(x)
    if x == 0.0:
        return -math.inf
    return p._log_alpha_beta - _neg_log_cdf(p, x) - (1.0 + p.beta) * math.log(x)


def pdf(p: Params, x: float) -> float:
    """Density f(x) on [0, 1]; f(0) = 0 and f(1) = alpha * beta exactly."""
    if type(x) is not float and isinstance(x, _ndarray):
        return _each_point(pdf, p, x)
    if x == 1.0:
        return p.alpha * p.beta
    if not 0.0 <= x <= 1.0:
        raise _outside_unit(x)
    if x == 0.0:
        return 0.0
    try:
        return math.exp(p._log_alpha_beta - _neg_log_cdf(p, x) - (1.0 + p.beta) * math.log(x))
    except OverflowError:  # ln f past 709.78: f is past the doubles
        return math.inf


def cdf(p: Params, x: float) -> float:
    """Distribution function F(x); 0 at x = 0 and 1 at x = 1."""
    if type(x) is not float and isinstance(x, _ndarray):
        return _each_point(cdf, p, x)
    if not 0.0 <= x <= 1.0:
        raise _outside_unit(x)
    return math.exp(-_neg_log_cdf(p, x))


def sf(p: Params, x: float) -> float:
    """Survival function 1 - F(x), via expm1 so precision survives x -> 1."""
    if type(x) is not float and isinstance(x, _ndarray):
        return _each_point(sf, p, x)
    if not 0.0 <= x <= 1.0:
        raise _outside_unit(x)
    return -math.expm1(-_neg_log_cdf(p, x))


def quantile(p: Params, u: float) -> float:
    """Inverse cdf: x = (alpha / (alpha - ln u))^(1/beta) for u in (0, 1]."""
    if type(u) is not float and isinstance(u, _ndarray):
        return _each_point(quantile, p, u)
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


def _power_gamma(p: Params, n: int, w: float) -> float:
    """alpha^m * e^z * Gamma(1 - m; z) at m = n/beta and z = alpha + w.

    The product under every incomplete-moment closed form; at w = 0 it is the head.
    """
    return (_head if w == 0.0 else _kernel)(p.alpha, _order(p, n), 1, w)


def _order(p: Params, n: int) -> float:
    """m = n/beta, or DomainError where it passes the double range."""
    m = n / p.beta
    if m == math.inf:
        raise DomainError(f"n/beta is past the double range at n = {n}, beta = {p.beta!r}")
    return m


def _kernel(alpha: float, m: float, k: int, w: float) -> float:
    """alpha^m e^z Gamma(k - m; z), z = alpha + w, from what specfun's regime computes.

    In the series (s >= 1/2 below s + 1, taken at k = 1 only, so alpha^m with
    m <= 1/2 is a normal double) that is e^z Gamma(s; z); elsewhere r = z^-s e^z Gamma(s; z), with
    (alpha/z)^m z^k r formed without z^s, whose rounding costs eps*m.
    """
    s, z = k - m, alpha + w
    specfun._check_args(s, z)
    if s >= 0.5 and z < s + 1.0:
        return alpha**m * math.exp(z) * (math.gamma(s) - specfun._lower_series(s, z))
    u = w / alpha  # ln(z/alpha) is ln w - ln alpha where u passes the doubles (alpha subnormal)
    rise = math.log1p(u) if u < math.inf else math.log(w) - math.log(alpha)
    return math.exp(-m * rise) * z**k * specfun._tail_ratio(s, z)


# The per-law constants E[X^n] = _head(alpha, n/beta, 1, 0.0) and e^alpha E1(alpha)
# = _head(alpha, 0.0, 0, 0.0); the 256 latest are kept, and exceptions are not.
_head = functools.lru_cache(maxsize=256)(_kernel)


def _lower_moment(p: Params, n: int, w: float) -> float:
    """E[X^n; X <= x] = e^-w * alpha^m * e^z Gamma(1 - m; z), m = n/beta, w = -ln F(x).

    0.0 once e^-w underflows, without the gamma call, which rejects the
    z = inf of w = inf.
    """
    if w > 745.0:  # also w = inf
        return 0.0
    return math.exp(-w) * _power_gamma(p, n, w)


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
        return (w / p.alpha) * (_endpoint_mean(p, m, w, survival=True) / p.beta)
    return _tail_moment(p, 1, w) - t * -math.expm1(-w)


def _each_point(fn, p: Params, x: np.ndarray) -> np.ndarray:
    """fn's array form as the scalar loop: fn(p, v) at each element v of x, as a float."""
    return specfun._elementwise(functools.partial(fn, p), specfun._one_d(fn, x))


def _on_points(fn, p: Params, x: np.ndarray, inside, body) -> np.ndarray:
    """fn's array form: body(p, x), with numpy's arithmetic under Python's float semantics.

    x becomes a 1-d float array, checked as [fn(p, v) for v in x] is: at the
    first element where inside(x) is False, the elements before it are
    evaluated, then fn raises its own DomainError at it.
    """
    x = specfun._one_d(fn, x)
    bad = np.flatnonzero(~inside(x))
    if bad.size:
        fn(p, x[: bad[0]])
        fn(p, float(x[bad[0]]))
    with np.errstate(**specfun._PYTHON_FLOAT):
        return body(p, x)


def _in_unit(x: np.ndarray) -> np.ndarray:
    """Inside [0, 1]."""
    return (0.0 <= x) & (x <= 1.0)


def _in_open_unit(x: np.ndarray) -> np.ndarray:
    """Inside (0, 1]."""
    return (0.0 < x) & (x <= 1.0)


def _quotient(num: np.ndarray, den) -> np.ndarray:
    """num / den, raising ZeroDivisionError wherever Python's division would."""
    if not np.all(den):
        raise ZeroDivisionError("float division by zero")
    return num / den


def _neg_log_cdf_array(p: Params, x: np.ndarray) -> np.ndarray:
    """`_neg_log_cdf` at each element of x in [0, 1]: alpha * expm1(-beta ln x), or
    the scalar helper at all if math raises at one (ln 0, or expm1 past the doubles)."""
    try:
        t = -p.beta * specfun._elementwise(math.log, x)
        w = p.alpha * specfun._elementwise(math.expm1, t)
    except (OverflowError, ValueError):
        return specfun._elementwise(functools.partial(_neg_log_cdf, p), x)
    w[x == 1.0] = 0.0  # not the -0.0 of expm1(-0.0)
    return w


def _power_gamma_array(p: Params, n: int, w: np.ndarray) -> np.ndarray:
    """`_power_gamma` at each element of w, in one array call per specfun regime."""
    m = _order(p, n)
    s, z = 1.0 - m, p.alpha + w
    specfun._check_args(s, float(z.max()))  # z > 0: only inf can be out of the domain
    each = specfun._elementwise
    return specfun._piecewise(
        (z < s + 1.0) & (s >= 0.5),
        lambda i: p.alpha**m * each(math.exp, z[i])
        * (math.gamma(s) - specfun._lower_series_array(s, z[i])),
        lambda i: each(math.exp, -m * _log_rise_array(p.alpha, w[i]))
        * z[i] * specfun._tail_ratio_array(s, z[i]),
    )


def _log_rise_array(alpha: float, w: np.ndarray) -> np.ndarray:
    """ln(z/alpha) at each element of w, as `_kernel` forms it."""
    u = w / alpha
    return specfun._piecewise(u < math.inf, lambda i: specfun._elementwise(math.log1p, u[i]),
                              lambda i: specfun._elementwise(math.log, w[i]) - math.log(alpha))


def _lower_moment_array(p: Params, n: int, w: np.ndarray) -> np.ndarray:
    """`_lower_moment` at each element of w."""
    return specfun._piecewise(
        w > 745.0,
        lambda _: 0.0,
        lambda pick: specfun._elementwise(math.exp, -w[pick]) * _power_gamma_array(p, n, w[pick]),
    )


def _endpoint_mean_array(p: Params, m: float, w: np.ndarray, survival: bool = False) -> np.ndarray:
    """`_endpoint_mean` at each element of w."""

    def step(k, total, prev, cur, q, u, w, source):
        prev, cur = cur, -u * ((k + m + p.alpha) * cur + w * prev + source * q / k) / (k + 1)
        q = q * (-u * (k - 1 + m) / k)
        total = total + cur / (k + 2)
        return (total, prev, cur, q, u, w, source), np.abs(cur) <= specfun._EPS * np.abs(total)

    u = w / p.alpha
    ones = np.ones(len(w))
    if survival:
        prev, cur, source = 0.0 * ones, w, (m - 1.0) * w
    else:
        prev, cur, source = ones, -u * (m + p.alpha), 0.0 * ones
    return specfun._converge(
        step, (prev + cur / 2.0, prev, cur, ones, u, w, source), range(1, 200),
        lambda j: OracleError(f"endpoint series at w = {float(w[j])} did not converge"))


def _tail_moment_array(p: Params, n: int, w: np.ndarray, lower: np.ndarray | None = None) -> np.ndarray:
    """`_tail_moment` at each element of w; lower, if given, is an array like w."""
    m = n / p.beta
    return specfun._piecewise(
        _at_endpoint(p, m, w),
        lambda pick: w[pick] * _endpoint_mean_array(p, m, w[pick]),
        lambda pick: raw_moment(p, n)
        - (_lower_moment_array(p, n, w[pick]) if lower is None else lower[pick]),
    )


def _integrated_sf_array(p: Params, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`_integrated_sf` at each element of t, with w = -ln F(t) like it."""
    m = 1.0 + 1.0 / p.beta
    return specfun._piecewise(
        _at_endpoint(p, m, w),
        lambda pick: (w[pick] / p.alpha)
        * (_endpoint_mean_array(p, m, w[pick], survival=True) / p.beta),
        lambda pick: _tail_moment_array(p, 1, w[pick])
        - t[pick] * -specfun._elementwise(math.expm1, -w[pick]),
    )


def raw_moment(p: Params, n: int) -> float:
    """E[X^n] = alpha^(n/beta) * e^alpha * Gamma(1 - n/beta; alpha), n >= 1.

    Finite for every moment order: the incomplete-gamma lower limit is
    alpha > 0, so no extra existence condition on n versus beta is needed
    (nor imposed here).
    """
    return _lower_moment(p, _as_count(n, 1, "moment order"), 0.0)


def log_pdf_second_derivative(p: Params, x: float) -> float:
    """d^2/dx^2 log f(x) = -((1 + beta) / x^2) * (beta * (alpha + w) - 1)."""
    if not 0.0 <= x <= 1.0:
        raise _outside_unit(x)
    if x == 0.0:
        raise DomainError("second derivative undefined at x = 0")
    return -((1.0 + p.beta) / (x * x)) * (p.beta * (p.alpha + _neg_log_cdf(p, x)) - 1.0)


def log_concavity_bound(p: Params) -> float:
    """Upper end of the log-concavity region: min((alpha*beta)^(1/beta), 1)."""
    base = p.alpha * p.beta  # at or above 1, so is the power, which may overflow
    return 1.0 if base >= 1.0 else base ** (1.0 / p.beta)


def mode(p: Params) -> float:
    """Unique mode min((alpha*beta/(1+beta))^(1/beta), 1).

    The unconstrained stationary point of log f can exceed the support, in
    which case the density is increasing throughout and the mode is the
    endpoint x = 1.
    """
    base = p.alpha * p.beta / (1.0 + p.beta)  # as in log_concavity_bound
    return 1.0 if base >= 1.0 else base ** (1.0 / p.beta)
