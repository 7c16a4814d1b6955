"""Independent ground truth: adaptive quadrature and seeded Monte Carlo.

Every closed form in this package is checked against this module before it
is trusted.  The integrator is an adaptive-bisection Gauss-Kronrod (G7/K15)
rule; an infinite upper limit is folded onto (0, 1) by the substitution
t = a + u/(1-u).  Monte Carlo expectations use numpy's Philox counter-based
generator so that results are reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, OracleError

# Hard limit on the number of subintervals; exceeding it raises, never
# returns a silent result.
SUBDIVISION_CAP = 20_000

# 15 Kronrod nodes on (-1, 1) with Kronrod weights and the embedded 7-point
# Gauss weights (zero at the Kronrod-only nodes).
_GK15 = (
    (-0.991455371120813, 0.022935322010529, 0.0),
    (-0.949107912342759, 0.063092092629979, 0.129484966168870),
    (-0.864864423359769, 0.104790010322250, 0.0),
    (-0.741531185599394, 0.140653259715525, 0.279705391489277),
    (-0.586087235467691, 0.169004726639267, 0.0),
    (-0.405845151377397, 0.190350578064785, 0.381830050505119),
    (-0.207784955007898, 0.204432940075298, 0.0),
    (0.0, 0.209482141084728, 0.417959183673469),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.991455371120813, 0.022935322010529, 0.0),
)


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error bound and subdivision count of one adaptive integration."""

    value: float
    error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class McResult:
    """Sample mean, its standard error, and the draw count/seed behind them."""

    mean: float
    std_error: float
    n: int
    seed: int


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One K15/G7 panel on [a, b]; returns (K15 value, |K15 - G7|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    k15 = 0.0
    g7 = 0.0
    for node, wk, wg in _GK15:
        x = mid + half * node
        if not a < x < b:  # the panel is too narrow for distinct nodes
            raise OracleError(f"panel [{a!r}, {b!r}] cannot be split further")
        y = f(x)
        if not math.isfinite(y):
            raise OracleError(f"integrand returned {y!r} at x={x!r}")
        k15 += wk * y
        g7 += wg * y
    return k15 * half, abs(k15 - g7) * half


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Integrate f over (a, b), where b may be math.inf.

    Stops when the summed panel error bound is at most rel_tol * |value|.
    Endpoints are never evaluated (the rule is open), so integrable endpoint
    singularities are handled by bisection.  Raises OracleError if
    SUBDIVISION_CAP panels are not enough, a panel is too narrow for its
    nodes, or the integrand produces a non-finite value.
    """
    if not rel_tol > 0:
        raise DomainError("rel_tol must be positive")
    if math.isinf(b):
        g = f
        shift = a
        f = lambda u: g(shift + u / (1.0 - u)) / (1.0 - u) ** 2  # noqa: E731
        a, b = 0.0, 1.0
    if not a < b:
        raise DomainError("integration requires a < b")

    val, err = _gk15(f, a, b)
    total_val = val
    total_err = err
    # Max-heap on the error bound; the counter breaks ties deterministically.
    heap = [(-err, 0, a, b, val)]
    count = 1
    while total_err > rel_tol * abs(total_val):
        if count >= SUBDIVISION_CAP:
            raise OracleError(
                f"no convergence after {SUBDIVISION_CAP} subdivisions "
                f"(error estimate {total_err: .3e})"
            )
        neg_err, _, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - old_val
        total_err += e1 + e2 + neg_err  # neg_err is -old_err
        count += 1
        heapq.heappush(heap, (-e1, 2 * count, lo, mid, v1))
        heapq.heappush(heap, (-e2, 2 * count + 1, mid, hi, v2))
    # Re-sum the panels exactly; the incremental total can drift by a few ulp
    # per subdivision, which matters at 1e-12 targets.
    value = math.fsum(item[4] for item in heap)
    error = math.fsum(-item[0] for item in heap)
    return QuadratureResult(value, error, count)


def mc_expect(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    n: int,
    seed: int,
) -> McResult:
    """Monte Carlo estimate of E[g(X)] with X drawn by `sampler`.

    `sampler(rng, n)` must return n draws using only the supplied generator,
    and `g` must accept an ndarray.  The generator is Philox seeded with
    `seed`, so results are bit-reproducible for fixed (sampler, g, n, seed).
    """
    if n < 100:
        raise DomainError("mc_expect needs n >= 100")
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = np.asarray(sampler(rng, n), dtype=float)
    vals = np.broadcast_to(np.asarray(g(x), dtype=float), x.shape)
    mean = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(n))
    return McResult(mean, std_error, n, seed)
