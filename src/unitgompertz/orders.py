"""Grid-level verification of stochastic orders between two unit-Gompertz laws.

Each checker evaluates the defining inequality of one order on an interior
lattice and reports the first violating point, so a `holds=True` result
means "certified on this grid", not a symbolic proof.  Ratio-type orders
(likelihood ratio, hazard, reversed hazard) are compared as log-differences,
which stay exact deep into the tails where the raw densities underflow.
Pointwise orders compare their defining quantities on the natural scale
with an absolute slack, so all checkers resolve differences at the same
double-precision granularity and the textbook implication chains cannot be
broken by one checker seeing sub-epsilon structure another cannot.

Each order is one row of the table `_ORDERS`: the lattice quantity it
compares and one of three tests, for X against Y.  "ge" and "le" need X's
value >= (<=) Y's at every point; "dec" needs X's value minus Y's to be
nonincreasing along the lattice (for lr, hr and rh: the ratio decreasing).

The integral-based orders use the identities

    int_t^1 sf   = Psi(t) = sf(t) * mrl(t)
    int_0^t cdf  = cdf(t) * eit(t)
    int_0^t 1/mrl = ln mu - ln Psi(t)      (1/mrl = -Psi'/Psi, Psi(0) = mu)

so they reduce to closed forms, and the harmonic-mean residual life is
t / (ln mu - ln Psi(t)) with mu the mean; no checker integrates numerically.
Two orders quantified over whole function classes (stochastic-variability
and star-shaped) admit no finite certificate and are deliberately absent.

Each law's quantities are tabulated on the lattice once and computed on
first use.  Within one `common_scale_order_suite` call the ten checkers
share those tables; no table outlives the call, and a lone `check_order`
builds its own.

With a common scale and alpha_X < alpha_Y, X precedes Y in the likelihood
ratio order, hence in every order implied by it; see `common_scale_order_suite`.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

from .distribution import Params, _as_count, log_cdf, log_pdf, quantile, raw_moment, sf
from .errors import DomainError
from .reliability import eit, mrl

# kind -> (table quantity, test); see the module docstring.
_ORDERS = {
    "st": ("cdf", "ge"),
    "hr": ("log_sf", "dec"),
    "rh": ("log_cdf", "dec"),
    "lr": ("log_pdf", "dec"),
    "mrl": ("mrl", "le"),
    "hmrl": ("hmrl", "le"),  # harmonic mean of mrl over (0, t)
    "eit": ("eit", "ge"),  # note the >=
    "icx": ("psi", "le"),  # integral of sf over (t, 1)
    "icv": ("icv", "ge"),  # integral of cdf over (0, t)
    "disp": ("quantile", "dec"),  # the spread q_Y - q_X nondecreasing
    "ttt": ("ttt", "le"),  # integral of sf over (0, q(u)), on a u-lattice
}
ORDER_KINDS = tuple(_ORDERS)

# Absolute slack on every grid comparison, absorbing float noise without
# hiding real violations.
MONOTONE_SLACK = 1e-10

# (Params, grid_size) -> _Table, set only while a suite runs.
_SHARED_TABLES: ContextVar[dict] = ContextVar("unitgompertz_order_tables")


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one grid check: verdict, first violation, bookkeeping.

    `first_violation` is (t, X's value, Y's value) for a "ge" or "le" order,
    and (t, difference, previous finite difference) for a "dec" order, the
    difference being X's value minus Y's.  For disp that is q_X - q_Y, the
    negative of the spread q_Y - q_X.
    """

    kind: str
    holds: bool
    first_violation: tuple[float, float, float] | None
    grid_size: int
    skipped: int = 0

    def __post_init__(self) -> None:
        if not self.holds and self.first_violation is None:
            raise ValueError("a failed check must carry its first violation")


class _Table:
    """One law's defining quantities on the lattice, each computed on first use.

    The lattice `ts` doubles as the probability lattice of the quantile-based
    orders (`quantile`, `ttt`).
    """

    def __init__(self, p: Params, ts: list[float]):
        self.p = p
        self.ts = ts

    @cached_property
    def log_cdf(self) -> list[float]:
        return [log_cdf(self.p, t) for t in self.ts]

    @cached_property
    def log_pdf(self) -> list[float]:
        return [log_pdf(self.p, t) for t in self.ts]

    @cached_property
    def sf(self) -> list[float]:
        return [sf(self.p, t) for t in self.ts]

    @cached_property
    def log_sf(self) -> list[float]:
        return [math.log(s) for s in self.sf]

    @cached_property
    def cdf(self) -> list[float]:
        return [math.exp(v) for v in self.log_cdf]

    @cached_property
    def mrl(self) -> list[float]:
        return [mrl(self.p, t) for t in self.ts]

    @cached_property
    def eit(self) -> list[float]:
        return [eit(self.p, t) for t in self.ts]

    @cached_property
    def psi(self) -> list[float]:
        """Psi(t) = integral of sf over (t, 1)."""
        return [s * m for s, m in zip(self.sf, self.mrl)]

    @cached_property
    def icv(self) -> list[float]:
        """Integral of cdf over (0, t)."""
        return [c * e for c, e in zip(self.cdf, self.eit)]

    @cached_property
    def hmrl(self) -> list[float]:
        """t / (ln mu - ln Psi(t)); NaN (skipped) where Psi is not positive."""
        log_mean = math.log(raw_moment(self.p, 1))
        return [
            t / (log_mean - math.log(v)) if v > 0.0 else math.nan
            for t, v in zip(self.ts, self.psi)
        ]

    @cached_property
    def quantile(self) -> list[float]:
        return [quantile(self.p, u) for u in self.ts]

    @cached_property
    def ttt(self) -> list[float]:
        """Integral of sf over (0, q(u)) = q - u * eit(q), on the u-lattice."""
        return [q - u * eit(self.p, q) for u, q in zip(self.ts, self.quantile)]


def _table(tables: dict, p: Params, grid_size: int) -> _Table:
    key = (p, grid_size)
    table = tables.get(key)
    if table is None:
        ts = [i / (grid_size + 1) for i in range(1, grid_size + 1)]
        table = tables[key] = _Table(p, ts)
    return table


def _scan(kind: str, test: str, ts, xs, ys) -> OrderReport:
    """Run one order's test over the lattice; see `_ORDERS`.

    "ge"/"le" skip points where either value is NaN; "dec" skips points
    where the difference is not finite.
    """
    skipped = 0
    prev = None
    for t, a, b in zip(ts, xs, ys):
        if test == "dec":
            # "le" on the difference against the last finite difference.
            d = a - b
            if not math.isfinite(d):
                skipped += 1
                continue
            a, b, prev = d, prev, d
            if b is None:
                continue
        elif math.isnan(a) or math.isnan(b):
            skipped += 1
            continue
        if (a < b - MONOTONE_SLACK) if test == "ge" else (a > b + MONOTONE_SLACK):
            return OrderReport(kind, False, (t, a, b), len(ts), skipped)
    return OrderReport(kind, True, None, len(ts), skipped)


def check_order(kind: str, x: Params, y: Params, grid_size: int = 128) -> OrderReport:
    """Check whether X precedes Y in the given order, on an interior lattice.

    The lattice is t_i = i / (grid_size + 1); quantile-based orders (disp,
    ttt) use the same lattice in probability space.  Lattice points where a
    defining ratio degenerates to 0/0 are skipped and counted.
    """
    if kind not in _ORDERS:
        raise DomainError(f"unknown order kind {kind!r}; choose from {ORDER_KINDS}")
    grid_size = _as_count(grid_size, 64, "grid_size")
    name, test = _ORDERS[kind]
    tables = _SHARED_TABLES.get({})
    tx, ty = (_table(tables, p, grid_size) for p in (x, y))
    return _scan(kind, test, tx.ts, getattr(tx, name), getattr(ty, name))


SUITE_ORDER_KINDS = ("lr", "hr", "rh", "mrl", "eit", "st", "hmrl", "ttt", "icx", "icv")


def common_scale_order_suite(
    alpha1: float, alpha2: float, beta: float, grid_size: int = 128
) -> list[OrderReport]:
    """Run the full order battery for X = (alpha1, beta) vs Y = (alpha2, beta).

    Requires alpha1 < alpha2, the regime in which X precedes Y in the
    likelihood-ratio order and therefore in every weaker order checked here.
    Returns one report per order; all should hold.  The ten checks share
    each law's lattice tables for the duration of this call only.
    """
    if not alpha1 < alpha2:
        raise DomainError(
            f"suite requires alpha1 < alpha2, got {alpha1!r} >= {alpha2!r}"
        )
    x = Params(alpha1, beta)
    y = Params(alpha2, beta)
    token = _SHARED_TABLES.set({})
    try:
        return [check_order(kind, x, y, grid_size) for kind in SUITE_ORDER_KINDS]
    finally:
        _SHARED_TABLES.reset(token)
