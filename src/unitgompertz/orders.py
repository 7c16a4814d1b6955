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

Implemented orders and their defining comparisons, for X against Y:

    st    F_X(t) >= F_Y(t)                      everywhere
    hr    sf_X(t) / sf_Y(t)                     decreasing
    rh    F_X(t) / F_Y(t)                       decreasing
    lr    f_X(t) / f_Y(t)                       decreasing
    mrl   mrl_X(t) <= mrl_Y(t)                  everywhere
    eit   eit_X(t) >= eit_Y(t)                  everywhere (note the >=)
    hmrl  harmonic mean of mrl_X up to t <= same for Y
    icx   integral of sf over (t, 1): X <= Y    everywhere
    icv   integral of cdf over (0, t): X >= Y   everywhere
    ttt   integral of sf over (0, q(p)): X <= Y on a p-lattice
    disp  quantile spread q_Y(u) - q_X(u)       nondecreasing

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

ORDER_KINDS = ("st", "hr", "rh", "lr", "mrl", "hmrl", "eit", "icx", "icv", "disp", "ttt")

# Absolute slack on every grid comparison, absorbing float noise without
# hiding real violations.
MONOTONE_SLACK = 1e-10

# Orders compared as a decreasing log-ratio, by table quantity.
_LOG_RATIO = {"lr": "log_pdf", "hr": "log_sf", "rh": "log_cdf"}
# Pointwise orders: table quantity, and whether X's value must be >= Y's.
_POINTWISE = {
    "st": ("cdf", True),
    "mrl": ("mrl", False),
    "eit": ("eit", True),
    "hmrl": ("hmrl", False),
    "icx": ("psi", False),
    "icv": ("icv", True),
    "ttt": ("ttt", False),
}

# (Params, grid_size) -> _Table, set only while a suite runs.
_SHARED_TABLES: ContextVar[dict] = ContextVar("unitgompertz_order_tables")


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one grid check: verdict, first violation, bookkeeping."""

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


def _pointwise(kind, ts, lhs, rhs, ge: bool) -> OrderReport:
    """lhs >= rhs (or <=) at every lattice point, within MONOTONE_SLACK."""
    skipped = 0
    for t, a, b in zip(ts, lhs, rhs):
        if math.isnan(a) or math.isnan(b):
            skipped += 1
            continue
        bad = a < b - MONOTONE_SLACK if ge else a > b + MONOTONE_SLACK
        if bad:
            return OrderReport(kind, False, (t, a, b), len(ts), skipped)
    return OrderReport(kind, True, None, len(ts), skipped)


def _monotone(kind, ts, diffs, decreasing: bool) -> OrderReport:
    """diffs nonincreasing (or nondecreasing) along the lattice."""
    skipped = 0
    prev_d = None
    for t, d in zip(ts, diffs):
        if not math.isfinite(d):
            skipped += 1
            continue
        if prev_d is not None:
            bad = d > prev_d + MONOTONE_SLACK if decreasing else d < prev_d - MONOTONE_SLACK
            if bad:
                return OrderReport(kind, False, (t, d, prev_d), len(ts), skipped)
        prev_d = d
    return OrderReport(kind, True, None, len(ts), skipped)


def check_order(kind: str, x: Params, y: Params, grid_size: int = 128) -> OrderReport:
    """Check whether X precedes Y in the given order, on an interior lattice.

    The lattice is t_i = i / (grid_size + 1); quantile-based orders (disp,
    ttt) use the same lattice in probability space.  Lattice points where a
    defining ratio degenerates to 0/0 are skipped and counted.
    """
    if kind not in ORDER_KINDS:
        raise DomainError(f"unknown order kind {kind!r}; choose from {ORDER_KINDS}")
    grid_size = _as_count(grid_size, 64, "grid_size")
    tables = _SHARED_TABLES.get({})
    tx, ty = (_table(tables, p, grid_size) for p in (x, y))
    ts = tx.ts

    if kind in _LOG_RATIO:
        name = _LOG_RATIO[kind]
        diffs = [a - b for a, b in zip(getattr(tx, name), getattr(ty, name))]
        return _monotone(kind, ts, diffs, decreasing=True)
    if kind == "disp":
        # The quantile difference must widen with u.
        diffs = [qy - qx for qx, qy in zip(tx.quantile, ty.quantile)]
        return _monotone(kind, ts, diffs, decreasing=False)
    name, ge = _POINTWISE[kind]
    return _pointwise(kind, ts, getattr(tx, name), getattr(ty, name), ge)


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
