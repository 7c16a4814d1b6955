"""The four workloads: seeded inputs, the op each one times, and its checks.

Every op is a call into the library through a module attribute looked up at
call time, so the tracer's wrappers (see trace.py) see exactly the calls a
library caller would make.  Inputs come only from the workload seed.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference
from unitgompertz import (
    cli,
    distribution,
    entropy,
    inequality,
    order_stats,
    orders,
    reliability,
    specfun,
)
from unitgompertz.distribution import Params
from unitgompertz.errors import OracleError
from unitgompertz.reliability import StressStrengthPair

# An mpmath check passes at this relative error; the digits metric keeps the
# finer detail.
CHECK_REL_TOL = 1e-7
CHECK_DIGITS = -math.log10(CHECK_REL_TOL)

CURVE_GRID = "0.001:0.999:999"
CURVE_FNS = (
    "pdf", "logpdf", "cdf", "sf", "hazard", "rhr", "mrl", "eit", "zenga",
    "quantile", "lorenz", "bonferroni",
)
# The library function behind each curve name, for references and layers.
CURVE_LIBFN = {
    "logpdf": "log_pdf", "rhr": "reversed_hazard",
}
SAMPLE_N = 1_000_000
# KS acceptance at significance 1e-6: sqrt(ln(2 / 1e-6) / (2 n)).
KS_CRIT = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * SAMPLE_N))

MODULE_OF = {
    "pdf": "distribution", "log_pdf": "distribution", "cdf": "distribution",
    "sf": "distribution", "quantile": "distribution",
    "hazard": "reliability", "reversed_hazard": "reliability", "mrl": "reliability",
    "eit": "reliability", "conditional_moment": "reliability",
    "stress_strength": "reliability",
    "lorenz": "inequality", "bonferroni": "inequality", "zenga": "inequality",
    "mean_deviation_about": "inequality",
    "renyi_entropy": "entropy", "shannon_entropy": "entropy", "song_measure": "entropy",
    "order_stat_moment": "order_stats",
    "upper_inc_gamma": "specfun",
}
_MODULES = {
    "distribution": distribution, "reliability": reliability, "inequality": inequality,
    "entropy": entropy, "order_stats": order_stats, "specfun": specfun,
}


@dataclass
class Op:
    """One call: what to call, with which library arguments, and its checks."""

    kind: str
    fn: str
    args: tuple
    ref_args: tuple = ()
    ref: object = None  # mpmath reference(s), filled outside timing
    first: object = None  # what the first call gave, to check repeats against


@dataclass
class Outcome:
    ok: bool
    known_defect: str | None = None
    digits: dict = field(default_factory=dict)  # module -> min digits
    bytes_written: int = 0
    detail: str = ""


# ---------------------------------------------------------------- inputs


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniforms in [0, 1), one per equal stratum, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def _lattice(rng: np.random.Generator, k: int, dims: int, jitter: float = 0.05):
    """The k**dims points of an even lattice on the unit cube, each coordinate
    moved by up to `jitter` at random (inwards at the faces, so the range is
    kept).  A lattice rather than free draws keeps a pool's total cost nearly
    the same from seed to seed, while every seed still gives other inputs.
    """
    base = np.linspace(0.0, 1.0, k)
    index = np.indices((k,) * dims).reshape(dims, -1)
    u = base[index] + jitter * (2.0 * rng.random(index.shape) - 1.0)
    return 1.0 - np.abs(1.0 - np.abs(u))


def _log_uniform(u, lo: float, hi: float):
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def _unit_points(rng, k: int) -> np.ndarray:
    """k points of (0, 1): a third each near 0, in the bulk, and near 1.

    Distances to an endpoint are log-uniform over [1e-12, 1e-1].
    """
    third = k // 3
    near = _log_uniform(_strata(rng, third), 1e-12, 1e-1)
    far = _log_uniform(_strata(rng, third), 1e-12, 1e-1)
    bulk = 0.1 + 0.8 * _strata(rng, k - 2 * third)
    return rng.permutation(np.concatenate([near, bulk, 1.0 - far]))


def workload_rng(name: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed % 2**64, tag])


# ------------------------------------------------------------ point-eval

POINT_PER_KIND = 24  # seeded draws per kind
# Calls per pool entry in one pass, by kind.  A call costs from ~1 us to
# ~30 ms depending on kind and inputs; repeating the cheap kinds whose cost
# barely depends on the inputs gives every kind a comparable share of a
# pass's time, so neither throughput nor the median hangs on the few draws
# that land on a slow corner.  Kinds whose cost swings by 100x or more over
# the inputs run once per pass.
POINT_REPEATS = dict.fromkeys(
    ("pdf", "log_pdf", "cdf", "sf", "quantile", "hazard",
     "upper_inc_gamma.e1", "upper_inc_gamma.series"), 100)
POINT_REPEATS.update(dict.fromkeys(
    ("mrl", "conditional_moment", "lorenz", "bonferroni", "mean_deviation_about",
     "renyi_entropy", "shannon_entropy", "upper_inc_gamma.cf",
     "upper_inc_gamma.recurrence"), 10))
POINT_REPEATS.update(dict.fromkeys(
    ("eit", "zenga", "song_measure", "order_stat_moment", "stress_strength",
     "upper_inc_gamma.quad_fallback"), 1))
# Seeded draws of alpha and beta span the bulk; EDGE_PARAMS add the corners
# of the documented range to every pool, two decades each way around 1.
POINT_PARAM_RANGE = (0.1, 10.0)
EDGE_PARAMS = ((1e-2, 1e-2), (1e-2, 1e2), (1e2, 1e-2), (1e2, 1e2))
EDGE_X = (1e-12, 1.0 - 1e-12)
X_FNS = ("pdf", "log_pdf", "cdf", "sf", "hazard", "mrl", "eit", "zenga",
         "mean_deviation_about")
U_FNS = ("quantile", "lorenz", "bonferroni")
GAMMA_REGIMES = ("cf", "series", "e1", "recurrence", "quad_fallback")
# (s, x) at the edges of each incomplete-gamma regime.
EDGE_GAMMA = {
    "cf": ((-50.0, 1.0), (-50.0, 700.0), (499.0, 500.0), (0.5, 700.0)),
    "series": ((200.0, 150.0), (500.0, 1e-6), (1e-3, 1e-6), (50.0, 50.0)),
    "e1": ((0.0, 1e-12), (0.0, 0.999)),
    "recurrence": ((-49.5, 1e-3), (-49.5, 0.999), (-0.5, 1e-3), (-0.5, 0.999)),
    "quad_fallback": ((1e-9, 1e-2), (1e-9, 0.999), (1e-4, 1e-2), (1e-4, 0.999)),
}


def _gamma_args(rng, regime: str, k: int):
    u, v = _strata(rng, k), _strata(rng, k)
    if regime == "cf":
        x = _log_uniform(u, 1.0, 700.0)
        s = -50.0 + v * (np.minimum(x - 1.0, 500.0) + 50.0)
    elif regime == "series":
        s = _log_uniform(u, 1e-3, 500.0)
        x = _log_uniform(v, 1e-6, 1.0) * np.maximum(1.0, s + 1.0)
        x = np.minimum(x, np.maximum(1.0, s + 1.0) * (1.0 - 1e-9))
    elif regime == "e1":
        s = np.zeros(k)
        x = _log_uniform(u, 1e-12, 1.0)
    elif regime == "recurrence":
        s = -50.0 * u
        s = np.where(s == np.round(s), s - 0.5, s)
        x = _log_uniform(v, 1e-3, 1.0)
    else:  # shapes so close to 0 that the series complement hands over to quadrature
        s = _log_uniform(u, 1e-9, 1e-4)
        x = _log_uniform(v, 1e-2, 1.0)
    return [(float(a), float(b)) for a, b in zip(s, x)]


def point_eval_pool(seed: int) -> list[Op]:
    """Seeded draws of every kind plus the domain's edges, in a seeded order.

    The seeded draws are stratified: alpha and beta over the bulk, x a
    third each within 1e-12..1e-1 of 0, in the middle, and within
    1e-12..1e-1 of 1.  The edges are the same for every seed: each
    function at the corners of EDGE_PARAMS, x at 1e-12 from either end,
    Renyi order 500, n = 40, and the EDGE_GAMMA shapes.  Each entry
    appears POINT_REPEATS times.
    """
    rng = workload_rng("point-eval", seed)
    ops: list[Op] = []

    def add(fn, p, *rest):
        a, b = p
        ops.append(Op(fn, fn, (Params(a, b), *rest), (a, b, *rest)))

    def params(n):
        lo, hi = POINT_PARAM_RANGE
        a = _log_uniform(_strata(rng, n), lo, hi)
        b = _log_uniform(_strata(rng, n), lo, hi)
        return [(float(x), float(y)) for x, y in zip(a, b)]

    k = POINT_PER_KIND
    for fn in X_FNS + U_FNS:
        for p, x in zip(params(k), _unit_points(rng, k)):
            add(fn, p, float(x))
        for p in EDGE_PARAMS:
            for x in EDGE_X:
                add(fn, p, x)
    moments = rng.integers(1, 5, k)
    for p, x, n in zip(params(k), _unit_points(rng, k), moments):
        add("conditional_moment", p, int(n), float(x))
    for p in EDGE_PARAMS:
        add("conditional_moment", p, 1, EDGE_X[0])
        add("conditional_moment", p, 4, EDGE_X[1])
    for p, g in zip(params(k), _log_uniform(_strata(rng, k), 0.05, 500.0)):
        g = float(g)
        add("renyi_entropy", p, g if abs(g - 1.0) > 1e-6 else 1.001)
    for p in EDGE_PARAMS:
        add("renyi_entropy", p, 0.05)
        add("renyi_entropy", p, 500.0)
    for fn in ("shannon_entropy", "song_measure"):
        for p in params(k) + list(EDGE_PARAMS):
            add(fn, p)
    sizes = 1 + np.floor(_strata(rng, k) * 40).astype(int)
    for p, n in zip(params(k), sizes):
        n = int(n)
        add("order_stat_moment", p, n, int(rng.integers(1, n + 1)), int(rng.integers(1, 5)))
    for p in EDGE_PARAMS:
        add("order_stat_moment", p, 40, 1, 1)
        add("order_stat_moment", p, 40, 40, 4)
    strength = params(k) + list(EDGE_PARAMS)
    stress = params(k) + [(1e-2, 1.5e-2), (1e2, 1e-2), (1e-2, 1e2), (1e2, 1.5e2)]
    for (a1, b1), (a2, b2) in zip(strength, stress):
        if b1 == b2:
            b2 *= 1.5
        pair = StressStrengthPair(Params(a1, b1), Params(a2, b2))
        ops.append(Op("stress_strength", "stress_strength", (pair,), (a1, b1, a2, b2)))
    for regime in GAMMA_REGIMES:
        for s, x in _gamma_args(rng, regime, k) + list(EDGE_GAMMA[regime]):
            ops.append(Op(f"upper_inc_gamma.{regime}", "upper_inc_gamma", (s, x), (s, x)))
    ops = [op for op in ops for _ in range(POINT_REPEATS[op.kind])]
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------- known defects
#
# Failures the library is known to produce inside its documented domain.
# An op that fails in one of these ways still counts in failed_frac and
# digits_min; it is left out of the run's `failed` count, which is kept
# for failures nobody has explained yet.  Each entry: (id, predicate on the
# op, its output and its exception).

_ENDPOINT_FNS = {"log_pdf", "sf", "hazard", "mrl", "conditional_moment", "zenga",
                 "mean_deviation_about"}

KNOWN_DEFECTS = (
    # x^-beta - 1 and I1(t)/sf(t) - t are formed by subtraction, so every
    # quantity built on them loses digits as x -> 1; mrl can turn negative.
    ("endpoint-cancellation",
     lambda op, out, exc: exc is None and op.fn in _ENDPOINT_FNS
     and op.args[-1] >= 1.0 - 1e-3),
    # A raw OverflowError escapes instead of a DomainError or inf: math.gamma
    # past shape 171, x^s in the recurrence at large |s|, z ** (k/beta - 1).
    ("overflow-error",
     lambda op, out, exc: isinstance(exc, OverflowError)),
    # The scaled incomplete gamma overflows to inf at large Renyi orders.
    ("renyi-overflow-to-inf",
     lambda op, out, exc: exc is None and op.fn == "renyi_entropy"
     and not math.isfinite(out)),
    # Deep in the lower tail z = alpha x^-beta passes 2^53, where the
    # continued fraction's b += 2 steps vanish in rounding and it never
    # converges (or the quadrature fallback hits its cap).  A curve from
    # x = 0.001 reaches this once beta is above about 5.5.
    ("lower-tail-oracle-error",
     lambda op, out, exc: op.fn in ("zenga", "eit") and isinstance(exc, OracleError)
     and (op.kind.startswith("curve.") or op.args[-1] < 1e-3)),
    # The alternating binomial sum is accepted with up to CANCEL_DIGITS = 8
    # digits lost, while its terms carry only ~1e-12 relative accuracy.
    ("order-stat-cancellation",
     lambda op, out, exc: exc is None and op.fn == "order_stat_moment"),
    # The closed form subtracts terms of size alpha^2 (1 + 1/beta)^2.
    ("song-measure-cancellation",
     lambda op, out, exc: exc is None and op.fn == "song_measure"
     and op.args[0].alpha >= 10.0),
)


def known_defect(op: Op, out, exc: BaseException | None) -> str | None:
    for name, matches in KNOWN_DEFECTS:
        if matches(op, out, exc):
            return name
    return None


# ------------------------------------------------------------ workloads


def _same(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


class Workload:
    """One workload: its seeded op pool, the timed call, and the checks.

    `pool` is built from the seed alone; `prepare` computes references and
    anything else a check needs, outside every timed window; `call` is the
    timed op; `check` judges one op's output, also outside timing.
    """

    name = ""
    warmup = 1  # ops run before timing, and in the set-up probe

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def pool(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, ops: list[Op]) -> None:
        pass

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out, exc: BaseException | None) -> Outcome:
        raise NotImplementedError

    def warmup_ops(self, ops: list[Op]) -> list[Op]:
        return ops[: self.warmup]


class PointEval(Workload):
    name = "point-eval"

    def pool(self, seed):
        return point_eval_pool(seed)

    def warmup_ops(self, ops):
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        return list(first.values())

    def prepare(self, ops):
        for op in ops:
            if op.ref is None:
                op.ref = reference.value(op.fn, op.ref_args)

    def call(self, op):
        return getattr(_MODULES[MODULE_OF[op.fn]], op.fn)(*op.args)

    def check(self, op, out, exc):
        module = MODULE_OF[op.fn]
        if exc is not None:
            return Outcome(False, known_defect(op, None, exc), {module: 0.0},
                           detail=f"{op.kind}{op.ref_args}: {type(exc).__name__}")
        if op.first is not None:  # (output, outcome) of the entry's first call
            if _same(out, op.first[0]):
                return op.first[1]
            return Outcome(False, None, {module: 0.0},
                           detail=f"{op.kind}{op.ref_args}: {out!r} != first {op.first[0]!r}")
        d = reference.digits(out, op.ref)
        if d >= CHECK_DIGITS:
            outcome = Outcome(True, None, {module: d})
        else:
            outcome = Outcome(False, known_defect(op, out, None), {module: d},
                              detail=f"{op.kind}{op.ref_args}: {out!r} vs {op.ref!r}")
        op.first = (out, outcome)
        return outcome


def _curve_grid():
    lo, hi, count = CURVE_GRID.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


class Curves(Workload):
    name = "curves"
    lattice = 3  # per function, (alpha, beta) on a jittered 3 x 3 log lattice
    ref_points = 6  # grid points per curve checked against mpmath

    def pool(self, seed):
        """Each curve function at every (alpha, beta) of a log lattice on
        [0.1, 10]^2, in a seeded order.

        A curve costs 3 to 80 ms and the cost peaks sharply inside the box
        (mrl near alpha = 1, beta = 0.3), so free draws would make the
        pool's cost a matter of luck; the lattice also keeps beta near 10,
        where zenga and eit curves fail.
        """
        rng = workload_rng(self.name, seed)
        count = len(_curve_grid())
        ops = []
        for fn in CURVE_FNS:
            u, v = _lattice(rng, self.lattice, 2)
            for x, y in zip(_log_uniform(u, 0.1, 10.0), _log_uniform(v, 0.1, 10.0)):
                inner = 1 + np.floor(_strata(rng, self.ref_points - 2) * (count - 2))
                idx = sorted({0, count - 1, *(int(i) for i in inner)})
                ops.append(Op(f"curve.{fn}", fn, (float(x), float(y)), tuple(idx)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup_ops(self, ops):
        first = {}
        for op in ops:
            first.setdefault(op.fn, op)
        return list(first.values())

    def prepare(self, ops):
        grid = _curve_grid()
        libfn = lambda fn: CURVE_LIBFN.get(fn, fn)  # noqa: E731
        for op in ops:
            a, b = op.args
            op.ref = [reference.value(libfn(op.fn), (a, b, grid[i])) for i in op.ref_args]

    def _path(self):
        return os.path.join(self.out_dir, "curve.csv")

    def call(self, op):
        a, b = op.args
        return cli.main(["curve", "--fn", op.fn, "--alpha", repr(a), "--beta", repr(b),
                         "--grid", CURVE_GRID, "--out", self._path()])

    def check(self, op, out, exc):
        module = MODULE_OF[CURVE_LIBFN.get(op.fn, op.fn)]
        fail = lambda why: Outcome(False, None, {module: 0.0}, detail=f"{op.kind}{op.args}: {why}")  # noqa: E731
        if exc is not None:
            return Outcome(False, known_defect(op, None, exc), {module: 0.0},
                           detail=f"{op.kind}{op.args}: {type(exc).__name__}: {exc}")
        if out != 0:
            return fail(f"exit code {out}")
        with open(self._path(), "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if op.first is not None:
            if digest != op.first[0]:
                return fail("CSV bytes differ from the first run of the same inputs")
            return Outcome(True, None, {module: op.first[1]}, bytes_written=len(data))
        lines = data.decode().splitlines()
        grid = _curve_grid()
        if lines[0] != f"x,{op.fn}" or len(lines) != len(grid) + 1:
            return fail(f"header {lines[0]!r} with {len(lines)} lines")
        worst, worst_x = reference.DIGITS_CAP, None
        for i, want in zip(op.ref_args, op.ref):
            x, y = (float(v) for v in lines[i + 1].split(","))
            if abs(x - grid[i]) > 4e-16:
                return fail(f"grid point {i} is {x!r}, expected {grid[i]!r}")
            d = reference.digits(y, want)
            if d < worst:
                worst, worst_x = d, x
        if worst < CHECK_DIGITS:
            # Judged as the point call at the worst grid point would be.
            point = Op(op.kind, CURVE_LIBFN.get(op.fn, op.fn), (Params(*op.args), worst_x))
            return Outcome(False, known_defect(point, None, None), {module: worst},
                           detail=f"{op.kind}{op.args}: {worst:.1f} digits at x = {worst_x!r}")
        op.first = (digest, worst)
        return Outcome(True, None, {module: worst}, bytes_written=len(data))


class OrderSuite(Workload):
    name = "order-suite"
    lattice = 3  # (a1, beta) on a jittered 3 x 3 lattice
    jitter = 0.02  # the lattice point near the cost peak moves its cost steeply

    def pool(self, seed):
        """verify-paper's ranges: a1 in [0.2, 2], a2 = a1 * [1.3, 3], beta in [0.4, 3].

        (a1, beta) sit on a jittered lattice and the ratio a2 / a1 takes its
        low, middle and high value once in each row and column, so every
        seed's pool spans the box.  A suite costs 40 to 330 ms with a narrow
        peak near a1 = 0.8, beta = 0.4; free draws would make the pool's
        cost a matter of luck.
        """
        rng = workload_rng(self.name, seed)
        k = self.lattice
        u, v = _lattice(rng, k, 2, self.jitter)
        level = (np.arange(k * k) // k + np.arange(k * k) % k) % k
        ratio = 1.3 + 1.7 * _lattice(rng, k, 1, self.jitter)[0][level]
        ops = [Op("suite", "common_scale_order_suite", (float(a), float(a * r), float(b)))
               for a, r, b in zip(0.2 + 1.8 * u, ratio, 0.4 + 2.6 * v)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def call(self, op):
        return orders.common_scale_order_suite(*op.args)

    def check(self, op, out, exc):
        if exc is not None:
            return Outcome(False, detail=f"{op.args}: {type(exc).__name__}: {exc}")
        verdicts = tuple((r.kind, r.holds) for r in out)
        kinds = tuple(k for k, _ in verdicts)
        bad = [k for k, holds in verdicts if not holds]
        if kinds != orders.SUITE_ORDER_KINDS or bad:
            return Outcome(False, detail=f"{op.args}: kinds {kinds}, failed {bad}")
        if op.first is not None and op.first != verdicts:
            return Outcome(False, detail=f"{op.args}: verdicts changed between runs")
        op.first = verdicts
        return Outcome(True)


# The library's sampler as imported, so a check never runs through a wrapper.
_SAMPLE = distribution.sample


class SampleCsv(Workload):
    name = "sample-csv"
    specs = 2  # an op costs ~1 s, so few specs let each repeat several times a run

    def pool(self, seed):
        rng = workload_rng(self.name, seed)
        a = _log_uniform(_strata(rng, self.specs), 0.1, 10.0)
        b = _log_uniform(_strata(rng, self.specs), 0.1, 10.0)
        seeds = rng.integers(0, 2**31, self.specs)
        return [Op("sample", "sample", (float(x), float(y), int(s)))
                for x, y, s in zip(a, b, seeds)]

    def _path(self):
        return os.path.join(self.out_dir, "sample.csv")

    def call(self, op):
        a, b, s = op.args
        return cli.main(["sample", "--alpha", repr(a), "--beta", repr(b),
                         "--n", str(SAMPLE_N), "--seed", str(s), "--out", self._path()])

    def check(self, op, out, exc):
        if exc is not None:
            return Outcome(False, detail=f"{op.args}: {type(exc).__name__}: {exc}")
        if out != 0:
            return Outcome(False, detail=f"{op.args}: exit code {out}")
        size = os.path.getsize(self._path())
        digest = self._digest()
        if op.first is not None:
            ok = digest == op.first
            return Outcome(ok, bytes_written=size,
                           detail="" if ok else f"{op.args}: bytes differ for the same seed")
        why = self._verify_content(op)
        if why:
            return Outcome(False, bytes_written=size, detail=f"{op.args}: {why}")
        op.first = digest
        return Outcome(True, bytes_written=size)

    def _digest(self) -> str:
        h = hashlib.sha256()
        with open(self._path(), "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()

    def _verify_content(self, op) -> str:
        """Header, line count, values equal to the seeded draws, range, KS."""
        a, b, s = op.args
        want = _SAMPLE(Params(a, b), SAMPLE_N, s)
        seen = 0
        with open(self._path(), "rb") as handle:
            if handle.readline() != b"x\n":
                return "bad header"
            while True:
                lines = handle.readlines(1 << 20)
                if not lines:
                    break
                got = np.array([float(v) for v in lines])
                if seen + got.size > SAMPLE_N or not np.array_equal(
                        got, want[seen:seen + got.size]):
                    return f"values differ from the seeded draws near line {seen + 2}"
                seen += got.size
        if seen != SAMPLE_N:
            return f"{seen} values, expected {SAMPLE_N}"
        if not (want.min() > 0.0 and want.max() < 1.0):
            return "a value outside (0, 1)"
        want.sort()
        d = 0.0
        for lo in range(0, SAMPLE_N, 1 << 16):  # in slices, to stay small in memory
            cdf = np.exp(-a * (want[lo:lo + (1 << 16)] ** -b - 1.0))
            rank = np.arange(lo, lo + cdf.size)
            d = max(d, np.max((rank + 1) / SAMPLE_N - cdf), np.max(cdf - rank / SAMPLE_N))
        if d > KS_CRIT:
            return f"KS statistic {d:.2e} above {KS_CRIT:.2e}"
        return ""


WORKLOADS = {w.name: w for w in (OrderSuite, Curves, PointEval, SampleCsv)}
