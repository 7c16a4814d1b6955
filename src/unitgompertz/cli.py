"""Command-line surface: point evaluation, curve CSVs, sampling, verification.

Subcommands:

    eval          print one function value with 15 significant digits
    curve         write an (x, f(x)) CSV over a lo:hi:count grid
    sample        write a one-column CSV of reproducible draws
    verify-paper  run the built-in battery of distributional checks

`REGISTRY` is the single list of the functions `eval --fn` and
`curve --fn` accept: where each lives, which flags follow (alpha, beta),
and how a curve grid is clamped.

Exit codes: 0 on success, 2 on a domain error (message to stderr), 3 when
verification fails.  CSV numbers use the shortest round-trip decimal form,
so files are byte-identical across runs for identical flags and seed.
Every `curve` function gets the whole grid in one call, as a 1-d array.
`main` builds its parser once per process, on first use (`_parser`);
`build_parser` returns a new one at each call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import entropy, inequality, oracle, order_stats, reliability
from . import distribution as dist
from .distribution import Params
from .errors import DomainError
from .orders import common_scale_order_suite

# Grid endpoints are nudged into the open interval by this amount for
# functions that blow up or leave their domain at 0 or 1.
GRID_EPS = 1e-9

# Tolerance of verify-paper's quadrature cross-checks.
VERIFY_TOL = 1e-9

# Curve grid windows: [lo, hi] is intersected with the window.
_OPEN = (-math.inf, math.inf)
_OFF_0 = (GRID_EPS, math.inf)
_OFF_1 = (-math.inf, 1.0 - GRID_EPS)
_OFF_BOTH = (GRID_EPS, 1.0 - GRID_EPS)

# --fn name -> (module, function name on it, flags that follow --alpha and
# --beta in call order, curve grid window or None if not a curve).  Each call
# is `module.name(Params(alpha, beta), *flags)`; the name is looked up at call
# time, so a patched module attribute is the one called.
REGISTRY = {
    "pdf": (dist, "pdf", ("x",), _OPEN),
    "logpdf": (dist, "log_pdf", ("x",), _OFF_0),
    "cdf": (dist, "cdf", ("x",), _OPEN),
    "sf": (dist, "sf", ("x",), _OPEN),
    "quantile": (dist, "quantile", ("u",), _OFF_0),
    "hazard": (reliability, "hazard", ("x",), _OFF_1),
    "rhr": (reliability, "reversed_hazard", ("x",), _OFF_0),
    "mrl": (reliability, "mrl", ("x",), _OPEN),
    "eit": (reliability, "eit", ("x",), _OFF_0),
    "mode": (dist, "mode", (), None),
    "lcbound": (dist, "log_concavity_bound", (), None),
    "moment": (dist, "raw_moment", ("n",), None),
    "condmoment": (reliability, "conditional_moment", ("n", "x"), None),
    "meandev": (inequality, "mean_deviation_about", ("x",), None),
    "lorenz": (inequality, "lorenz", ("u",), _OFF_0),
    "bonferroni": (inequality, "bonferroni", ("u",), _OFF_0),
    "zenga": (inequality, "zenga", ("x",), _OFF_BOTH),
    "renyi": (entropy, "renyi_entropy", ("gamma",), None),
    "shannon": (entropy, "shannon_entropy", (), None),
    "song": (entropy, "song_measure", (), None),
    "osmoment": (order_stats, "order_stat_moment", ("n", "j", "k"), None),
    # The one function of two laws: strength (alpha1, beta1), stress (alpha2, beta2).
    "ssr": (reliability, "stress_strength", ("alpha1", "beta1", "alpha2", "beta2"), None),
}


# Rows per write: a 10^6-row CSV is never held as one string.
_CSV_CHUNK = 65536


def _write_csv(path: str, header: str, *columns: np.ndarray) -> None:
    """Write a header line, then one row per element of the float64 columns.

    Numbers are the shortest decimal strings that round-trip to the same double.
    """
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_CHUNK):
            rows = zip(*(map(repr, c[i : i + _CSV_CHUNK].tolist()) for c in columns))
            handle.write("\n".join(map(",".join, rows)) + "\n")


def _require(args: argparse.Namespace, *names: str) -> list[float]:
    out = []
    for name in names:
        v = getattr(args, name, None)
        if v is None:
            raise DomainError(f"--fn {args.fn} requires --{name}")
        out.append(v)
    return out


def _cmd_eval(args: argparse.Namespace) -> int:
    module, name, flags, _ = REGISTRY[args.fn]
    if args.fn == "ssr":
        a1, b1, a2, b2 = _require(args, *flags)
        call_args = (reliability.StressStrengthPair(Params(a1, b1), Params(a2, b2)),)
    else:
        p = Params(*_require(args, "alpha", "beta"))
        call_args = (p, *_require(args, *flags))
    value = getattr(module, name)(*call_args)
    print(f"{value:.15g}")
    return 0


def _parse_grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad grid {spec!r}: {exc}") from exc
    if count < 1 or (count > 1 and not lo < hi):
        raise DomainError(f"grid needs count >= 1 and lo < hi, got {spec!r}")
    return lo, hi, count


def _cmd_curve(args: argparse.Namespace) -> int:
    module, name, _, window = REGISTRY[args.fn]
    p = Params(args.alpha, args.beta)
    lo, hi, count = _parse_grid(args.grid)
    lo, hi = max(lo, window[0]), min(hi, window[1])
    op = getattr(module, name)
    if count == 1:
        xs = np.array([lo])
    else:
        xs = lo + np.arange(count) * (hi - lo) / (count - 1)
        xs[-1] = hi  # lo + (count-1)*(hi-lo)/(count-1) can round past hi
    ys = op(p, xs)  # before the file is opened, so a failure writes nothing
    _write_csv(args.out, f"x,{args.fn}", xs, ys)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    draws = dist.sample(Params(args.alpha, args.beta), args.n, args.seed)
    _write_csv(args.out, "x", draws)
    return 0


def _verify_checks():
    """Yield (name, passed, detail) for the verification battery."""
    p_shape = Params(0.25, 1.0)
    d2 = dist.log_pdf_second_derivative(p_shape, 0.5)
    yield (
        "log-concavity counterexample",
        abs(d2 - 4.0) <= 1e-12 and d2 > 0.0,
        f"d2 log f at (0.25, 1, 0.5) = {d2!r}, expected +4.0",
    )

    star = (3.0 * 1.0 / 2.0) ** 1.0
    m1 = dist.mode(Params(3.0, 1.0))
    m2 = dist.mode(Params(1.0, 1.0))
    yield (
        "mode capped at the support edge",
        star > 1.0 and m1 == 1.0 and m2 == 0.5,
        f"stationary point {star} -> mode {m1}; mode(1,1) = {m2}",
    )

    rhr_ok = True
    detail = "reversed hazard decreasing on grid"
    for params in (Params(0.25, 1.0), Params(1.0, 1.0), Params(2.0, 3.0)):
        xs = [i / 512 for i in range(1, 512)]
        vals = [reliability.reversed_hazard(params, x) for x in xs]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            rhr_ok = False
            detail = f"violated at {params}"
            break
    yield ("reversed hazard strictly decreasing", rhr_ok, detail)

    norm_ok = True
    detail = "integral of the density over (0, 1) = 1"
    for params in (Params(0.5, 0.5), Params(1.0, 1.0), Params(2.0, 3.0)):
        q = oracle.integrate(lambda t, p=params: dist.pdf(p, t), 0.0, 1.0, rel_tol=1e-12)
        if abs(q.value - 1.0) > VERIFY_TOL:
            norm_ok = False
            detail = f"off by {q.value - 1.0:.3e} at {params}"
            break
    yield ("density normalization vs quadrature", norm_ok, detail)

    mom_ok = True
    detail = "closed-form mean vs quadrature"
    for params in (Params(0.5, 2.0), Params(1.0, 1.0), Params(2.0, 0.5)):
        closed = dist.raw_moment(params, 1)
        q = oracle.integrate(
            lambda t, p=params: t * dist.pdf(p, t), 0.0, 1.0, rel_tol=1e-12
        )
        if abs(closed - q.value) > VERIFY_TOL * abs(closed):
            mom_ok = False
            detail = f"mismatch {closed!r} vs {q.value!r} at {params}"
            break
    yield ("first moment vs quadrature", mom_ok, detail)

    rng = np.random.Generator(np.random.Philox(key=20240917))
    for trial in range(3):
        a1 = float(rng.uniform(0.2, 2.0))
        a2 = a1 * float(rng.uniform(1.3, 3.0))
        beta = float(rng.uniform(0.4, 3.0))
        reports = common_scale_order_suite(a1, a2, beta)
        bad = [r.kind for r in reports if not r.holds]
        yield (
            f"stochastic-order suite, seeded draw {trial + 1}",
            not bad,
            f"alpha {a1:.4f} < {a2:.4f}, beta {beta:.4f}"
            + (f"; failed: {bad}" if bad else "; all orders hold"),
        )


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, passed, detail in _verify_checks():
        tag = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        print(f"{tag}  {name}: {detail}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 3
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitgompertz",
        description="Unit-Gompertz distribution calculator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print one function value")
    p_eval.add_argument("--fn", required=True, choices=tuple(REGISTRY))
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--beta", type=float)
    p_eval.add_argument("--x", type=float, help="support point in [0, 1]")
    p_eval.add_argument("--u", type=float, help="probability level in (0, 1]")
    p_eval.add_argument("--gamma", type=float, help="Renyi order")
    p_eval.add_argument("--n", type=int, help="moment order / sample size")
    p_eval.add_argument("--j", type=int, help="order-statistic rank")
    p_eval.add_argument("--k", type=int, help="order-statistic moment order")
    p_eval.add_argument("--alpha1", type=float, help="strength shape (ssr)")
    p_eval.add_argument("--beta1", type=float, help="strength scale (ssr)")
    p_eval.add_argument("--alpha2", type=float, help="stress shape (ssr)")
    p_eval.add_argument("--beta2", type=float, help="stress scale (ssr)")
    p_eval.set_defaults(run=_cmd_eval)

    p_curve = sub.add_parser("curve", help="write a CSV of f over a grid")
    curves = [fn for fn, (*_, window) in REGISTRY.items() if window is not None]
    p_curve.add_argument("--fn", required=True, choices=curves)
    p_curve.add_argument("--alpha", type=float, required=True)
    p_curve.add_argument("--beta", type=float, required=True)
    p_curve.add_argument("--grid", required=True, help="lo:hi:count")
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(run=_cmd_curve)

    p_sample = sub.add_parser("sample", help="write a CSV of reproducible draws")
    p_sample.add_argument("--alpha", type=float, required=True)
    p_sample.add_argument("--beta", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(run=_cmd_sample)

    p_verify = sub.add_parser(
        "verify-paper",
        help="run the reference battery: shape counterexample, mode cap, "
        "monotone reversed hazard, quadrature cross-checks, order suite",
    )
    p_verify.set_defaults(run=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use; parse_args leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
