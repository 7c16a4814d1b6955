"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL line per
criterion.  Criterion 4 pins the hazard's divergence at x -> 1 through its
expansion h(1 - eps) = 1/eps + c0 + c1*eps + O(eps^2), with
c0 = (1 + beta - alpha*beta)/2, rather than through a bare lower bound such
as h(1 - 1e-6) > 1e6, which the true hazard misses whenever
alpha*beta >= 1 + beta.
"""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import unitgompertz as ug
from conftest import _log_pdf_array, _ug_draws, quad
from unitgompertz import Params
from unitgompertz.cli import main as cli_main

GRID_1E4 = 10_000
SMALL = [Params(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]
WIDE = [Params(a, b) for a in (0.25, 0.5, 1.0, 2.0, 5.0) for b in (0.25, 0.5, 1.0, 2.0, 5.0)]


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {title}")
        raise
    print(f"PASS criterion {num:2d}: {title}")


def _random_params(rng, lo_a=0.1, hi_a=4.0, lo_b=0.3, hi_b=4.0) -> Params:
    return Params(float(rng.uniform(lo_a, hi_a)), float(rng.uniform(lo_b, hi_b)))


def test_criterion_1_convexity_counterexample():
    with criterion(1, "log-density second derivative is +4.0 at (0.25, 1, 0.5)"):
        d2 = ug.log_pdf_second_derivative(Params(0.25, 1.0), 0.5)
        assert d2 > 0.0
        assert abs(d2 - 4.0) <= 1e-12


def test_criterion_2_concavity_sign_structure():
    with criterion(2, "sign of d2 log f flips exactly at (alpha*beta)^(1/beta)"):
        rng = np.random.Generator(np.random.Philox(key=2))
        cell = 1.0 / (GRID_1E4 + 1)
        xs = np.arange(1, GRID_1E4 + 1) / (GRID_1E4 + 1)
        found = 0
        while found < 25:
            p = _random_params(rng, lo_a=0.05, hi_a=1.2, lo_b=0.3, hi_b=3.0)
            bound = ug.log_concavity_bound(p)
            if bound >= 1.0:
                continue
            found += 1
            d2 = -((1.0 + p.beta) / xs**2) * (p.alpha * p.beta * xs**-p.beta - 1.0)
            positive = d2 > 0.0
            idx = int(np.argmax(positive))  # first positive sample
            assert positive[idx], (p, "no positive region found")
            assert not positive[:idx].any()
            assert positive[idx:].all()
            if idx == 0:
                assert bound <= xs[0] + 1e-12
            else:
                assert xs[idx - 1] - 1e-12 <= bound <= xs[idx] + 1e-12


def test_criterion_3_corrected_mode():
    with criterion(3, "mode(3,1) = 1 and mode(1,1) = 0.5; mode maximizes the pdf"):
        assert ug.mode(Params(3.0, 1.0)) == 1.0
        assert ug.mode(Params(1.0, 1.0)) == 0.5
        rng = np.random.Generator(np.random.Philox(key=3))
        grid = np.arange(1, 2001) / 2000.0
        for _ in range(25):
            p = _random_params(rng)
            peak = ug.pdf(p, ug.mode(p))
            values = [ug.pdf(p, float(x)) for x in grid]
            assert max(values) <= peak * (1.0 + 1e-12), p


def test_criterion_4_hazard_limits():
    with criterion(4, "hazard below 1e-3 at 1e-6, 1/eps + c0 + c1*eps at 1-1e-6, rising near 1"):
        x_top = 1.0 - 1e-6
        # eps from the double x_top: exact by Sterbenz, where the literal 1e-6
        # is off by 2.9e-17 and would shift 1/eps by 2.9e-5.
        eps = 1.0 - x_top
        for a in (0.25, 1.0, 2.0):
            for b in (1.0, 2.0, 3.0):
                p = Params(a, b)
                assert ug.hazard(p, 1e-6) < 1e-3, (a, b)
                # Series of f/sf in eps, from the density alone.
                c0 = (1.0 + b - a * b) / 2.0
                c1 = (
                    a * a * b * b - 6 * a * b * b - 6 * a * b + b * b + 6 * b + 5
                ) / 12.0
                want = 1.0 / eps + c0 + c1 * eps
                # 1e-14 relative: the O(eps^2) remainder is ~1e-17 relative,
                # sf comes from w = alpha * expm1(-beta ln x) with no
                # cancellation, so rounding stays near 1e-16; and 1e-14
                # relative is 1e-8 absolute, far below |c0| >= 0.5 wherever
                # c0 != 0, so a wrong constant term fails.
                upper = ug.hazard(p, x_top)
                assert abs(upper - want) <= 1e-14 * want, (a, b, upper, want)
                grid = np.linspace(0.95, 0.999, 100)
                vals = [ug.hazard(p, float(x)) for x in grid]
                assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:])), (a, b)


def test_criterion_5_conditional_moments():
    with criterion(5, "conditional moments match quadrature to 1e-7"):
        for p in SMALL:
            for n in (1, 2, 3):
                for x in np.arange(0.1, 0.95, 0.1):
                    x = float(x)
                    got = ug.conditional_moment(p, n, x)
                    want = quad(
                        lambda y: y**n * ug.pdf(p, y), x, 1.0, tol=1e-10
                    ) / ug.sf(p, x)
                    assert abs(got - want) <= 1e-7 * abs(want), (p, n, x)


def test_criterion_6_normalization_and_moments():
    with criterion(6, "unit mass, moments vs quadrature, mean(1,1) = e*E1(1)"):
        for p in WIDE:
            total = quad(lambda y: ug.pdf(p, y), 0.0, 1.0, tol=1e-11)
            assert abs(total - 1.0) <= 1e-9, p
            for n in (1, 2, 3):
                got = ug.raw_moment(p, n)
                want = quad(lambda y: y**n * ug.pdf(p, y), 0.0, 1.0, tol=1e-11)
                assert abs(got - want) <= 1e-8 * abs(want), (p, n)
        e1 = quad(lambda t: math.exp(-t) / t, 1.0, math.inf, tol=1e-13)
        assert abs(ug.raw_moment(Params(1.0, 1.0), 1) - math.e * e1) <= 1e-9


def test_criterion_7_entropy_triangle():
    with criterion(7, "Renyi/Shannon consistency and the log-density variance"):
        p = Params(1.0, 1.0)
        sh = ug.shannon_entropy(p)
        assert abs(ug.renyi_entropy(p, 1.0 + 1e-4) - sh) <= 1e-3
        assert abs(ug.renyi_entropy(p, 1.0 - 1e-4) - sh) <= 1e-3
        assert abs(ug.renyi_entropy(p, 2.0) + math.log(1.25)) <= 1e-9

        song = ug.song_measure(p)
        rng = np.random.Generator(np.random.Philox(key=7))
        n = 1_000_000
        w = _log_pdf_array(p, _ug_draws(p, rng, n))
        centered = w - w.mean()
        var = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        se = math.sqrt((m4 - var * var) / n)
        assert abs(song - var) <= 4.0 * se

        h = 1e-4
        fd = (ug.renyi_entropy(p, 1.0 + h) - ug.renyi_entropy(p, 1.0 - h)) / (2.0 * h)
        assert abs(fd - (-song / 2.0)) <= 1e-3


def test_criterion_8_inequality_curves():
    with criterion(8, "Lorenz/Bonferroni/Zenga vs oracle and the residual-life tie"):
        for p in (Params(1.0, 1.0), Params(2.0, 0.5), Params(0.5, 2.0)):
            mu = ug.raw_moment(p, 1)
            for prob in np.arange(0.1, 0.95, 0.1):
                prob = float(prob)
                q = ug.quantile(p, prob)
                m1_oracle = quad(lambda y: y * ug.pdf(p, y), 0.0, q, tol=1e-11)
                assert abs(ug.lorenz(p, prob) - m1_oracle / mu) <= 1e-7
                assert abs(ug.bonferroni(p, prob) - m1_oracle / (prob * mu)) <= 1e-7
            for x in np.arange(0.2, 0.95, 0.15):
                x = float(x)
                if ug.cdf(p, x) < 1e-6:
                    continue
                lower = quad(lambda y: y * ug.pdf(p, y), 0.0, x, tol=1e-11) / ug.cdf(p, x)
                upper = quad(lambda y: y * ug.pdf(p, y), x, 1.0, tol=1e-11) / ug.sf(p, x)
                z = ug.zenga(p, x)
                assert abs(z - (1.0 - lower / upper)) <= 1e-7
                relation = (1.0 - mu / (x + ug.mrl(p, x))) / ug.cdf(p, x)
                assert abs(z - relation) <= 1e-7
                # Both printed forms of the curve.
                s = 1.0 - 1.0 / p.beta
                g_x = ug.upper_inc_gamma(s, p.alpha * x**-p.beta)
                g_a = ug.upper_inc_gamma(s, p.alpha)
                bracket = g_x / (g_a - g_x)
                form_a = 1.0 - bracket * ug.sf(p, x) / ug.cdf(p, x)
                expo = math.exp(-p.alpha * (x**-p.beta - 1.0))
                form_b = 1.0 - bracket * (1.0 - expo) / expo
                assert abs(form_a - form_b) <= 1e-12


def test_criterion_9_order_statistics():
    with criterion(9, "order-statistic moments vs quadrature; mixture identity"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ug.CancellationWarning)
            for p in SMALL:
                for n in range(1, 7):
                    for j in range(1, n + 1):
                        for k in (1, 2, 3):
                            got = ug.order_stat_moment(p, n, j, k)
                            want = quad(
                                lambda y: y**k * ug.order_stat_pdf(p, n, j, y),
                                0.0,
                                1.0,
                                tol=1e-9,
                            )
                            assert abs(got - want) <= 1e-7 * abs(want), (p, n, j, k)
        for p in SMALL:
            for x in np.arange(0.05, 1.0, 0.05):
                x = float(x)
                got = ug.order_stat_mixture_pdf(p, 4, x)
                assert abs(got - ug.pdf(p, x)) <= 1e-10 * max(1.0, ug.pdf(p, x)), (p, x)


def test_criterion_10_reliability_duals():
    with criterion(10, "reversed hazard falls, log-cdf concave, inactivity rises"):
        rng = np.random.Generator(np.random.Philox(key=10))
        grid = np.linspace(0.02, 1.0, 200)
        for _ in range(25):
            p = _random_params(rng)
            rh = [ug.reversed_hazard(p, float(x)) for x in grid]
            assert all(b < a for a, b in zip(rh, rh[1:])), p
            log_f = [ug.log_cdf(p, float(x)) for x in grid]
            second = np.diff(log_f, 2)
            assert np.all(second < 1e-12), p
            ei = [ug.eit(p, float(x)) for x in grid]
            assert all(b > a - 1e-12 for a, b in zip(ei, ei[1:])), p
            assert abs(ug.eit(p, 1.0) - (1.0 - ug.raw_moment(p, 1))) <= 1e-8, p
        for p in (Params(2.0, 2.0), Params(1.0, 3.0), Params(0.5, 1.0)):
            ts = np.linspace(0.001, 0.99, 200)
            vals = [ug.mrl(p, float(t)) for t in ts]
            assert all(b < a for a, b in zip(vals, vals[1:])), p


def test_criterion_11_stress_strength():
    with criterion(11, "stress-strength closed form, symmetry, and Monte Carlo"):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(10):
            a1, a2 = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))
            beta = float(rng.uniform(0.3, 3.0))
            strength, stress = Params(a1, beta), Params(a2, beta)
            closed = ug.stress_strength(ug.StressStrengthPair(strength, stress))
            assert closed == a1 / (a1 + a2)
            direct = quad(
                lambda x: ug.cdf(stress, x) * ug.pdf(strength, x), 0.0, 1.0, tol=1e-11
            )
            assert abs(closed - direct) <= 1e-9
        sym = ug.stress_strength(
            ug.StressStrengthPair(Params(1.3, 0.7), Params(1.3, 0.7))
        )
        assert sym == 0.5
        n = 1_000_000
        for seed, (strength, stress) in enumerate(
            [
                (Params(1.0, 1.0), Params(1.0, 2.0)),
                (Params(0.7, 2.5), Params(1.8, 0.9)),
            ]
        ):
            got = ug.stress_strength(ug.StressStrengthPair(strength, stress))
            rng = np.random.Generator(np.random.Philox(key=1100 + seed))
            x = _ug_draws(strength, rng, n)
            y = _ug_draws(stress, rng, n)
            p_hat = float(np.mean(y < x))
            se = math.sqrt(p_hat * (1.0 - p_hat) / n)
            assert abs(got - p_hat) <= 4.0 * se, (strength, stress)


def test_criterion_12_stochastic_order_suite():
    with criterion(12, "order suite holds below, fails reversed, chain intact"):
        rng = np.random.Generator(np.random.Philox(key=12))
        for _ in range(25):
            a1 = float(rng.uniform(0.2, 2.0))
            a2 = a1 * float(rng.uniform(1.1, 3.0))
            beta = float(rng.uniform(0.3, 3.0))
            reports = ug.common_scale_order_suite(a1, a2, beta)
            assert all(r.holds for r in reports), (a1, a2, beta)
        reversed_report = ug.check_order("lr", Params(2.0, 1.0), Params(1.0, 1.0))
        assert not reversed_report.holds
        assert reversed_report.first_violation is not None
        chain = [
            ("lr", "hr"), ("hr", "mrl"), ("mrl", "hmrl"),
            ("lr", "rh"), ("rh", "eit"),
            ("hr", "st"), ("st", "ttt"), ("ttt", "icv"),
        ]
        for _ in range(100):
            beta = float(rng.uniform(0.3, 3.0))
            x = Params(float(rng.uniform(0.2, 2.5)), beta)
            y = Params(float(rng.uniform(0.2, 2.5)), beta)
            flags = {
                k: ug.check_order(k, x, y, grid_size=96).holds for k in ug.ORDER_KINDS
            }
            for stronger, weaker in chain:
                if flags[stronger]:
                    assert flags[weaker], (x, y, stronger, weaker)


def test_criterion_13_cli_verification_and_goldens(tmp_path, capsys):
    with criterion(13, "verify-paper exits 0 and curve CSVs are byte-stable"):
        assert cli_main(["verify-paper"]) == 0
        capsys.readouterr()
        figures = [
            ("pdf", "0.25", "1", "0.001:0.999:500"),
            ("pdf", "2", "1", "0.001:0.999:500"),
            ("hazard", "2", "2", "0.001:0.999:999"),
            ("hazard", "1", "3", "0.001:0.999:999"),
            ("hazard", "0.5", "1", "0.001:0.999:999"),
            ("rhr", "0.25", "1", "0.001:0.999:500"),
            ("rhr", "0.5", "1", "0.001:0.999:500"),
            ("rhr", "0.75", "1", "0.001:0.999:500"),
            ("rhr", "1", "1", "0.001:0.999:500"),
        ]
        for i, (fn, a, b, grid) in enumerate(figures):
            paths = [tmp_path / f"{fn}_{i}_{run}.csv" for run in (1, 2)]
            for path in paths:
                code = cli_main([
                    "curve", "--fn", fn, "--alpha", a, "--beta", b,
                    "--grid", grid, "--out", str(path),
                ])
                assert code == 0
            assert paths[0].read_bytes() == paths[1].read_bytes(), (fn, a, b)
        capsys.readouterr()
