"""Renyi/Shannon entropies and the variance-of-log-density measure."""

import math

import numpy as np
import pytest

from conftest import _log_pdf_array, _ug_sampler, assert_close, quad
from unitgompertz import (
    DomainError,
    Params,
    log_pdf,
    oracle,
    pdf,
    renyi_entropy,
    shannon_entropy,
    song_measure,
    upper_inc_gamma,
)

# Frozen by the quadrature oracle: E1(1).
E1_AT_1 = 0.21938393439551956
SHANNON_11 = 1.0 - 2.0 * math.e * E1_AT_1


class TestRenyi:
    def test_order_two_closed_form(self, p11):
        # The squared density integrates to 5/4.
        assert renyi_entropy(p11, 2.0) == pytest.approx(-math.log(1.25), rel=1e-9)

    def test_rejects_order_one_and_nonpositive(self, p11):
        for bad in (1.0, 1.0 + 1e-13, 0.0, -2.0, math.nan):
            with pytest.raises(DomainError):
                renyi_entropy(p11, bad)

    def test_continuity_into_shannon(self, p11):
        sh = shannon_entropy(p11)
        assert abs(renyi_entropy(p11, 1.0 + 1e-4) - sh) <= 1e-3
        assert abs(renyi_entropy(p11, 1.0 - 1e-4) - sh) <= 1e-3

    def test_density_power_integral_identity(self):
        # exp((1 - g) * I(g)) must reproduce the integral of f^g.
        p = Params(2.0, 0.5)
        g = 3.0
        want = quad(lambda x: pdf(p, x) ** g, 0.0, 1.0, tol=1e-11)
        got = math.exp((1.0 - g) * renyi_entropy(p, g))
        assert got == pytest.approx(want, rel=1e-7)
        # And so must the explicit incomplete-gamma display.
        a, b = p.alpha, p.beta
        display = (
            (a * b * math.exp(a)) ** g
            / b
            * (a * g) ** ((1.0 - g * (1.0 + b)) / b)
            * upper_inc_gamma(g + (g - 1.0) / b, a * g)
        )
        assert display == pytest.approx(want, rel=1e-7)

    def test_nonincreasing_in_order(self):
        for p in (Params(1.0, 1.0), Params(0.5, 2.0), Params(2.0, 0.7)):
            sh = shannon_entropy(p)
            grid = [0.5, 0.9, 1.1, 2.0, 3.0, 5.0]
            vals = [renyi_entropy(p, g) for g in grid]
            with_shannon = vals[:2] + [sh] + vals[2:]
            assert all(b <= a + 1e-9 for a, b in zip(with_shannon, with_shannon[1:]))


class TestShannon:
    def test_closed_form_value(self, p11):
        assert_close(shannon_entropy(p11), SHANNON_11, 1e-9)

    def test_against_direct_quadrature(self):
        for p in (Params(1.0, 1.0), Params(2.0, 0.5)):
            want = quad(lambda x: -pdf(p, x) * log_pdf(p, x), 0.0, 1.0, tol=1e-11)
            assert shannon_entropy(p) == pytest.approx(want, rel=1e-7)

    def test_against_monte_carlo(self, p11):
        res = oracle.mc_expect(
            _ug_sampler(p11), lambda x: -_log_pdf_array(p11, x), 1_000_000, seed=5
        )
        assert abs(shannon_entropy(p11) - res.mean) <= 4.0 * res.std_error

    # 40-digit mpmath values of 1 - ln(alpha beta) - (1 + beta)/beta e^alpha E1(alpha),
    # where alpha * beta underflows to 0 or overflows to inf.
    @pytest.mark.parametrize("alpha, beta, want", [
        (1e-200, 1e-200, -4.5993980293390761e202),
        (1e-300, 1e-300, -6.9019831223331216e302),
        (1e200, 1e200, -920.0340371976183),
    ])
    def test_where_alpha_beta_leaves_the_doubles(self, alpha, beta, want):
        assert shannon_entropy(Params(alpha, beta)) == pytest.approx(want, rel=1e-14)

    def test_concentrated_law_has_negative_entropy(self):
        p = Params(50.0, 1.0)
        got = shannon_entropy(p)
        assert got < -1.0
        res = oracle.mc_expect(
            _ug_sampler(p), lambda x: -_log_pdf_array(p, x), 200_000, seed=6
        )
        assert abs(got - res.mean) <= 4.0 * res.std_error


class TestSongMeasure:
    @pytest.mark.parametrize("p", [Params(1.0, 1.0), Params(2.0, 0.5)], ids=str)
    def test_equals_variance_of_log_density(self, p):
        got = song_measure(p)
        assert got >= 0.0
        n = 1_000_000
        rng = np.random.Generator(np.random.Philox(key=31))
        x = _ug_sampler(p)(rng, n)
        w = _log_pdf_array(p, x)
        centered = w - w.mean()
        var = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        se_var = math.sqrt((m4 - var * var) / n)
        assert abs(got - var) <= 4.0 * se_var

    def test_matches_finite_difference_of_renyi(self):
        h = 1e-4
        for p in (Params(1.0, 1.0), Params(0.7, 2.0)):
            fd = (renyi_entropy(p, 1.0 + h) - renyi_entropy(p, 1.0 - h)) / (2.0 * h)
            assert song_measure(p) == pytest.approx(-2.0 * fd, rel=1e-3)

    def test_triangle_consistency(self, p11):
        # Closed form, finite difference, and MC variance within joint slack.
        closed = song_measure(p11)
        h = 1e-4
        fd = -2.0 * (
            renyi_entropy(p11, 1.0 + h) - renyi_entropy(p11, 1.0 - h)
        ) / (2.0 * h)
        assert closed == pytest.approx(fd, rel=1e-3)
        rng = np.random.Generator(np.random.Philox(key=77))
        w = _log_pdf_array(p11, _ug_sampler(p11)(rng, 500_000))
        assert closed == pytest.approx(float(w.var()), rel=0.02)
