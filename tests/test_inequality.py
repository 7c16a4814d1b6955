"""Incomplete moment, mean deviations, and the three inequality curves."""

import math

import numpy as np
import pytest

from conftest import assert_close, moment_by_quadrature, quad
from unitgompertz import (
    DomainError,
    Params,
    bonferroni,
    cdf,
    first_incomplete_moment,
    lorenz,
    mean_deviation_about,
    mrl,
    partial_expectation,
    pdf,
    quantile,
    raw_moment,
    sf,
    upper_inc_gamma,
    zenga,
)

# Frozen from the erfc closed form: e*sqrt(pi)*erfc(sqrt(2)) / mean(1, 2).
LORENZ_12_AT_EXP_MINUS_1 = 0.2892593341669736
# Frozen by the quadrature oracle via the conditional-mean construction.
ZENGA_11_AT_HALF = 0.5071376610428239


class TestFirstIncompleteMoment:
    def test_full_range_is_the_mean(self, p11):
        assert first_incomplete_moment(p11, 1.0) == raw_moment(p11, 1)

    def test_vanishes_at_the_origin(self, p11):
        assert first_incomplete_moment(p11, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_against_oracle(self, p11):
        want = moment_by_quadrature(p11, 1, hi=0.5)
        assert_close(first_incomplete_moment(p11, 0.5), want, 1e-8)

    def test_domain(self, p11):
        with pytest.raises(DomainError):
            first_incomplete_moment(p11, 0.0)

    @pytest.mark.parametrize("z", [0.02, 0.05, 0.1])
    def test_lower_tail_matches_mpmath(self, p11, z):
        # m1(0.02) is about 1e-23, far below the mean: formed as mean - I1(z)
        # it cancels to nothing.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = mp.quad(lambda x: x * mp.exp(1 - 1 / x) / x**2, [0, z / 2, mp.mpf(z)])
            assert_close(first_incomplete_moment(p11, z), float(want), 1e-12, f"m1({z})")


class TestMeanDeviation:
    def test_about_the_mean_formula(self, p11):
        mu = raw_moment(p11, 1)
        want = 2.0 * mu * cdf(p11, mu) - 2.0 * mu + 2.0 * partial_expectation(p11, 1, mu)
        assert mean_deviation_about(p11, mu) == pytest.approx(want, rel=1e-12)

    def test_about_the_median_reduces(self, p11):
        med = quantile(p11, 0.5)
        mu = raw_moment(p11, 1)
        want = 2.0 * partial_expectation(p11, 1, med) - mu
        assert mean_deviation_about(p11, med) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("x0", [0.2, 0.45, 0.7])
    def test_against_oracle(self, x0):
        p = Params(1.5, 0.8)
        want = quad(lambda x: abs(x - x0) * pdf(p, x), 0.0, 1.0, tol=1e-11)
        assert_close(mean_deviation_about(p, x0), want, 1e-8, f"delta({x0})")

    def test_tends_to_the_mean_near_zero(self, p11):
        assert mean_deviation_about(p11, 1e-8) == pytest.approx(
            raw_moment(p11, 1), rel=1e-6
        )

    def test_minimized_at_the_median(self):
        p = Params(2.0, 1.5)
        med = quantile(p, 0.5)
        at_median = mean_deviation_about(p, med)
        for x0 in np.linspace(0.05, 0.95, 37):
            assert mean_deviation_about(p, float(x0)) >= at_median - 1e-12


class TestLorenz:
    def test_full_mass(self, p11):
        assert lorenz(p11, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_tiny_mass(self, p11):
        assert lorenz(p11, 1e-9) < 1e-8

    def test_erfc_spot_value(self):
        got = lorenz(Params(1.0, 2.0), math.exp(-1.0))
        assert_close(got, LORENZ_12_AT_EXP_MINUS_1, 1e-12)

    def test_matches_incomplete_moment_route(self):
        for p in (Params(1.0, 1.0), Params(2.0, 0.5), Params(0.5, 3.0)):
            mu = raw_moment(p, 1)
            for prob in np.linspace(0.05, 1.0, 20):
                prob = float(prob)
                q = quantile(p, prob)
                want = first_incomplete_moment(p, q) / mu
                assert lorenz(p, prob) == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_increasing_convex_below_diagonal(self):
        p = Params(1.3, 2.1)
        probs = np.linspace(0.02, 1.0, 50)
        vals = [lorenz(p, float(u)) for u in probs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v <= u + 1e-12 for u, v in zip(probs, vals))
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)


class TestBonferroni:
    def test_full_mass(self, p11):
        assert bonferroni(p11, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_identity(self, p11):
        for prob in np.linspace(0.05, 0.95, 19):
            prob = float(prob)
            assert bonferroni(p11, prob) == lorenz(p11, prob) / prob

    def test_spot_value(self):
        got = bonferroni(Params(1.0, 2.0), math.exp(-1.0))
        assert_close(got, LORENZ_12_AT_EXP_MINUS_1 * math.e, 1e-12)

    def test_bounded_and_increasing(self):
        p = Params(0.8, 1.4)
        probs = np.linspace(0.05, 1.0, 40)
        vals = [bonferroni(p, float(u)) for u in probs]
        assert all(v <= 1.0 + 1e-12 for v in vals)
        assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestZenga:
    def test_conditional_mean_construction(self, p11):
        assert_close(zenga(p11, 0.5), ZENGA_11_AT_HALF, 1e-8)
        # Live construction: 1 - (E[X | X <= x] / E[X | X > x]).
        x = 0.5
        lower = quad(lambda y: y * pdf(p11, y), 0.0, x, tol=1e-12) / cdf(p11, x)
        upper = quad(lambda y: y * pdf(p11, y), x, 1.0, tol=1e-12) / sf(p11, x)
        assert zenga(p11, x) == pytest.approx(1.0 - lower / upper, rel=1e-8)

    def test_interior_values_in_unit_interval(self):
        p = Params(2.0, 0.7)
        for x in np.linspace(0.05, 0.95, 19):
            assert 0.0 < zenga(p, float(x)) < 1.0

    def test_relation_to_mean_residual_life(self):
        # The relation divides 1 - mu/(x + mrl) by the cdf; both sides shrink
        # together, so it is only evaluable in doubles where the cdf is not
        # vanishingly small.
        for p in (Params(1.0, 1.0), Params(0.5, 2.0)):
            mu = raw_moment(p, 1)
            for x in np.linspace(0.1, 0.9, 17):
                x = float(x)
                if cdf(p, x) < 1e-6:
                    continue
                want = (1.0 - mu / (x + mrl(p, x))) / cdf(p, x)
                assert zenga(p, x) == pytest.approx(want, rel=1e-8)

    def test_both_printed_forms_agree(self):
        # Abstract form uses sf/cdf; substituted form spells the exponentials out.
        for p in (Params(1.0, 1.0), Params(2.0, 3.0), Params(0.5, 0.8)):
            s = 1.0 - 1.0 / p.beta
            for x in np.linspace(0.15, 0.9, 16):
                x = float(x)
                g_x = upper_inc_gamma(s, p.alpha * x**-p.beta)
                g_a = upper_inc_gamma(s, p.alpha)
                bracket = g_x / (g_a - g_x)
                form_a = 1.0 - bracket * sf(p, x) / cdf(p, x)
                expo = math.exp(-p.alpha * (x**-p.beta - 1.0))
                form_b = 1.0 - bracket * (1.0 - expo) / expo
                assert form_a == pytest.approx(form_b, rel=1e-12)
                assert zenga(p, x) == pytest.approx(form_a, rel=1e-9)

    def test_domain(self, p11):
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                zenga(p11, bad)
