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
    cli,
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


# alpha beta is below 1e-400, so E[X] = alpha beta / (1 + alpha beta) is 0.0.
TINY_MEAN = [Params(a, b) for a in (1e-300, 1e-200) for b in (1e-300, 1e-200)]


@pytest.mark.parametrize("p", TINY_MEAN, ids=repr)
def test_lorenz_and_bonferroni_where_the_mean_underflows(p, tmp_path):
    # alpha cancels from m1/E[X] before either is formed; the limit is
    # L(u) = u^(1 + 1/(alpha beta)): 0.0 below u = 1 and 1.0 at it.
    us = [1e-300, 0.5, 1.0 - 2.0**-53, 1.0]
    want = [0.0, 0.0, 0.0, 1.0]
    assert raw_moment(p, 1) == 0.0
    for f in (lorenz, bonferroni):
        assert [f(p, u) for u in us] == want
        assert f(p, np.array(us)).tolist() == want
        for grid in ("0:1:41", "0.001:0.999:999"):
            code = cli.main(["curve", "--fn", f.__name__, "--alpha", repr(p.alpha),
                             "--beta", repr(p.beta), "--grid", grid,
                             "--out", str(tmp_path / "c.csv")])
            assert code == 0


# At alpha below w/DBL_MAX (subnormal) w/alpha passes the doubles, and ln(z/alpha)
# must not.  L(u) = Gamma(s; alpha + w) / Gamma(s; alpha), s = 1 - 1/beta,
# w = -ln u: the alpha^m e^alpha of m1 and E[X] cancel (40-digit mpmath).
SUBNORMAL_ALPHA = [
    (Params(1e-310, 2.0), 0.2, 0.07279360606363308),  # E[X] normal: the kernel
    (Params(1e-311, 1.0), 0.5, 0.0005292199683434854),  # E[X] not, s = 0
    (Params(1e-320, 1.001), 0.5, 0.0007269973619931162),  # E[X] not, 0 < s
]


@pytest.mark.parametrize("p, u, want", SUBNORMAL_ALPHA)
def test_lorenz_and_bonferroni_at_a_subnormal_alpha(p, u, want):
    assert_close(lorenz(p, u), want, 1e-13)
    assert_close(bonferroni(p, u), want / u, 1e-13)
    assert lorenz(p, np.array([u, 1.0])).tolist() == [lorenz(p, u), 1.0]
    assert bonferroni(p, np.array([u, 1.0])).tolist() == [bonferroni(p, u), 1.0]
    # On a grid the array form mixes both sides of w/alpha = DBL_MAX.
    grid = np.linspace(0.001, 0.999, 999)
    vals = lorenz(p, grid)
    assert np.all(vals > 0.0) and np.all(np.diff(vals) > 0.0) and np.all(vals < grid)
    assert vals.tolist() == [lorenz(p, float(u)) for u in grid]


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
    def test_where_w_overflows_the_lower_conditional_mean_is_x(self):
        # At (100, 5e4) w = -ln F(0.5) is past the doubles: given X <= 0.5,
        # X is 0.5 to the last bit, so Z = 1 - 0.5 / mean (50-digit mpmath).
        p = Params(100.0, 5e4)
        assert zenga(p, 0.5) == pytest.approx(0.49999990098057694, rel=1e-14)
        assert zenga(p, np.array([0.5])).tolist() == [zenga(p, 0.5)]

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
