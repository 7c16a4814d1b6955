"""Hazard-family functions, conditional moments, and stress-strength."""

import math

import numpy as np
import pytest

from conftest import assert_close, mrl_reference_param_sets, moment_by_quadrature, quad
from unitgompertz import (
    DomainError,
    Params,
    StressStrengthPair,
    cdf,
    conditional_moment,
    eit,
    hazard,
    mrl,
    partial_expectation,
    pdf,
    raw_moment,
    reversed_hazard,
    sample,
    sf,
    stress_strength,
)

# Frozen by the quadrature oracle.
CONDMOM_11_AT_HALF = 0.7331227978439973


class TestHazard:
    def test_half_point(self, p11):
        want = 4.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert hazard(p11, 0.5) == pytest.approx(want, rel=1e-13)

    def test_limits(self, p11):
        assert hazard(p11, 0.0) == 0.0
        assert hazard(p11, 1e-6) < 1e-300  # essentially zero this deep
        assert hazard(p11, 1.0) == math.inf
        assert hazard(p11, 1.0 - 1e-9) > 1e8

    def test_domain(self, p11):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                hazard(p11, bad)

    def test_past_the_doubles_is_inf(self):
        # f = e^738 and e^734 at x = 5e-324, and sf <= 1.
        assert hazard(Params(1e-4, 0.01), 5e-324) == math.inf
        assert hazard(Params(1.0, 5e-5), 5e-324) == math.inf

    # 80-digit mpmath values of f/sf.  Where alpha * beta and w = -ln F(x)
    # both underflow, every law with beta <= 1e-300 has the same hazard to
    # the last digit: x^-(1+beta) / -ln x, the beta -> 0 limit.
    TINY_LIMIT = {0.5: 2.8853900817779268, 1.0 - 1e-9: 1000000028.7819323,
                  1.0 - 2.0**-53: 9007199254740992.5}
    TINY_BETA = [((1e-310, 1e-10, 0.5), 2.8853900818779268),
                 ((1e-300, 1e-10, 1.0 - 1e-9), 1000000028.7819323),
                 ((1e-300, 1e-10, 1.0 - 2.0**-53), 9007199254740992.5)]

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-300])
    @pytest.mark.parametrize("beta", [5e-324, 1e-310, 1e-300])
    def test_where_w_leaves_the_normal_doubles(self, alpha, beta):
        for x, want in self.TINY_LIMIT.items():
            assert hazard(Params(alpha, beta), x) == pytest.approx(want, rel=1e-13), x

    @pytest.mark.parametrize("args, want", TINY_BETA)
    def test_where_w_is_subnormal(self, args, want):
        a, b, x = args
        assert hazard(Params(a, b), x) == pytest.approx(want, rel=1e-13)

    def test_increasing_near_the_upper_end(self):
        for a in (0.25, 1.0, 2.0):
            for b in (1.0, 2.0, 3.0):
                p = Params(a, b)
                xs = np.linspace(0.95, 0.999, 100)
                vals = [hazard(p, float(x)) for x in xs]
                assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:])), (a, b)


class TestReversedHazard:
    def test_values(self, p11):
        assert reversed_hazard(p11, 0.5) == pytest.approx(4.0, rel=1e-14)
        assert reversed_hazard(p11, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_finite_up_to_the_overflow_point(self):
        # e^709.5 is finite: arguments of exp between 709 and ~709.78 do not overflow.
        x = math.exp(-354.75)
        want = (1.0 / x) ** 2
        got = reversed_hazard(Params(1.0, 1.0), x)
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-15 * want

    def test_where_alpha_beta_underflows(self):
        # alpha * beta = 1e-400 is below the doubles; ln alpha + ln beta is not.
        got = reversed_hazard(Params(1e-200, 1e-200), 1e-300)
        assert got == pytest.approx(1e-100, rel=1e-13)

    def test_is_pdf_over_cdf(self):
        p = Params(2.0, 3.0)
        got = reversed_hazard(p, 0.7)
        assert got == pytest.approx(pdf(p, 0.7) / cdf(p, 0.7), rel=1e-12)

    def test_strictly_decreasing(self):
        for p in (Params(0.3, 0.6), Params(1.0, 1.0), Params(4.0, 2.5)):
            xs = np.linspace(0.01, 1.0, 300)
            vals = [reversed_hazard(p, float(x)) for x in xs]
            assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_identities_with_density(self):
        p = Params(1.7, 0.8)
        for x in np.linspace(0.05, 0.95, 19):
            x = float(x)
            assert hazard(p, x) * sf(p, x) == pytest.approx(pdf(p, x), rel=1e-12)
            assert reversed_hazard(p, x) * cdf(p, x) == pytest.approx(pdf(p, x), rel=1e-12)


class TestPartialExpectation:
    def test_endpoints(self, p11):
        assert partial_expectation(p11, 1, 0.0) == raw_moment(p11, 1)
        assert partial_expectation(p11, 1, 1.0) == 0.0
        # Tiny t behaves like the full moment.
        assert partial_expectation(p11, 1, 1e-9) == pytest.approx(
            raw_moment(p11, 1), rel=1e-12
        )

    def test_erfc_closed_form(self):
        # (alpha=1, beta=2, n=1, t=1/sqrt(2)): e * [Gamma(1/2,1) - Gamma(1/2,2)].
        p = Params(1.0, 2.0)
        want = (
            math.exp(1.0)
            * math.sqrt(math.pi)
            * (math.erfc(1.0) - math.erfc(math.sqrt(2.0)))
        )
        assert partial_expectation(p, 1, 1.0 / math.sqrt(2.0)) == pytest.approx(
            want, rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_oracle(self, n):
        p = Params(1.3, 0.8)
        for t in (0.2, 0.5, 0.8):
            want = moment_by_quadrature(p, n, lo=t)
            assert_close(partial_expectation(p, n, t), want, 1e-8, f"I_{n}({t})")


class TestConditionalMoment:
    def test_vacuous_condition(self, p11):
        assert conditional_moment(p11, 2, 0.0) == raw_moment(p11, 2)

    def test_null_event_rejected(self, p11):
        with pytest.raises(DomainError):
            conditional_moment(p11, 1, 1.0)

    def test_frozen_value(self, p11):
        assert_close(conditional_moment(p11, 1, 0.5), CONDMOM_11_AT_HALF, 1e-8)

    def test_bounds(self):
        p = Params(0.6, 1.7)
        for n in (1, 2, 4):
            for x in (0.1, 0.5, 0.9):
                v = conditional_moment(p, n, x)
                assert x**n < v <= 1.0

    def test_dominates_unconditional(self):
        p = Params(1.5, 0.9)
        for n in (1, 2):
            base = raw_moment(p, n)
            for x in np.linspace(0.05, 0.95, 19):
                assert conditional_moment(p, n, float(x)) >= base


class TestMrl:
    def test_at_zero_is_the_mean(self, p11):
        assert mrl(p11, 0.0) == raw_moment(p11, 1)

    def test_at_one_is_zero(self, p11):
        assert mrl(p11, 1.0) == 0.0

    def test_survival_integral_form(self):
        # mrl(t) = (integral of sf over (t, 1)) / sf(t).
        p = Params(2.0, 2.0)
        t = 0.9
        want = quad(lambda u: sf(p, u), t, 1.0, tol=1e-11) / sf(p, t)
        assert mrl(p, t) == pytest.approx(want, rel=1e-7)

    def test_bounded_by_remaining_support(self):
        for p in (Params(0.5, 1.0), Params(2.0, 2.0)):
            for t in np.linspace(0.0, 0.99, 100):
                assert mrl(p, float(t)) <= 1.0 - t + 1e-15

    def test_decreasing_at_reference_parameter_sets(self):
        for p in mrl_reference_param_sets():
            ts = np.linspace(0.001, 0.99, 200)
            vals = [mrl(p, float(t)) for t in ts]
            assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:])), p


class TestEit:
    def test_at_one_is_one_minus_mean(self, p11):
        assert eit(p11, 1.0) == pytest.approx(1.0 - raw_moment(p11, 1), rel=1e-8)

    def test_vanishing_window(self, p11):
        assert eit(p11, 1e-8) < 1e-7
        with pytest.raises(DomainError):
            eit(p11, 0.0)

    def test_defining_integral(self, p11):
        # I(x) = (integral of F over (0, x)) / F(x).
        x = 0.5
        want = quad(lambda y: cdf(p11, y), 0.0, x, tol=1e-11) / cdf(p11, x)
        assert eit(p11, x) == pytest.approx(want, rel=1e-7)

    def test_increasing(self):
        for p in (Params(0.25, 1.0), Params(1.0, 1.0), Params(2.0, 3.0)):
            xs = np.linspace(0.02, 1.0, 150)
            vals = [eit(p, float(x)) for x in xs]
            assert all(v2 > v1 - 1e-12 for v1, v2 in zip(vals, vals[1:])), p

    def test_log_cdf_concavity(self):
        # Closed-form second derivative of log F is strictly negative.
        for p in (Params(0.5, 0.5), Params(2.0, 3.0)):
            for x in np.linspace(0.05, 1.0, 50):
                d2 = -(1.0 + p.beta) * p.alpha * p.beta / float(x) ** (2.0 + p.beta)
                assert d2 < 0.0


class TestStressStrength:
    def test_symmetric_pair_is_half(self):
        pair = StressStrengthPair(Params(1.7, 0.9), Params(1.7, 0.9))
        assert stress_strength(pair) == 0.5

    def test_common_scale_closed_form(self):
        pair = StressStrengthPair(Params(1.0, 2.0), Params(3.0, 2.0))
        assert stress_strength(pair) == 0.25

    def test_mixed_scales_against_monte_carlo(self):
        strength = Params(1.0, 1.0)
        stress = Params(1.0, 2.0)
        got = stress_strength(StressStrengthPair(strength, stress))
        n = 1_000_000
        x = sample(strength, n, seed=11)
        y = sample(stress, n, seed=17)
        p_hat = float(np.mean(y < x))
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(got - p_hat) <= 4.0 * se

    def test_mixed_scales_against_direct_quadrature(self):
        strength = Params(0.8, 1.5)
        stress = Params(1.4, 0.6)
        got = stress_strength(StressStrengthPair(strength, stress))
        want = quad(
            lambda x: cdf(stress, x) * pdf(strength, x), 0.0, 1.0, tol=1e-11
        )
        assert got == pytest.approx(want, rel=1e-9)


# R at (alpha_X, beta_X, alpha_Y, beta_Y) against a 40-digit mpmath quadrature
# over v = -ln F_X.
PINNED_STRESS_STRENGTH = [
    ((0.01, 0.01, 0.01, 0.015), 0.16318491177151317),  # the x-space integral gave 0.1631849115741823
    # Mass below v = 1e-3, where the unscaled rule's first nodes see only 0.
    ((0.01, 0.01, 0.01, 1.5), 0.0002759075076562443),  # the x-space integral gave 0.0002759075076562437
]


@pytest.mark.parametrize("args, want", PINNED_STRESS_STRENGTH)
def test_stress_strength_pinned(args, want):
    pair = StressStrengthPair(Params(*args[:2]), Params(*args[2:]))
    assert_close(stress_strength(pair), want, 1e-12, str(args))


def test_stress_strength_is_a_probability_at_extreme_parameters():
    # 625 pairs; this used to raise OverflowError on 49 and exceed 1 on 4.
    grid = (1e-6, 1e-3, 1.0, 1e3, 1e6)
    bad = []
    for ax in grid:
        for bx in grid:
            for ay in grid:
                for by in (2e-6, 2e-3, 2.0, 2e3, 2e6):
                    r = stress_strength(StressStrengthPair(Params(ax, bx), Params(ay, by)))
                    if not 0.0 <= r <= 1.0:
                        bad.append((ax, bx, ay, by, r))
    assert not bad, bad


def test_stress_strength_is_a_probability_across_the_double_range():
    # Here beta_Y/beta_X underflows to 0 or overflows to inf, and v/alpha_X
    # passes the double range; the 0 * inf of r * log1p(v/alpha_X) read NaN.
    grid = (1e-300, 1e-6, 1.0, 1e6, 1e300)
    bad = []
    for ax in grid:
        for bx in grid:
            for ay in grid:
                for by in grid:
                    if bx != by:
                        r = stress_strength(StressStrengthPair(Params(ax, bx), Params(ay, by)))
                        if not 0.0 <= r <= 1.0:
                            bad.append((ax, bx, ay, by, r))
    assert not bad, bad


def test_stress_strength_mass_below_the_double_range_gives_zero():
    # The strength is below 1e-300 unless W_X < 1e-600; this raised ValueError.
    pair = StressStrengthPair(Params(1e-300, 1e-300), Params(1e-300, 1e-6))
    assert stress_strength(pair) == 0.0
