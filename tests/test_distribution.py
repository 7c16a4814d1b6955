"""Core law: densities, quantiles, sampling, moments, and the shape results."""

import math

import numpy as np
import pytest

import unitgompertz
from conftest import assert_close, moment_by_quadrature, quad, wide_lattice
from unitgompertz import (
    DomainError,
    Params,
    cdf,
    log_concavity_bound,
    log_pdf,
    log_pdf_second_derivative,
    mode,
    pdf,
    quantile,
    raw_moment,
    sample,
    sf,
)

# Frozen by the quadrature oracle.
MEAN_11 = 0.5963473623231923
MEAN_12 = 0.7578721561413098


class TestValidate:
    def test_accepts_positive_pairs(self):
        assert Params(1, 1) == Params(1.0, 1.0)
        assert Params(2.5, 0.3).beta == 0.3

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (-2, 3), (math.nan, 1),
                                      (1, math.inf), (math.inf, math.inf),
                                      (True, "1"), (1, "1"), (np.bool_(True), 1),
                                      (1, False), (None, 1), (1, 1 + 0j),
                                      pytest.param(10**400, 1, id="alpha-past-double"),
                                      pytest.param(1, -(10**400), id="beta-past-double")])
    def test_rejects_bad_pairs(self, a, b):
        with pytest.raises(DomainError):
            Params(a, b)

    def test_accepts_python_and_numpy_numbers(self):
        assert Params(np.int64(2), np.float32(0.5)) == Params(2.0, 0.5)
        assert Params(1, 1) == Params(1.0, 1.0)


class TestLogPdf:
    def test_half_point(self, p11):
        assert log_pdf(p11, 0.5) == pytest.approx(math.log(4.0) - 1.0, rel=1e-14)

    def test_upper_endpoint_is_log_alpha_beta(self, p11):
        assert log_pdf(p11, 1.0) == 0.0
        assert log_pdf(Params(3.0, 2.0), 1.0) == pytest.approx(math.log(6.0), rel=1e-14)

    def test_alpha_beta_below_the_doubles(self):
        # ln f(1/2) = ln(alpha beta) + ln 2 - w, w = 1e-200 * expm1(1e-200 ln 2).
        got = log_pdf(Params(1e-200, 1e-200), 0.5)
        assert got == pytest.approx(-400.0 * math.log(10.0) + math.log(2.0), rel=1e-15)
        assert pdf(Params(1e-200, 1e-200), 0.5) == 0.0  # 2e-400 underflows

    def test_deep_tail_stays_finite_in_log_space(self):
        p = Params(1.0, 2.0)
        got = log_pdf(p, 1e-6)
        assert math.isfinite(got)
        assert got == pytest.approx(-1e12, rel=1e-4)  # dominated by -alpha/x^beta
        assert pdf(p, 1e-6) == 0.0  # underflows as a plain double

    def test_zero_convention_and_domain(self, p11):
        assert log_pdf(p11, 0.0) == -math.inf
        for bad in (-0.1, 1.5):
            with pytest.raises(DomainError):
                log_pdf(p11, bad)


class TestPdfCdfSf:
    def test_pdf_values(self, p11):
        assert pdf(p11, 0.5) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-14)
        assert pdf(Params(3.0, 1.0), 1.0) == 3.0
        assert pdf(p11, 0.0) == 0.0

    def test_cdf_values(self, p11):
        assert cdf(p11, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert cdf(Params(2.0, 3.0), 1.0) == 1.0
        assert cdf(Params(2.0, 3.0), 0.0) == 0.0

    def test_sf_values(self, p11):
        assert sf(p11, 0.5) == pytest.approx(-math.expm1(-1.0), rel=1e-14)
        assert sf(p11, 1.0) == 0.0
        assert sf(p11, 0.0) == 1.0

    def test_pdf_past_the_doubles_is_inf(self):
        # ln f = 738 and 734 at x = 5e-324: f saturates, as exp does.
        assert pdf(Params(1e-4, 0.01), 5e-324) == math.inf
        assert pdf(Params(1.0, 5e-5), 5e-324) == math.inf

    def test_sf_precision_near_one(self, p11):
        # 1 - cdf loses precision here; expm1 must not.
        x = 1.0 - 1e-12
        assert sf(p11, x) == pytest.approx(1e-12, rel=1e-3)


class TestQuantile:
    def test_inverts_cdf_example(self, p11):
        assert quantile(p11, math.exp(-1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_top_and_median(self, p11):
        assert quantile(p11, 1.0) == 1.0
        assert quantile(p11, 0.5) == pytest.approx(1.0 / (1.0 + math.log(2.0)), rel=1e-14)

    def test_domain(self, p11):
        for bad in (0.0, -0.5, 1.0 + 1e-12):
            with pytest.raises(DomainError):
                quantile(p11, bad)

    def test_round_trips(self):
        p = Params(0.7, 2.3)
        for x in np.linspace(0.05, 0.99, 40):
            assert quantile(p, cdf(p, x)) == pytest.approx(x, rel=1e-9)
        for u in np.linspace(0.01, 1.0, 40):
            assert cdf(p, quantile(p, u)) == pytest.approx(u, rel=1e-12)


class TestSample:
    def test_rejects_bad_n(self, p11):
        for bad in (0, -1, 2.5, True, np.True_):
            with pytest.raises(DomainError):
                sample(p11, bad, seed=1)

    def test_rejects_bad_seed(self, p11):
        for bad in (-1, 2**128, 1.5, "7", None, False, True, np.False_):
            with pytest.raises(DomainError):
                sample(p11, 10, seed=bad)
        assert sample(p11, 3, seed=np.int64(5)).shape == (3,)
        assert sample(p11, 3, seed=2**128 - 1).shape == (3,)

    def test_deterministic_and_in_open_interval(self, p11):
        a = sample(p11, 1000, seed=99)
        b = sample(p11, 1000, seed=99)
        assert np.array_equal(a, b)
        assert a.min() > 0.0 and a.max() < 1.0

    def test_kolmogorov_smirnov(self):
        p = Params(2.0, 0.7)
        n = 100_000
        draws = np.sort(sample(p, n, seed=2024))
        grid = np.arange(1, n + 1) / n
        cdf_vals = np.array([cdf(p, float(x)) for x in draws])
        d_stat = np.max(np.maximum(np.abs(grid - cdf_vals),
                                   np.abs(cdf_vals - (grid - 1.0 / n))))
        assert d_stat < 1.63 / math.sqrt(n)  # 1% critical value


class TestMoments:
    def test_mean_values(self, p11):
        assert_close(raw_moment(p11, 1), MEAN_11, 1e-9, "mean(1,1)")
        want = math.exp(1.0) * math.sqrt(math.pi) * math.erfc(1.0)
        assert_close(raw_moment(Params(1.0, 2.0), 1), want, 1e-12, "mean(1,2)")
        assert_close(raw_moment(Params(1.0, 2.0), 1), MEAN_12, 1e-9)

    def test_second_moment_against_oracle(self):
        p = Params(2.0, 3.0)
        assert_close(raw_moment(p, 2), moment_by_quadrature(p, 2), 1e-8)

    def test_moments_decrease_with_order(self):
        for p in (Params(0.5, 0.5), Params(1.0, 1.0), Params(3.0, 2.0)):
            vals = [raw_moment(p, n) for n in range(1, 6)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_order(self, p11):
        for bad in (0, -1, 1.5, "1", [1], True, np.True_):
            with pytest.raises(DomainError):
                raw_moment(p11, bad)


class TestShape:
    def test_counterexample_point_is_convex(self):
        # The log-density is NOT concave on the whole support.
        assert log_pdf_second_derivative(Params(0.25, 1.0), 0.5) == 4.0

    def test_concave_point(self):
        assert log_pdf_second_derivative(Params(2.0, 1.0), 0.5) == -24.0

    def test_zero_at_the_boundary_when_exact(self, p11):
        # alpha*beta = 1 makes the boundary land exactly on x = 1.
        assert log_pdf_second_derivative(p11, 1.0) == 0.0

    def test_bound_values(self):
        assert log_concavity_bound(Params(0.25, 1.0)) == 0.25
        assert log_concavity_bound(Params(2.0, 1.0)) == 1.0
        assert log_concavity_bound(Params(1.0, 1.0)) == 1.0

    def test_sign_structure_around_bound(self):
        p = Params(0.25, 1.0)
        bound = log_concavity_bound(p)
        for x in np.linspace(0.01, 0.99, 199):
            d2 = log_pdf_second_derivative(p, float(x))
            if x < bound - 1e-9:
                assert d2 < 0.0
            elif x > bound + 1e-9:
                assert d2 > 0.0

    def test_mode_values(self):
        assert mode(Params(3.0, 1.0)) == 1.0  # stationary point 1.5 is out of support
        assert mode(Params(1.0, 1.0)) == 0.5
        assert mode(Params(2.0, 2.0)) == 1.0  # sqrt(4/3) > 1, capped

    @pytest.mark.parametrize("beta", [1e-10, 0.5])
    def test_mode_and_bound_where_the_power_overflows(self, beta):
        # alpha * beta >= 1, so both are 1 without the power, which would overflow.
        assert mode(Params(1e200, beta)) == 1.0
        assert log_concavity_bound(Params(1e200, beta)) == 1.0

    def test_mode_is_global_maximum(self):
        for p in (Params(0.25, 1.0), Params(3.0, 1.0), Params(1.0, 2.5)):
            peak = pdf(p, mode(p))
            for x in np.linspace(0.001, 1.0, 500):
                assert pdf(p, float(x)) <= peak * (1.0 + 1e-12)


class TestAgainstOracle:
    @pytest.mark.parametrize("p", wide_lattice(), ids=str)
    def test_normalization(self, p):
        assert abs(quad(lambda x: pdf(p, x), 0.0, 1.0, tol=1e-11) - 1.0) <= 1e-9

    def test_cdf_is_antiderivative_of_pdf(self):
        h = 1e-5
        for p in (Params(0.5, 0.5), Params(1.0, 1.0), Params(2.0, 3.0)):
            for x in np.linspace(0.15, 0.85, 15):
                deriv = (cdf(p, x + h) - cdf(p, x - h)) / (2.0 * h)
                assert deriv == pytest.approx(pdf(p, float(x)), rel=1e-6)

    def test_cdf_decreasing_in_alpha(self):
        for beta in (0.5, 1.0, 2.0):
            for x in np.linspace(0.05, 0.95, 19):
                lo, hi = Params(0.5, beta), Params(2.0, beta)
                assert cdf(lo, float(x)) >= cdf(hi, float(x))


# A power of alpha (alpha^(n/beta), or z^(k/beta - 1) with z a multiple of
# alpha) leaves the double range while the incomplete gamma it multiplies
# leaves it the other way; every value is finite.  References: 50-digit
# mpmath (perfbench/reference.py).  The order-statistic moments are positive
# integrals over v = -ln F, where alpha^(k/beta) never appears.
POWER_PAST_RANGE = [
    ("raw_moment", (0.01, 0.01, 2), 5.0248718467993586e-05, 1e-12),  # alpha^200 = 0
    ("raw_moment", (0.01, 1 / 159, 1), 6.328710821615105e-05, 1e-12),  # subnormal
    ("raw_moment", (100.0, 1e-3, 1), 0.09098427207620166, 1e-12),  # alpha^1000 = inf
    ("raw_moment", (0.5, 1e-12, 1), 5.0000000000025e-13, 1e-12),  # 1e12 would-be steps
    ("conditional_moment", (0.01, 0.01, 2, 0.5), 0.5405949722764114, 1e-12),
    ("conditional_moment", (100.0, 0.01, 4, 0.5), 0.3871501892922761, 1e-12),
    ("eit", (0.01, 0.002, 0.5), 0.4999899662613222, 1e-12),
    ("mrl", (0.01, 0.005, 0.5), 0.2212056987292262, 1e-12),
    ("lorenz", (0.01, 0.005, 0.9), 4.0237495497802343e-212, 1e-12),
    ("zenga", (100.0, 1e-3, 0.5), 0.937142203407101, 1e-12),
    ("zenga", (10.0, 2e-3, 0.999), 0.9803641818821301, 1e-12),
    ("order_stat_moment", (0.01, 0.01, 3, 1, 2), 7.727407557319471e-13, 1e-10),
    ("order_stat_moment", (100.0, 0.01, 40, 1, 1), 0.025812299061187732, 1e-10),
    ("renyi_entropy", (0.01, 0.01, 0.05), -0.430213254562445, 1e-12),  # Gamma(-94.95; 5e-4)
    ("renyi_entropy", (1.1501274283959058, 2.4440619361037017, 119.0074790577029),
     -1.0474902232377092, 1e-12),
]


@pytest.mark.parametrize("fn, args, want, tol", POWER_PAST_RANGE)
def test_closed_forms_where_a_power_leaves_the_double_range(fn, args, want, tol):
    got = getattr(unitgompertz, fn)(Params(*args[:2]), *args[2:])
    assert abs(got / want - 1) <= tol, got
