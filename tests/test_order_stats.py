"""Order-statistic densities and moments against quadrature and identities."""

import math
import warnings

import numpy as np
import pytest

from conftest import assert_close, quad
from unitgompertz import (
    DomainError,
    Params,
    cdf,
    order_stat_mixture_pdf,
    order_stat_moment,
    order_stat_pdf,
    pdf,
    raw_moment,
)


class TestDensity:
    def test_single_draw_reduces_to_parent(self, p11):
        for x in np.linspace(0.05, 0.95, 19):
            x = float(x)
            assert order_stat_pdf(p11, 1, 1, x) == pytest.approx(pdf(p11, x), rel=1e-13)

    def test_maximum_of_three(self, p11):
        # 3 f F^2 at x = 1/2.
        want = 3.0 * 4.0 * math.exp(-1.0) * math.exp(-2.0)
        assert order_stat_pdf(p11, 3, 3, 0.5) == pytest.approx(want, rel=1e-13)

    def test_composition_identity(self):
        p = Params(1.6, 0.9)
        n, j = 5, 2
        for x in (0.2, 0.5, 0.8):
            want = (
                math.comb(n, j) * j
                * pdf(p, x)
                * cdf(p, x) ** (j - 1)
                * (1.0 - cdf(p, x)) ** (n - j)
            )
            assert order_stat_pdf(p, n, j, x) == pytest.approx(want, rel=1e-12)

    def test_normalization(self):
        p = Params(1.0, 1.0)
        total = quad(lambda x: order_stat_pdf(p, 5, 2, x), 0.0, 1.0, tol=1e-10)
        assert abs(total - 1.0) <= 1e-8

    def test_endpoint_conventions(self, p11):
        assert order_stat_pdf(p11, 4, 2, 0.0) == 0.0
        assert order_stat_pdf(p11, 4, 2, 1.0) == 0.0
        assert order_stat_pdf(p11, 4, 4, 1.0) == p11.alpha * p11.beta

    def test_rank_validation(self, p11):
        for n, j in [(0, 1), (3, 0), (3, 4), (3, 2.5)]:
            with pytest.raises(DomainError):
                order_stat_pdf(p11, n, j, 0.5)


class TestMoment:
    def test_single_draw_is_raw_moment(self, p11):
        assert order_stat_moment(p11, 1, 1, 1) == pytest.approx(
            raw_moment(p11, 1), rel=1e-12
        )
        assert order_stat_moment(p11, 1, 1, 3) == pytest.approx(
            raw_moment(p11, 3), rel=1e-12
        )

    def test_maximum_dominates_parent_mean(self, p11):
        top = order_stat_moment(p11, 2, 2, 1)
        want = quad(lambda x: x * order_stat_pdf(p11, 2, 2, x), 0.0, 1.0, tol=1e-11)
        assert top == pytest.approx(want, rel=1e-8)
        assert top > raw_moment(p11, 1)

    def test_against_quadrature(self):
        p = Params(2.0, 2.0)
        want = quad(lambda x: x**2 * order_stat_pdf(p, 5, 1, x), 0.0, 1.0, tol=1e-11)
        assert_close(order_stat_moment(p, 5, 1, 2), want, 1e-7, "E[X_(1)^2], n=5")

    def test_moment_order_validation(self, p11):
        with pytest.raises(DomainError):
            order_stat_moment(p11, 3, 1, 0)

    def test_increasing_in_rank(self):
        for p in (Params(1.0, 1.0), Params(0.5, 2.0)):
            for k in (1, 2):
                vals = [order_stat_moment(p, 5, j, k) for j in range(1, 6)]
                assert all(b > a for a, b in zip(vals, vals[1:])), (p, k)

    def test_every_order_is_finite_even_past_beta(self):
        # Moments exist for every k on a bounded support; k >= beta included.
        p = Params(1.0, 0.5)
        for k in (1, 2, 3, 4):
            v = order_stat_moment(p, 3, 2, k)
            assert math.isfinite(v) and v > 0.0

    def test_former_cancellation_case_needs_no_fallback(self):
        # The alternating sum used to lose more than 8 digits here and fall
        # back, with a CancellationWarning, to an x-space quadrature.
        p = Params(0.05, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = order_stat_moment(p, 40, 1, 1)
        assert_close(got, 0.012488460059900813, 1e-12, "E[X_(1)], n=40")


# E[X_(j)^k] at (alpha, beta, n, j, k) against 40-digit mpmath.
PINNED_MOMENTS = [
    ((1.0, 1.0, 20, 10, 1), 0.575231032316316),  # the alternating sum gave 0.5752310421249663
    ((1.0, 1.0, 20, 1, 1), 0.23263142529771905),  # the alternating sum gave 0.2326314250215439
    ((100.0, 100.0, 40, 20, 3), 0.9997816205153681),  # the x-space fallback gave 0.0
    # Mass near v = 2.5e-7, far below the folded rule's first nodes unless rescaled.
    ((1e-4, 0.01, 1, 1, 4), 2.5062650344455686e-07),  # the alternating sum gave the same
]


@pytest.mark.parametrize("args, want", PINNED_MOMENTS)
def test_pinned_moments(args, want):
    assert_close(order_stat_moment(Params(*args[:2]), *args[2:]), want, 1e-12, str(args))


# E[X_(j)^k] at (alpha, beta, n, j, k) on a lattice, against 40-digit mpmath
# (perfbench/reference.py, computed once).
LATTICE_MOMENTS = [
    ((0.01, 0.01, 1, 1, 1), 0.00010099979491941915),
    ((0.01, 0.01, 20, 10, 1), 1.307754967348895e-31),
    ((0.01, 0.01, 40, 1, 1), 1.05564244651329e-108),
    ((0.01, 0.01, 40, 20, 3), 1.379947261588143e-63),
    ((0.01, 1.0, 1, 1, 1), 0.04078511443456426),
    ((0.01, 1.0, 20, 10, 1), 0.014141184272328156),
    ((0.01, 1.0, 40, 1, 1), 0.002524862646398038),
    ((0.01, 1.0, 40, 20, 3), 3.33845356941455e-06),
    ((0.01, 100.0, 1, 1, 1), 0.9601025372584633),
    ((0.01, 100.0, 20, 10, 1), 0.9578368561418301),
    ((0.01, 100.0, 40, 1, 1), 0.9415746906321661),
    ((0.01, 100.0, 40, 20, 3), 0.8794992352166668),
    ((1.0, 0.01, 1, 1, 1), 0.00999899020908473),
    ((1.0, 0.01, 20, 10, 1), 2.4086241210428944e-10),
    ((1.0, 0.01, 40, 1, 1), 2.4897740143206258e-33),
    ((1.0, 0.01, 40, 20, 3), 1.66042858920263e-22),
    ((1.0, 1.0, 1, 1, 1), 0.5963473623231941),
    ((1.0, 1.0, 20, 10, 1), 0.575231032316316),
    ((1.0, 1.0, 40, 1, 1), 0.19953831159800176),
    ((1.0, 1.0, 40, 20, 3), 0.20306103690950844),
    ((1.0, 100.0, 1, 1, 1), 0.9940630264350633),
    ((1.0, 100.0, 20, 10, 1), 0.9944011983808245),
    ((1.0, 100.0, 40, 1, 1), 0.9837661089331713),
    ((1.0, 100.0, 40, 20, 3), 0.983809847006683),
    ((100.0, 0.01, 1, 1, 1), 0.5012468674391032),
    ((100.0, 0.01, 20, 10, 1), 0.47752332738381054),
    ((100.0, 0.01, 40, 1, 1), 0.025812299061187732),
    ((100.0, 0.01, 40, 20, 3), 0.12564017959145388),
    ((100.0, 1.0, 1, 1, 1), 0.9901942286733019),
    ((100.0, 1.0, 20, 10, 1), 0.9923764391916616),
    ((100.0, 1.0, 40, 1, 1), 0.9591110206531964),
    ((100.0, 1.0, 40, 20, 3), 0.9784078412670849),
    ((100.0, 100.0, 1, 1, 1), 0.9999009902867152),
    ((100.0, 100.0, 20, 10, 1), 0.9999234478073168),
    ((100.0, 100.0, 40, 1, 1), 0.9995818787081697),
    ((100.0, 100.0, 40, 20, 3), 0.9997816205153681),
]


def test_moment_lattice_against_mpmath():
    bad = []
    for args, want in LATTICE_MOMENTS:
        err = abs(order_stat_moment(Params(*args[:2]), *args[2:]) / want - 1)
        if err > 1e-12:
            bad.append((args, err))
    assert not bad, bad


def test_mass_below_the_double_range_gives_zero():
    # X = (alpha/(alpha + W))^(1/beta) is below 1e-300 unless W < 1e-600.
    # The alternating sum's fallback raised ValueError here.
    assert order_stat_moment(Params(1e-300, 1e-300), 40, 20, 3) == 0.0


def test_maximum_is_the_law_with_n_times_alpha():
    # F^n is the cdf of UG(n alpha, beta), so X_(n) has its raw moments.  At
    # alpha = 1e-300 the mass of the v-integrand spreads over 690 e-folds of v.
    for p in (Params(0.01, 0.01), Params(1.0, 1.0), Params(0.5, 3.0), Params(1e-300, 1.0)):
        for n in (2, 40, 10**7):
            for k in (1, 3):
                want = raw_moment(Params(n * p.alpha, p.beta), k)
                assert_close(order_stat_moment(p, n, n, k), want, 1e-12, str((p, n, k)))


class TestMixtureIdentity:
    def test_average_density_recovers_parent(self, p11):
        for x in np.linspace(0.05, 0.95, 31):
            x = float(x)
            assert order_stat_mixture_pdf(p11, 4, x) == pytest.approx(
                pdf(p11, x), rel=1e-10
            )
