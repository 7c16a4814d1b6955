"""Stochastic-order grid checks: directions, reports, and implication chains."""

import math

import numpy as np
import pytest

import unitgompertz.oracle
from unitgompertz import (
    ORDER_KINDS,
    SUITE_ORDER_KINDS,
    DomainError,
    OrderReport,
    Params,
    check_order,
    eit,
    log_pdf,
    common_scale_order_suite,
    orders,
    quantile,
)


class TestReportContract:
    def test_failed_report_needs_a_violation(self):
        with pytest.raises(ValueError):
            OrderReport("lr", False, None, 128)

    def test_grid_size_is_recorded(self):
        r = check_order("st", Params(1, 1), Params(2, 1), grid_size=100)
        assert r.grid_size == 100 and r.kind == "st"

    def test_kind_and_grid_validation(self):
        with pytest.raises(DomainError):
            check_order("nope", Params(1, 1), Params(2, 1))
        for grid_size in (32, 100.5, "128"):
            with pytest.raises(DomainError):
                check_order("st", Params(1, 1), Params(2, 1), grid_size=grid_size)


class TestReflexivity:
    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_law_precedes_itself(self, kind):
        p = Params(1.3, 0.8)
        assert check_order(kind, p, p).holds


class TestLikelihoodRatio:
    def test_smaller_alpha_precedes(self):
        assert check_order("lr", Params(1, 1), Params(2, 1)).holds

    def test_reversed_direction_fails_with_location(self):
        r = check_order("lr", Params(2, 1), Params(1, 1))
        assert not r.holds
        t, lhs, rhs = r.first_violation
        assert 0.0 < t < 1.0
        # The recorded values are consecutive log-ratio samples that rose.
        assert lhs > rhs

    def test_exactly_one_direction_holds(self):
        for a1, a2, b in [(0.5, 1.5, 1.0), (2.0, 0.7, 2.0)]:
            fwd = check_order("lr", Params(a1, b), Params(a2, b)).holds
            rev = check_order("lr", Params(a2, b), Params(a1, b)).holds
            assert fwd != rev

    def test_ratio_closed_form(self):
        a1, a2, b = 1.0, 2.0, 1.5
        x_law, y_law = Params(a1, b), Params(a2, b)
        for x in np.linspace(0.05, 0.95, 19):
            x = float(x)
            got = math.exp(log_pdf(x_law, x) - log_pdf(y_law, x))
            want = (a1 / a2) * math.exp(a1 - a2) * math.exp(-(x**-b) * (a1 - a2))
            assert got == pytest.approx(want, rel=1e-12)


class TestEitDirection:
    def test_inequality_is_reversed(self):
        # X smaller in the eit order means X has the LARGER inactivity time.
        small, large = Params(1.0, 1.0), Params(2.0, 1.0)
        assert eit(small, 0.5) >= eit(large, 0.5)
        assert check_order("eit", small, large).holds


class TestDispersive:
    def test_violation_records_the_quantile_difference_x_minus_y(self):
        # The spread q_Y - q_X must not shrink; here it shrinks at once, so
        # q_X - q_Y rises between the first two lattice points.
        x, y = Params(2.0, 1.0), Params(1.0, 1.0)
        r = check_order("disp", x, y)
        assert not r.holds
        t, d, prev = r.first_violation
        assert t == 2 / 129
        assert d == quantile(x, t) - quantile(y, t)
        assert prev == quantile(x, 1 / 129) - quantile(y, 1 / 129)
        assert d > prev > 0.0


class TestCommonScaleSuite:
    def test_canonical_pair(self):
        reports = common_scale_order_suite(1.0, 2.0, 1.0)
        assert all(r.holds for r in reports)
        assert len(reports) == 10

    def test_small_shapes(self):
        reports = common_scale_order_suite(0.25, 0.3, 3.0)
        assert all(r.holds for r in reports)

    def test_equal_shapes_rejected(self):
        with pytest.raises(DomainError):
            common_scale_order_suite(2.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            common_scale_order_suite(2.5, 2.0, 1.0)

    def test_suite_matches_lone_checks(self):
        x, y = Params(0.8, 0.4), Params(1.6, 0.4)
        lone = [check_order(kind, x, y) for kind in SUITE_ORDER_KINDS]
        assert common_scale_order_suite(0.8, 1.6, 0.4) == lone

    def test_tables_are_shared_within_one_call_only(self, monkeypatch):
        calls = {"mrl": 0, "integrate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(orders, "mrl", counted("mrl", orders.mrl))
        monkeypatch.setattr(
            unitgompertz.oracle, "integrate", counted("integrate", unitgompertz.oracle.integrate)
        )
        common_scale_order_suite(1.0, 2.0, 1.0, grid_size=128)
        # One mrl table per law, read by the mrl, hmrl and icx checks.
        assert calls == {"mrl": 2 * 128, "integrate": 0}
        common_scale_order_suite(1.0, 2.0, 1.0, grid_size=128)
        assert calls == {"mrl": 4 * 128, "integrate": 0}


class TestHarmonicMeanResidualLife:
    @pytest.mark.parametrize("a, b", [(0.2, 0.4), (0.8, 0.4), (1, 1), (2, 3), (6, 0.3)])
    def test_closed_form_matches_mpmath(self, a, b):
        mp = pytest.importorskip("mpmath")
        ts = [1 / 129, 0.25, 0.5, 0.9, 128 / 129]
        got = orders._Table(Params(a, b), ts).hmrl

        def survival(u):
            return -mp.expm1(-a * (mp.mpf(u) ** -b - 1))

        # 30-digit integrals of sf itself: int_0^t du / mrl = ln int_0^1 sf - ln int_t^1 sf.
        with mp.workdps(30):
            log_mean = mp.log(mp.quad(survival, [0, 0.5, 1]))
            for t, value in zip(ts, got):
                want = t / (log_mean - mp.log(mp.quad(survival, [t, 1])))
                assert abs(value / want - 1) <= 1e-10, (a, b, t)


IMPLICATIONS = [
    ("lr", "hr"),
    ("lr", "rh"),
    ("hr", "mrl"),
    ("mrl", "hmrl"),
    ("rh", "eit"),
    ("hr", "st"),
    ("st", "ttt"),
    ("ttt", "icv"),
    ("st", "icx"),
]


class TestImplicationChain:
    def test_chain_on_random_common_scale_pairs(self):
        # Common scale, both directions: half the draws order X below Y and
        # exercise every implication; the reversed half make the premises
        # fail and the chain holds vacuously.
        rng = np.random.Generator(np.random.Philox(key=404))
        for _ in range(20):
            beta = float(rng.uniform(0.3, 3.0))
            a1 = float(rng.uniform(0.2, 2.5))
            a2 = float(rng.uniform(0.2, 2.5))
            x, y = Params(a1, beta), Params(a2, beta)
            results = {k: check_order(k, x, y, grid_size=96).holds for k in ORDER_KINDS}
            for stronger, weaker in IMPLICATIONS:
                if results[stronger]:
                    assert results[weaker], (x, y, stronger, weaker, results)
