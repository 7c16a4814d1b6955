"""Incomplete-gamma layer: spot values, identities, the oracle lattice and mpmath sweeps."""

import math
import random
import time

import pytest

from unitgompertz import (
    DomainError,
    Params,
    cli,
    distribution,
    exp_integral_e1,
    log_sq_tail_integral,
    oracle,
    shannon_entropy,
    song_measure,
    specfun,
    upper_inc_gamma,
    upper_inc_gamma_scaled,
)

# Frozen by the quadrature oracle (integral of e^-t / t over (1, inf)).
E1_AT_1 = 0.21938393439551956
# Frozen by the quadrature oracle (integral of t^-1.5 e^-t over (1, inf)).
GAMMA_NEG_HALF_1 = 0.17814771178156014


def _gamma_by_quadrature(s, x, tol=1e-13):
    def integrand(t):
        return math.exp((s - 1.0) * math.log(t) - t) if t < 745.0 else 0.0

    return oracle.integrate(integrand, x, math.inf, rel_tol=tol).value


def test_shape_one_is_plain_exponential():
    assert upper_inc_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_shape_three_closed_form():
    # (x^2 + 2x + 2) e^-x at x = 2.
    want = 10.0 * math.exp(-2.0)
    assert upper_inc_gamma(3.0, 2.0) == pytest.approx(want, rel=1e-12)
    assert _gamma_by_quadrature(3.0, 2.0) == pytest.approx(want, rel=1e-11)


def test_negative_half_shape():
    got = upper_inc_gamma(-0.5, 1.0)
    # One recurrence step from Gamma(1/2, 1) = sqrt(pi) erfc(1).
    want = -2.0 * (math.sqrt(math.pi) * math.erfc(1.0) - math.exp(-1.0))
    assert got == pytest.approx(want, rel=1e-10)
    assert got == pytest.approx(GAMMA_NEG_HALF_1, rel=1e-10)


def test_domain_errors():
    for bad_x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            upper_inc_gamma(1.0, bad_x)
    with pytest.raises(DomainError):
        upper_inc_gamma(math.nan, 1.0)
    with pytest.raises(DomainError):
        upper_inc_gamma(math.inf, 1.0)
    with pytest.raises(DomainError):
        exp_integral_e1(0.0)
    with pytest.raises(DomainError):
        log_sq_tail_integral(-1.0)


def test_e1_value_and_alias():
    assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, rel=1e-13)
    # Definitional alias, bit-for-bit.
    assert exp_integral_e1(2.0) == upper_inc_gamma(0.0, 2.0)


def test_e1_huge_argument_stays_finite():
    got = exp_integral_e1(700.0)
    assert got > 0.0
    # First asymptotic terms: e^-x / x * (1 - 1/x + 2/x^2 - 6/x^3).
    x = 700.0
    want = math.exp(-x) / x * (1 - 1 / x + 2 / x**2 - 6 / x**3)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("s", [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
def test_recurrence_identity(s, x):
    lhs = upper_inc_gamma(s + 1.0, x)
    rhs = s * upper_inc_gamma(s, x) + math.exp(s * math.log(x) - x)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.0, 5.0])
def test_integer_shape_finite_sum(s, x):
    want = (
        math.factorial(s - 1)
        * math.exp(-x)
        * sum(x**k / math.factorial(k) for k in range(s))
    )
    assert upper_inc_gamma(float(s), x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [1e-9, 1e-5, 1e-3, -1e-9, -1e-5])
@pytest.mark.parametrize("x", [0.05, 0.4, 0.9])
def test_shapes_near_zero_keep_their_accuracy(s, x):
    # Gamma(s) and the lower integral both blow up like 1/s here; the
    # small-x route never forms that difference, since each piece of its
    # seed form, (Gamma(1+s) - 1)/s and (x^s - 1)/s, stays finite as s -> 0.
    tol = 1e-12 if s >= 0 else 1e-10
    want = _gamma_by_quadrature(s, x)
    assert upper_inc_gamma(s, x) == pytest.approx(want, rel=tol)


def test_strictly_decreasing_in_x():
    for s in (-1.3, 0.0, 2.0):
        xs = [0.05 * (i + 1) for i in range(60)]
        vals = [upper_inc_gamma(s, x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_lattice_against_oracle():
    shapes = [-2.5, -1.7, -1.0, -0.5, 0.0, 0.3, 1.0, 2.5, 4.0, 6.0]
    cuts = [0.05, 0.1, 0.3, 0.7, 1.0, 1.5, 2.5, 5.0, 8.0, 12.0]
    for s in shapes:
        tol = 1e-12 if s >= 0 else 1e-10
        for x in cuts:
            got = upper_inc_gamma(s, x)
            want = _gamma_by_quadrature(s, x)
            assert got == pytest.approx(want, rel=tol), (s, x)


def test_scaled_form_consistency():
    for s, x in [(-1.25, 0.4), (0.0, 3.0), (2.0, 0.5), (-0.5, 50.0)]:
        scaled = upper_inc_gamma_scaled(s, x)
        plain = upper_inc_gamma(s, x)
        assert scaled == pytest.approx(plain * math.exp(x), rel=1e-12)
    # Far beyond exp overflow, only the scaled form survives.
    assert upper_inc_gamma_scaled(0.0, 700.0) == pytest.approx(
        exp_integral_e1(700.0) * math.exp(350.0) * math.exp(350.0), rel=1e-9
    )


def test_log_sq_tail_against_distinct_rule():
    # Independent route: integrate e^-t (ln t)^2 without the t = a + u shift.
    got = log_sq_tail_integral(1.0)
    want = oracle.integrate(
        lambda t: math.exp(-t) * math.log(t) ** 2 if t < 745.0 else 0.0,
        1.0,
        math.inf,
        rel_tol=1e-12,
    ).value
    assert got == pytest.approx(want, rel=1e-10)


def test_log_sq_tail_lower_bound_and_monotonicity():
    # On (e, inf) the integrand dominates e^-t, so the integral beats e^-e.
    assert log_sq_tail_integral(math.e) >= math.exp(-math.e)
    assert log_sq_tail_integral(2.0) > log_sq_tail_integral(3.0)


# ------------------------------------------------------- mpmath references


def _small_x_sweep():
    """(s, x) over s in [-50, 0.5), x in [1e-12, 1.5): seeded draws, plus
    shapes within 1e-9 of 0, of +-1/2 and of negative integers."""
    rng = random.Random(20260607)
    points = [(rng.uniform(-50.0, 0.5), 10.0 ** rng.uniform(-12.0, math.log10(1.5)))
              for _ in range(300)]
    bases = [0.0, 0.5, -0.5, -1.5, -10.5, -1.0, -2.0, -3.0, -7.0, -20.0, -50.0]
    offsets = [-1e-9, -1e-12, 0.0, 1e-12, 1e-9]
    # Seeds across the series window for (Gamma(1+a) - 1)/a, |a| < 0.1.
    window = [d * sign for d in (1e-4, 0.01, 0.05, 0.0999) for sign in (1, -1)]
    shapes = [b + o for b in bases for o in offsets] + window + [w - 5.0 for w in window]
    cuts = [1e-12, 1e-6, 1e-3, 0.1, 0.7, 0.999, 1.2, 1.4999]
    points += [(s, x) for s in shapes if -50.0 <= s < 0.5 for x in cuts]
    return points


@pytest.fixture(scope="module")
def small_x_reference():
    """Sweep points with their 50-digit values; inf past the double range."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        return [(s, x, float(mp.gammainc(mp.mpf(s), mp.mpf(x)))) for s, x in _small_x_sweep()]


LOG_SQ_POINTS = [10.0 ** (-12 + 20 * k / 59) for k in range(60)] + [
    1.0, 1.4999999, 1.5, 1.5000001, 2.0, 700.0]


@pytest.fixture(scope="module")
def log_sq_reference():
    """e^a * integral of e^-t ln(t)^2 over (a, inf) at 20 digits, by t = a + u."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        return [
            (a, float(mp.quad(lambda u: mp.exp(-u) * mp.log(a + u) ** 2, [0, 1, 10, 40, mp.inf])))
            for a in LOG_SQ_POINTS
        ]


def test_small_x_route_meets_the_contract(small_x_reference):
    assert len(small_x_reference) > 400
    assert sum(math.isinf(want) for _, _, want in small_x_reference) >= 40
    bad = []
    for s, x, want in small_x_reference:
        got = upper_inc_gamma(s, x)
        if math.isinf(want):
            if got != math.inf:
                bad.append((s, x, got))
            continue
        tol = 1e-12 if s >= 0 else 1e-10
        err = abs(got / want - 1)
        if err > tol:
            bad.append((s, x, err))
    assert not bad, bad[:10]


def test_small_x_recurrence_reaches_the_top_of_the_double_range():
    # x^s overflows on the way, Gamma(s, x) does not (50-digit mpmath value).
    got = upper_inc_gamma(-33.351917750088, 5.197275829411139e-10)
    assert got == pytest.approx(1.3291139160935422534e308, rel=1e-14)


def test_huge_negative_shape_returns_at_once():
    # x^s overflows at the start, so no recurrence step (there would be 1e15) runs.
    start = time.perf_counter()
    assert upper_inc_gamma(-1e15, 0.5) == math.inf
    assert upper_inc_gamma_scaled(-1e15, 0.5) == math.inf
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("s, x", [
    (-9999.7, 0.95),  # last recurrence shape
    (-10000.3, 0.95),  # first continued-fraction shape below 1
    (-2e4, 0.99),
    (-1e6, 1.0 - 1e-5),
    (-1e15, math.nextafter(1.0, 0.0)),  # 1e15 recurrence steps
])
def test_huge_negative_shapes_meet_the_contract(s, x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        want = float(mp.gammainc(mp.mpf(s), mp.mpf(x)))
    assert abs(upper_inc_gamma(s, x) / want - 1) <= 1e-10


def test_log_sq_tail_matches_mpmath_across_the_seam(log_sq_reference):
    for a, scaled in log_sq_reference:
        assert abs(specfun._log_sq_tail_scaled(a) / scaled - 1) <= 1e-13, a
        if a <= 700.0:
            want = scaled * math.exp(-a)
            assert abs(log_sq_tail_integral(a) / want - 1) <= 1e-13, a


def test_closed_forms_never_reach_quadrature(monkeypatch, tmp_path, small_x_reference):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle.integrate called")

    monkeypatch.setattr(oracle, "integrate", refuse)
    distribution._head.cache_clear()
    try:
        for s, x, _ in small_x_reference:
            upper_inc_gamma(s, x)
        for a in LOG_SQ_POINTS:
            log_sq_tail_integral(a)
        for p in (Params(0.05, 0.3), Params(1.0, 1.0), Params(12.0, 2.0)):
            shannon_entropy(p)
            song_measure(p)
        for fn in ("mrl", "eit", "lorenz", "zenga"):
            for alpha, beta in (("0.5", "1.5"), ("1.5", "0.5")):
                code = cli.main(["curve", "--fn", fn, "--alpha", alpha, "--beta", beta,
                                 "--grid", "0.001:0.999:101", "--out", str(tmp_path / "c.csv")])
                assert code == 0, (fn, alpha, beta)
    finally:
        distribution._head.cache_clear()
    assert "oracle" not in vars(specfun)
