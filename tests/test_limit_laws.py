"""The beta -> 0 limit: with c = alpha * beta fixed, F(x) -> x^c, the power-function law.

F(x) = exp(-alpha * expm1(-beta ln x)) = x^c * (1 + O(c beta ln(x)^2)), so
at beta <= 1e-20 the power-function closed forms are exact to double
precision.  They are evaluated here in 50-digit decimal arithmetic, with
the float parameters and points converted exactly.  Every incomplete
moment of the unit-Gompertz law is alpha^m e^z Gamma(s; z) with m = n/beta,
so this range is where m is 1e20 to 1e300.
"""

import math
import sys
from decimal import Decimal, localcontext

import pytest

from unitgompertz import (
    DomainError,
    Params,
    cli,
    conditional_moment,
    eit,
    lorenz,
    mrl,
    raw_moment,
    zenga,
)

ALPHAS = [1e-3, 0.1, 1.0, 10.0, 1e3]
BETAS = [1e-20, 1e-50, 1e-100, 1e-200, 1e-300]
XS = [0.1, 0.5, 0.9]
SWEEP = [(a, b, x) for a in ALPHAS for b in BETAS for x in XS]


def expm1(y: Decimal) -> Decimal:
    """e^y - 1, by its Taylor series where e^y - 1 would cancel."""
    if abs(y) >= Decimal("0.5"):
        return y.exp() - 1
    total, term, k = Decimal(0), Decimal(1), 0
    while True:
        k += 1
        term = term * y / k
        total += term
        if abs(term) <= abs(total) * Decimal("1e-45"):
            return total


def power_law(fn: str, alpha: float, beta: float, x: float, n: int = 1) -> float:
    """fn of the power-function law F(x) = x^c, c = alpha * beta, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        c, x = Decimal(alpha) * Decimal(beta), Decimal(x)
        e = expm1(c * x.ln())  # x^c - 1 = -sf(x)
        xn = x**n
        tail = c / (c + n) * ((1 - xn) - xn * e)  # E[X^n; X > x] = c/(c+n) (1 - x^(c+n))
        value = {
            "raw_moment": c / (c + n),
            "eit": x / (c + 1),
            "mrl": ((1 - x) * c + x * e) / ((1 + c) * -e),
            "conditional_moment": tail / -e,
            "lorenz": ((1 + 1 / c) * x.ln()).exp(),
            "zenga": 1 - x * -e / ((1 - x) - x * e),
        }[fn]
        return float(value)


def close(got: float, want: float) -> bool:
    """Within 1e-13 relative; values below the normal doubles count as equal."""
    return math.isclose(got, want, rel_tol=1e-13, abs_tol=sys.float_info.min)


CALLS = {
    "raw_moment": lambda p, x: raw_moment(p, 1),
    "eit": eit,
    "mrl": mrl,
    "conditional_moment": lambda p, x: conditional_moment(p, 1, x),
    "lorenz": lorenz,
    "zenga": zenga,
}


@pytest.mark.parametrize("fn", list(CALLS))
def test_small_beta_meets_the_power_function_law(fn):
    misses = []
    for a, b, x in SWEEP:
        got, want = CALLS[fn](Params(a, b), x), power_law(fn, a, b, x)
        if not close(got, want):
            misses.append((a, b, x, got, want))
    assert not misses


def test_higher_moments_meet_the_power_function_law():
    for a, b, x in SWEEP:
        p = Params(a, b)
        for n in (2, 3):
            assert close(raw_moment(p, n), power_law("raw_moment", a, b, x, n)), (a, b, n)
            want = power_law("conditional_moment", a, b, x, n)
            assert close(conditional_moment(p, n, x), want), (a, b, x, n)


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("beta", [1e-160, 1e-200, 1e-300])
def test_mrl_where_the_endpoint_product_would_underflow(alpha, beta):
    # On the endpoint branch Psi is (w/alpha) (mean/beta): w * mean alone
    # underflows below w ~ 1e-154, which took mrl to 0.0.
    got = mrl(Params(alpha, beta), 0.9)
    assert close(got, power_law("mrl", alpha, beta, 0.9)), got


TOO_SMALL = Params(1.0, 1e-310)  # 1/beta is past the doubles


@pytest.mark.parametrize("call", [
    lambda p: raw_moment(p, 1),
    lambda p: mrl(p, 0.5),
    lambda p: eit(p, 0.5),
    lambda p: lorenz(p, 0.5),
    lambda p: zenga(p, 0.5),
    lambda p: conditional_moment(p, 1, 0.5),
])
def test_moment_order_over_beta_past_the_doubles_names_beta(call):
    with pytest.raises(DomainError, match=r"n = 1, beta = 1e-310"):
        call(TOO_SMALL)


def test_eval_rejects_beta_below_the_moment_range(capsys):
    code = cli.main(["eval", "--fn", "mrl", "--alpha", "1", "--beta", "1e-310", "--x", "0.5"])
    assert code == 2
    assert "beta = 1e-310" in capsys.readouterr().err
