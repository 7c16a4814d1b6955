"""The oracle must be trustworthy before anything else is tested against it."""

import math

import numpy as np
import pytest

from conftest import _ug_sampler
from test_order_stats import PINNED_MOMENTS
from test_reliability import PINNED_STRESS_STRENGTH
from unitgompertz import (
    DomainError,
    OracleError,
    Params,
    StressStrengthPair,
    cli,
    oracle,
    order_stat_moment,
    pdf,
    stress_strength,
)


def test_constant_integrand():
    res = oracle.integrate(lambda x: 1.0, 0.0, 1.0, rel_tol=1e-12)
    assert abs(res.value - 1.0) <= 1e-12
    assert res.error_estimate >= 0.0
    assert res.subdivisions >= 1


@pytest.mark.parametrize(
    "f, a, b, expected",
    [
        (lambda x: x**3, 0.0, 1.0, 0.25),
        (lambda x: x**7, 0.0, 2.0, 32.0),
        (math.exp, 0.0, 2.0, math.exp(2.0) - 1.0),
        (math.log, 0.0, 1.0, -1.0),  # integrable endpoint singularity
        (lambda x: x**-0.5, 0.0, 1.0, 2.0),
        (lambda x: math.exp(-x), 1.0, math.inf, math.exp(-1.0)),
        (lambda x: math.exp(-0.5 * x * x), 0.0, math.inf, math.sqrt(math.pi / 2)),
    ],
)
def test_known_integrals(f, a, b, expected):
    res = oracle.integrate(f, a, b, rel_tol=1e-11)
    assert abs(res.value - expected) <= 1e-10 * abs(expected)


def test_pdf_normalization():
    p = Params(1.0, 1.0)
    res = oracle.integrate(lambda x: pdf(p, x), 0.0, 1.0, rel_tol=1e-10)
    assert abs(res.value - 1.0) <= 1e-9


def test_nan_integrand_is_an_error():
    with pytest.raises(OracleError):
        oracle.integrate(lambda x: math.nan, 0.0, 1.0)


def test_subdivision_cap_is_an_error(monkeypatch):
    monkeypatch.setattr(oracle, "SUBDIVISION_CAP", 4)
    with pytest.raises(OracleError, match="subdivisions"):
        oracle.integrate(lambda x: abs(x - 1 / math.pi) ** -0.5, 0.0, 1.0, rel_tol=1e-13)


@pytest.mark.parametrize(
    "f",
    [
        lambda t: 1.0 / (1.0 + t),  # bisection toward the fold's u = 1 used to divide by zero
        lambda t: 1e-300 / (1e-300 + t),  # an absolute floor once let this "converge" to 7e-298
    ],
)
def test_divergent_tail_is_an_error(f):
    with pytest.raises(OracleError):
        oracle.integrate(f, 0.0, math.inf)


def test_bad_bounds_and_tolerance():
    with pytest.raises(DomainError):
        oracle.integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        oracle.integrate(lambda x: x, 0.0, 1.0, rel_tol=0.0)


def test_mc_mean_of_unit_gompertz():
    # Frozen by the quadrature oracle: mean of the (1, 1) law.
    mean_11 = 0.5963473623231923
    res = oracle.mc_expect(_ug_sampler(Params(1.0, 1.0)), lambda x: x, 1_000_000, seed=42)
    assert abs(res.mean - mean_11) <= 4.0 * res.std_error
    assert res.std_error < 1e-3


def test_mc_constant_function():
    res = oracle.mc_expect(
        _ug_sampler(Params(1.0, 1.0)), lambda x: np.ones_like(x), 1000, seed=7
    )
    assert res.mean == 1.0
    assert res.std_error == 0.0


def test_mc_deterministic_for_fixed_seed():
    a = oracle.mc_expect(_ug_sampler(Params(2.0, 0.5)), lambda x: x * x, 5000, seed=123)
    b = oracle.mc_expect(_ug_sampler(Params(2.0, 0.5)), lambda x: x * x, 5000, seed=123)
    assert a == b


def test_mc_minimum_sample_size():
    with pytest.raises(DomainError):
        oracle.mc_expect(_ug_sampler(Params(1.0, 1.0)), lambda x: x, 99, seed=1)


def test_library_computes_without_the_oracle(monkeypatch, capsys):
    # The oracle checks the library; no library value may come from it.
    def refuse(*args, **kwargs):
        raise AssertionError("the library called oracle.integrate")

    monkeypatch.setattr(oracle, "integrate", refuse)
    for args, want in PINNED_MOMENTS:
        got = order_stat_moment(Params(*args[:2]), *args[2:])
        assert abs(got / want - 1) <= 1e-12, args
        a, b, n, j, k = (str(v) for v in args)
        assert cli.main(["eval", "--fn", "osmoment", "--alpha", a, "--beta", b,
                         "--n", n, "--j", j, "--k", k]) == 0
        assert abs(float(capsys.readouterr().out) / want - 1) <= 1e-12, args
    for args, want in PINNED_STRESS_STRENGTH:
        got = stress_strength(StressStrengthPair(Params(*args[:2]), Params(*args[2:])))
        assert abs(got / want - 1) <= 1e-12, args
        flags = ("--alpha1", "--beta1", "--alpha2", "--beta2")
        argv = [x for pair in zip(flags, map(str, args)) for x in pair]
        assert cli.main(["eval", "--fn", "ssr", *argv]) == 0
        assert abs(float(capsys.readouterr().out) / want - 1) <= 1e-12, args
