"""The oracle must be trustworthy before anything else is tested against it."""

import math

import numpy as np
import pytest

from conftest import _ug_sampler
from unitgompertz import DomainError, OracleError, Params, oracle, pdf


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
