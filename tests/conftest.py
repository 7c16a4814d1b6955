"""Shared fixtures and helpers for the unit-Gompertz test suite."""

import math

import numpy as np
import pytest

from unitgompertz import Params, oracle, pdf


def quad(f, a, b, tol=1e-12):
    """Shorthand for the oracle integrator's value."""
    return oracle.integrate(f, a, b, rel_tol=tol).value


def moment_by_quadrature(p: Params, n: int, lo: float = 0.0, hi: float = 1.0,
                         tol: float = 1e-12) -> float:
    """Oracle route for partial moments of the density."""
    return quad(lambda x: x**n * pdf(p, x), lo, hi, tol)


@pytest.fixture
def p11() -> Params:
    return Params(1.0, 1.0)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0 else abs(got)


def assert_close(got: float, want: float, rel: float, label: str = "") -> None:
    err = rel_err(got, want)
    assert err <= rel, f"{label} got {got!r}, want {want!r} (rel err {err:.3e} > {rel})"


def mrl_reference_param_sets():
    """Parameter sets whose mean residual life is asserted to decrease."""
    return [Params(2.0, 2.0), Params(1.0, 3.0), Params(0.5, 1.0)]


def wide_lattice():
    """5x5 lattice for normalization and moment checks."""
    vals = (0.25, 0.5, 1.0, 2.0, 5.0)
    return [Params(a, b) for a in vals for b in vals]


# Independent numpy references for Monte Carlo checks: inverse-transform draws
# and the log-density, written out here rather than taken from the library.
def _ug_draws(p: Params, rng, size: int) -> np.ndarray:
    u = 1.0 - rng.random(size)
    return (p.alpha / (p.alpha - np.log(u))) ** (1.0 / p.beta)


def _ug_sampler(p: Params):
    """`_ug_draws` as an `oracle.mc_expect` sampler."""
    def sampler(rng, size):
        return _ug_draws(p, rng, size)

    return sampler


def _log_pdf_array(p: Params, x: np.ndarray) -> np.ndarray:
    return (
        math.log(p.alpha * p.beta)
        - p.alpha * (x**-p.beta - 1.0)
        - (1.0 + p.beta) * np.log(x)
    )
