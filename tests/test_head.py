"""The per-law head e^alpha * Gamma(s; alpha): computed once, same value cold or warm."""

import numpy as np
import pytest

from unitgompertz import (
    OracleError,
    Params,
    cli,
    common_scale_order_suite,
    distribution,
    lorenz,
    mrl,
    raw_moment,
    shannon_entropy,
    specfun,
    zenga,
)

LATTICE = [Params(0.3, 0.5), Params(1.0, 1.0), Params(2.5, 3.0)]
GAMMA_CURVES = ["mrl", "eit", "lorenz", "bonferroni", "zenga"]
POINTS = [0.05, 0.5, 0.95]

# One suite at grid 128: per law, 128 eit points, 128 more at the quantiles
# (ttt), 128 mrl kernels and one head; 1026 when every mrl point paid the head.
SUITE_GAMMA_CALLS = 2 * (128 + 128 + 128 + 1)


@pytest.fixture
def gamma_calls(monkeypatch):
    """Cold memo, and a log of every e^x * Gamma(s; x) call from any module."""
    distribution._head.cache_clear()
    calls = []
    real = specfun.upper_inc_gamma_scaled

    def counted(s, x):
        calls.append((s, x))
        return real(s, x)

    monkeypatch.setattr(specfun, "upper_inc_gamma_scaled", counted)
    yield calls
    distribution._head.cache_clear()


@pytest.mark.parametrize("fn", ["mrl", "lorenz", "zenga"])
def test_curve_pays_the_head_once(tmp_path, gamma_calls, fn):
    # 999 points: one kernel call each plus one head (1998 with the head per point).
    code = cli.main(["curve", "--fn", fn, "--alpha", "1.5", "--beta", "2",
                     "--grid", "0.001:0.999:999", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    assert len(gamma_calls) <= 1000


@pytest.mark.parametrize("fn", [fn for fn, (*_, window) in cli.REGISTRY.items() if window])
def test_curve_makes_one_array_call(tmp_path, gamma_calls, monkeypatch, fn):
    # One call of the curve's function with the whole grid as an array; in
    # it, at most the head and one incomplete-gamma call for every point.
    # (The closed forms' array form is the scalar loop, whose float calls
    # come back through the patched name.)
    module, name, _, _ = cli.REGISTRY[fn]
    real, calls = getattr(module, name), []

    def counted(p, x):
        calls.append(np.shape(x))
        return real(p, x)

    monkeypatch.setattr(module, name, counted)
    code = cli.main(["curve", "--fn", fn, "--alpha", "1.5", "--beta", "2",
                     "--grid", "0.001:0.999:999", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    assert [shape for shape in calls if shape] == [(999,)]
    assert len(gamma_calls) <= 2
    array_calls = [x for _, x in gamma_calls if np.ndim(x)]
    assert len(array_calls) == (fn in GAMMA_CURVES)


@pytest.mark.parametrize("fn", GAMMA_CURVES)
def test_curve_through_x_1_makes_one_array_call(tmp_path, gamma_calls, fn):
    # At x = 1 (w = 0) the kernel is the head, which the array call computes
    # bit for bit, so no second call is made for it.
    code = cli.main(["curve", "--fn", fn, "--alpha", "1.5", "--beta", "2",
                     "--grid", "0.001:1:999", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    assert len([x for _, x in gamma_calls if np.ndim(x)]) == 1
    if fn == "eit":  # nothing else of eit needs the gamma function
        assert len(gamma_calls) == 1


def test_suite_pays_each_head_once(gamma_calls):
    common_scale_order_suite(0.5, 1.2, 1.0, grid_size=128)
    assert len(gamma_calls) <= SUITE_GAMMA_CALLS


def lattice_calls():
    """(function, args) for every value the cold/warm check compares."""
    for p in LATTICE:
        for n in (1, 2, 3):
            yield raw_moment, (p, n)
        for f in (mrl, lorenz, zenga):
            for x in POINTS:
                yield f, (p, x)
        yield shannon_entropy, (p,)


def test_cold_and_warm_values_are_identical():
    cold = []
    for f, args in lattice_calls():
        distribution._head.cache_clear()
        cold.append(f(*args))
    for f, args in lattice_calls():  # fills the memo with every head of the lattice
        f(*args)
    assert [f(*args) for f, args in lattice_calls()] == cold


def test_failures_are_not_cached(monkeypatch):
    distribution._head.cache_clear()
    calls = []

    def failing(s, x):
        calls.append((s, x))
        raise OracleError("continued fraction did not converge")

    monkeypatch.setattr(specfun, "upper_inc_gamma_scaled", failing)
    for _ in range(2):
        with pytest.raises(OracleError):
            raw_moment(Params(1.0, 2.0), 1)
    assert calls == [(0.5, 1.0)] * 2
