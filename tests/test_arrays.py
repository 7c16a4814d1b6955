"""The array forms: each element bit-identical to the scalar call at it.

The twelve curve functions (pdf, log_pdf, cdf, sf, quantile, hazard,
reversed_hazard, mrl, eit, zenga, lorenz, bonferroni) and log_cdf accept a
1-d float array as their point argument, and upper_inc_gamma_scaled as its
lower limit.  The scalar loop is the reference: values are compared by
repr, which also tells -0.0 from 0.0, under numpy's strictest error state
and with warnings as errors.
"""

import warnings

import numpy as np
import pytest

from unitgompertz import (
    DomainError,
    Params,
    bonferroni,
    cdf,
    distribution,
    eit,
    hazard,
    log_cdf,
    log_pdf,
    lorenz,
    mrl,
    pdf,
    quantile,
    reliability,
    reversed_hazard,
    sf,
    specfun,
    zenga,
)

# With s = 1 - 1/beta (eit: s = -1/beta) and z = alpha - ln F(x) >= alpha,
# these (alpha, beta) reach every incomplete-gamma regime: the continued
# fraction (z >= 1); at alpha < 1 and x near 1, the s >= 1/2 series
# (beta >= 2) and Gautschi's seed (beta < 2) with and without the
# recurrence, at a == s on both sides of the 1/Gamma(1+a) seam and in the
# a = 0 E1 branch (beta = 1).
PARAMS = [
    (0.3, 0.3),  # seed plus recurrence
    (0.5, 1.0),  # a = s = 0; eit: a = 0, one recurrence step
    (0.7, 1.05),  # a = s below the seam
    (0.2, 1.5),  # a = s above the seam
    (1e-3, 2.0),  # the series at s = 1/2; eit: a = s = -1/2
    (0.5, 3.0),  # the series
    (2.0, 10.0),  # w = inf at x = 1e-300
    (1e-4, 0.01),  # alpha^m underflows: the ratio branch
    (1.0, 5e-5),  # s < -10000: the continued fraction at every z
    (50.0, 0.5),  # the continued fraction only
]
# Within 1e-6 of 1 the tail integrals take the endpoint series; x = 1
# gives w = 0, where the kernel is the per-law head.
INTERIOR = [1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.97, 0.999,
            1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 2.0**-53]
# The closed forms also take the edges of the doubles.  At 5e-324 and
# 7e-309, -beta ln x passes 709, where expm1 may overflow (at beta = 1,
# expm1(709.55) is still finite); at (2, 10) w overflows to inf and
# reversed_hazard's exponent passes 709.
EDGES = [5e-324, 7e-309, *INTERIOR, 1.0]
# alpha * beta, and w = -ln F(x) at 0.5 and above, below the normal doubles,
# where hazard is alpha-free and ln(alpha beta) is ln alpha + ln beta.
TINY = [(1e-300, 1e-10), (1e-310, 1e-10), (5e-324, 5e-324), (1e-300, 1e-300)]
DOMAIN = {
    log_cdf: [0.0, *EDGES],
    log_pdf: [0.0, *EDGES],
    pdf: [0.0, *EDGES],
    cdf: [0.0, *EDGES],
    sf: [0.0, *EDGES],
    quantile: EDGES,
    hazard: [0.0, *EDGES],
    reversed_hazard: EDGES,
    mrl: [0.0, *INTERIOR, 1.0],
    eit: [*INTERIOR, 1.0],
    zenga: INTERIOR,
    lorenz: [*INTERIOR, 1.0],
    bonferroni: [*INTERIOR, 1.0],
}
FNS = list(DOMAIN)
CLOSED_FORMS = FNS[:8]


def strict(f, *args):
    """f(*args) under numpy's strictest error state, warnings as errors."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return f(*args)


def reprs(values):
    return [repr(v) for v in values]


@pytest.mark.parametrize("f", FNS, ids=lambda f: f.__name__)
def test_curve_array_form_is_the_scalar_loop(f):
    xs = DOMAIN[f]
    for a, b in PARAMS + (TINY if f in CLOSED_FORMS else []):
        p = Params(a, b)
        want = [f(p, x) for x in xs]
        got = strict(f, p, np.array(xs))
        assert reprs(got.tolist()) == reprs(want), (a, b)


def test_neg_log_cdf_array_is_the_scalar_helper():
    # What the gamma curves read every x through, at the edges too: 0.0
    # and not -0.0 at x = 1, inf at x = 0 and where expm1 overflows.  With
    # x = 0 every law takes the scalar helper; without it, the small-beta
    # laws take the expm1 map.
    for xs in (EDGES, [0.0, *EDGES]):
        for a, b in PARAMS + TINY:
            p = Params(a, b)
            with np.errstate(**specfun._PYTHON_FLOAT):
                got = distribution._neg_log_cdf_array(p, np.array(xs))
            assert reprs(got.tolist()) == reprs(distribution._neg_log_cdf(p, x) for x in xs), (a, b)


def check_both_paths(monkeypatch, module, helper, array_form, scalar_form, fine, raising):
    """array_form against scalar_form by repr, on each path.

    On fine, where `math` raises at no element, the fast map must answer
    alone: module.helper, the scalar fallback, fails the test if called.
    With each of raising added, where `math` raises at that element, the
    scalar helper must answer at every element.
    """
    want = [scalar_form(x) for x in fine]
    with monkeypatch.context() as m:
        m.setattr(module, helper, lambda *args: pytest.fail(f"{helper} was called"))
        assert reprs(array_form(np.array(fine)).tolist()) == reprs(want)
    real = getattr(module, helper)
    for x in raising:
        xs = [*fine, x]
        want = [scalar_form(v) for v in xs]
        calls = []
        with monkeypatch.context() as m:
            m.setattr(module, helper, lambda *args: calls.append(args) or real(*args))
            assert reprs(array_form(np.array(xs)).tolist()) == reprs(want), x
        assert len(calls) == len(xs), x


def test_neg_log_cdf_array_fast_map_and_fallback(monkeypatch):
    # x = 1 is on the fast path, where expm1(-0.0) is -0.0; x = 0 makes
    # math.log raise, and at beta = 3, x = 5e-324 makes expm1 overflow.
    p = Params(0.5, 3.0)

    def array_form(x):
        with np.errstate(**specfun._PYTHON_FLOAT):
            return distribution._neg_log_cdf_array(p, x)

    check_both_paths(monkeypatch, distribution, "_neg_log_cdf", array_form,
                     lambda x: distribution._neg_log_cdf(p, x), [*INTERIOR[1:], 1.0], [0.0, 5e-324])


def test_continued_fraction_scaling_fast_map_and_fallback(monkeypatch):
    # e^(s ln x) times the fraction: s ln x passes 709.78 at x = 1e7.
    check_both_paths(monkeypatch, specfun, "_exp_or_inf",
                     lambda x: strict(specfun.upper_inc_gamma_scaled, 50.0, x),
                     lambda x: specfun.upper_inc_gamma_scaled(50.0, x), [60.0, 1e3], [1e7])


def test_small_x_power_fast_map_and_fallback(monkeypatch):
    # x^(s/2) after the recurrence: (s/2) ln x passes 709.78 at x = 1e-3.
    check_both_paths(monkeypatch, specfun, "_small_x",
                     lambda x: strict(specfun.upper_inc_gamma_scaled, -700.3, x),
                     lambda x: specfun.upper_inc_gamma_scaled(-700.3, x), [0.5, 0.9], [1e-3])


def test_scaled_gamma_array_form_is_the_scalar_loop():
    xs = [1e-300, 1e-10, 0.01, 0.5, 0.999, 1.0, 1.5, 10.0, 200.0, 1e5, 1e20]
    for s in (-20000.5, -50.3, -2.5, -1.0, -0.5, 0.0, 0.05, 0.3, 0.5, 0.9, 3.7, 150.0):
        want = [specfun.upper_inc_gamma_scaled(s, x) for x in xs]
        got = strict(specfun.upper_inc_gamma_scaled, s, np.array(xs))
        assert reprs(got.tolist()) == reprs(want), s


@pytest.mark.parametrize("f", FNS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("xs", [[0.5, 1.5], [0.5, float("nan")], [-0.5, 0.5]])
def test_curve_array_form_raises_what_the_scalar_loop_raises(f, xs):
    p = Params(1.0, 1.0)
    with pytest.raises(DomainError) as scalar:
        [f(p, x) for x in xs]
    with pytest.raises(DomainError) as array:
        strict(f, p, np.array(xs))
    assert str(array.value) == str(scalar.value)


def test_scaled_gamma_array_form_rejects_what_the_scalar_form_rejects():
    with pytest.raises(DomainError, match="lower limit"):
        specfun.upper_inc_gamma_scaled(0.5, np.array([1.0, 0.0]))
    with pytest.raises(DomainError, match="shape"):
        specfun.upper_inc_gamma_scaled(float("inf"), np.array([1.0]))


@pytest.mark.parametrize("f", [*FNS, lambda p, x: specfun.upper_inc_gamma_scaled(0.5, x)])
def test_array_forms_take_one_dimension_only(f):
    with pytest.raises(DomainError, match="1-d array"):
        f(Params(1.0, 1.0), np.full((2, 2), 0.5))


def test_scalar_calls_reach_no_other_public_function(monkeypatch):
    p = Params(1.3, 2.2)
    want = [f(p, 0.4) for f in (pdf, cdf, sf, hazard)]

    def public(*args):
        raise AssertionError("a scalar call went through a public function")

    for module in (distribution, reliability):
        for name in ("log_pdf", "log_cdf", "pdf", "sf"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, public)
    assert [f(p, 0.4) for f in (pdf, cdf, sf, hazard)] == want


def test_converge_retires_each_element_where_its_loop_stops():
    # Halve v until it drops below stop; the element whose stop is negative
    # never does, and is the one `_converge` reports.
    def step(k, v, stop):
        v = v / 2.0
        return (v, stop), v < stop

    def scalar(v, stop):
        for k in range(1, 60):
            v = v / 2.0
            if v < stop:
                return v
        raise OverflowError("never")

    start = [1.0, 8.0, 3.0, 1e12, 5.0, 0.7]
    stop = [0.3, 0.3, 0.1, 1e-3, 4.0, 0.5]
    got = specfun._converge(step, (np.array(start), np.array(stop)), range(1, 60), None)
    assert reprs(got.tolist()) == reprs(map(scalar, start, stop))
    with pytest.raises(OverflowError, match="at 3"):
        specfun._converge(step, (np.array(start[:4]), np.array([0.3, 0.3, 0.1, -1.0])),
                          range(1, 60), lambda j: OverflowError(f"at {j}"))
