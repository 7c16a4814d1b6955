"""The array forms: each element bit-identical to the scalar call at it.

mrl, eit, zenga, lorenz and bonferroni accept a 1-d float array as their
point argument, and upper_inc_gamma_scaled as its lower limit.  The scalar
loop is the reference: values are compared by repr, which also tells -0.0
from 0.0, under numpy's strictest error state and with warnings as errors.
"""

import warnings

import numpy as np
import pytest

from unitgompertz import (
    DomainError,
    Params,
    bonferroni,
    eit,
    lorenz,
    mrl,
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
DOMAIN = {
    mrl: [0.0, *INTERIOR, 1.0],
    eit: [*INTERIOR, 1.0],
    zenga: INTERIOR,
    lorenz: [*INTERIOR, 1.0],
    bonferroni: [*INTERIOR, 1.0],
}
FNS = list(DOMAIN)


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
    for a, b in PARAMS:
        p = Params(a, b)
        want = [f(p, x) for x in xs]
        got = strict(f, p, np.array(xs))
        assert reprs(got.tolist()) == reprs(want), (a, b)


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
