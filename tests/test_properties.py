"""Properties of sf, the hazard and the incomplete moments over a wide parameter box.

alpha and beta are drawn from [0.05, 20], and for the tail moments also
over a wide box: alpha log-uniform on [1e-3, 1e3] and beta log-uniform down
to 1e-300, where m = n/beta reaches 1e300.  The draws are derandomized, so a
run is reproducible.
"""

import math

import pytest

from unitgompertz import (
    Params,
    cdf,
    conditional_moment,
    eit,
    first_incomplete_moment,
    hazard,
    lorenz,
    mrl,
    partial_expectation,
    raw_moment,
    sf,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PARAMS = st.builds(Params, st.floats(0.05, 20.0), st.floats(0.05, 20.0))
UNIT = st.floats(0.0, 1.0, exclude_min=True)
ORDER = st.integers(1, 4)
WIDE = st.builds(lambda u, v: Params(10.0**u, 10.0**v),
                 st.floats(-3.0, 3.0), st.floats(-300.0, math.log10(20.0)))
EPS = 2.0**-52
SETTINGS = hypothesis.settings(
    max_examples=300, derandomize=True, database=None, deadline=None
)


@SETTINGS
@hypothesis.given(PARAMS, UNIT)
@hypothesis.example(Params(7.125, 0.90625), 0.140625)  # mean - I1(z) gave 1.1e-16
def test_incomplete_moment_is_bounded_by_z_times_cdf(p, z):
    # m1(z) = E[X; X <= z] lies between 0 and z * P(X <= z).
    m1 = first_incomplete_moment(p, z)
    assert 0.0 <= m1 <= z * cdf(p, z) * (1.0 + 1e-12)


@SETTINGS
@hypothesis.given(PARAMS, UNIT)
def test_lorenz_curve_stays_below_the_diagonal(p, u):
    assert lorenz(p, u) <= u * (1.0 + 1e-12)


@SETTINGS
@hypothesis.given(PARAMS, st.floats(0.0, 1.0))
@hypothesis.example(Params(1.0, 1.0), 1.0 - 1e-12)  # I1/sf - t gave -1.4e-3
def test_mean_residual_life_is_nonnegative(p, t):
    assert mrl(p, t) >= 0.0


@SETTINGS
@hypothesis.given(PARAMS, ORDER)
def test_tail_moment_vanishes_at_the_upper_end(p, n):
    assert partial_expectation(p, n, 1.0) == 0.0


@SETTINGS
@hypothesis.given(PARAMS, ORDER)
def test_vacuous_condition_gives_the_raw_moment(p, n):
    assert conditional_moment(p, n, 0.0) == raw_moment(p, n)


@SETTINGS
@hypothesis.given(PARAMS, st.floats(0.0, 1.0))
@hypothesis.example(Params(1.0, 1e-3), math.nextafter(1.0, 0.0))  # sf used to round to 0
def test_survival_function_is_a_probability(p, x):
    assert 0.0 <= sf(p, x) <= 1.0


# The x window: 1 - 10^-k for k = 1..15, from 0.9 to 1 - 1e-15.
TOP_LADDER = [1.0 - 10.0**-k for k in range(1, 16)]


@SETTINGS
@hypothesis.given(PARAMS)
def test_hazard_rises_along_the_ladder_to_one(p):
    rates = [hazard(p, x) for x in TOP_LADDER]
    assert all(a <= b for a, b in zip(rates, rates[1:])), rates


@SETTINGS
@hypothesis.given(WIDE, UNIT)
def test_mean_residual_life_is_nonnegative_down_to_tiny_beta(p, t):
    assert mrl(p, t) >= 0.0


@SETTINGS
@hypothesis.given(WIDE, UNIT)
def test_inactivity_time_stays_below_x_down_to_tiny_beta(p, x):
    # E[x - X | X <= x] <= x; near beta = 0 it is x / (1 + alpha beta), so a few ulps.
    assert eit(p, x) <= x * (1.0 + 4.0 * EPS)


@SETTINGS
@hypothesis.given(WIDE, st.floats(0.0, 0.999, exclude_min=True))
def test_upper_conditional_mean_lies_between_x_and_one_down_to_tiny_beta(p, x):
    # Up to 0.999: next to 1 no double need lie strictly between x and 1.
    assert x < conditional_moment(p, 1, x) < 1.0
