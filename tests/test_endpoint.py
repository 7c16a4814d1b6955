"""The upper endpoint x -> 1, where w = -ln F(x) -> 0, against 50-digit mpmath.

References come from `perfbench/reference.py`, which evaluates each closed
form from the exact binary value of every float argument.
"""

import math
import sys
from pathlib import Path

import pytest

from unitgompertz import (
    Params,
    conditional_moment,
    hazard,
    log_cdf,
    mrl,
    order_stat_pdf,
    partial_expectation,
    sf,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
reference = pytest.importorskip("reference")  # needs mpmath

LADDER_PARAMS = [Params(a, b) for a in (0.01, 1.0, 100.0) for b in (0.01, 1.0, 100.0)]
TOP_LADDER = [1.0 - 10.0 ** -k for k in range(1, 16)]
MRL_PARAMS = [Params(a, b) for a in (0.01, 0.1, 1.0, 10.0, 100.0)
              for b in (0.01, 0.1, 1.0, 10.0, 100.0)]
MRL_POINTS = [0.001, 0.1, 0.5, 0.9] + [1.0 - 10.0 ** -k for k in range(2, 7)]


def _log_cdf_reference(p, x):
    mp = reference.mp
    with mp.workdps(reference.REF_DPS):
        return float(-reference.mpf(p.alpha) * (reference.mpf(x) ** -reference.mpf(p.beta) - 1))


@pytest.mark.parametrize("fn, tol", [(sf, 1e-15), (log_cdf, 1e-15), (hazard, 1e-12)])
def test_top_ladder_matches_mpmath(fn, tol):
    bad = []
    for p in LADDER_PARAMS:
        for x in TOP_LADDER:
            if fn is log_cdf:
                want = _log_cdf_reference(p, x)
            else:
                want = reference.value(fn.__name__, (p.alpha, p.beta, x))
            if abs(want) < 1e-300:
                continue
            err = abs(fn(p, x) / want - 1)
            if err > tol:
                bad.append((p, x, err))
    assert not bad, bad[:5]


def test_next_to_one_at_tiny_beta_stays_finite():
    # sf is 1.1e-19 here; it used to round to 0 and every quotient by it raised.
    p = Params(1.0, 1e-3)
    x = math.nextafter(1.0, 0.0)
    values = [hazard(p, x), conditional_moment(p, 1, x), mrl(p, x), order_stat_pdf(p, 5, 2, x)]
    assert all(math.isfinite(v) for v in values), values
    assert mrl(p, x) >= 0.0


def test_tail_moment_at_one_is_positive_zero():
    p = Params(1.0, 2.0)
    assert math.copysign(1.0, partial_expectation(p, 1, 1.0)) == 1.0
    assert partial_expectation(p, 1, 1.0) == 0.0


def test_mrl_matches_mpmath_down_to_a_millionth_from_the_top():
    bad = []
    for p in MRL_PARAMS:
        for t in MRL_POINTS:
            want = reference.value("mrl", (p.alpha, p.beta, t))
            err = abs(mrl(p, t) / want - 1)
            if err > 1e-9:
                bad.append((p, t, err))
    assert not bad, bad[:5]
