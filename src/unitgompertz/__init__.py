"""Unit-Gompertz distribution toolkit.

Closed-form density, distribution, reliability, entropy, inequality-curve
and order-statistic quantities for the unit-Gompertz law on (0, 1), plus a
grid-level stochastic-order checker.  An independent oracle layer (adaptive
Gauss-Kronrod quadrature and seeded Monte Carlo) backs the test suite and is
exported for reuse.
"""

from .distribution import (
    Params,
    cdf,
    log_cdf,
    log_concavity_bound,
    log_pdf,
    log_pdf_second_derivative,
    mode,
    pdf,
    quantile,
    raw_moment,
    sample,
    sf,
)
from .entropy import renyi_entropy, shannon_entropy, song_measure
from .errors import CancellationWarning, DomainError, OracleError
from .inequality import (
    bonferroni,
    first_incomplete_moment,
    lorenz,
    mean_deviation_about,
    zenga,
)
from .oracle import McResult, QuadratureResult, integrate, mc_expect
from .order_stats import order_stat_mixture_pdf, order_stat_moment, order_stat_pdf
from .orders import (
    ORDER_KINDS,
    SUITE_ORDER_KINDS,
    OrderReport,
    check_order,
    common_scale_order_suite,
)
from .reliability import (
    StressStrengthPair,
    conditional_moment,
    eit,
    hazard,
    mrl,
    partial_expectation,
    reversed_hazard,
    stress_strength,
)
from .specfun import (
    exp_integral_e1,
    log_sq_tail_integral,
    upper_inc_gamma,
    upper_inc_gamma_scaled,
)

__all__ = [
    "CancellationWarning",
    "DomainError",
    "McResult",
    "ORDER_KINDS",
    "OracleError",
    "OrderReport",
    "Params",
    "QuadratureResult",
    "StressStrengthPair",
    "SUITE_ORDER_KINDS",
    "bonferroni",
    "cdf",
    "check_order",
    "conditional_moment",
    "eit",
    "exp_integral_e1",
    "first_incomplete_moment",
    "hazard",
    "integrate",
    "log_cdf",
    "log_concavity_bound",
    "log_pdf",
    "log_pdf_second_derivative",
    "log_sq_tail_integral",
    "lorenz",
    "mc_expect",
    "mean_deviation_about",
    "mode",
    "mrl",
    "order_stat_mixture_pdf",
    "order_stat_moment",
    "order_stat_pdf",
    "partial_expectation",
    "pdf",
    "quantile",
    "raw_moment",
    "renyi_entropy",
    "reversed_hazard",
    "sample",
    "sf",
    "shannon_entropy",
    "song_measure",
    "stress_strength",
    "common_scale_order_suite",
    "upper_inc_gamma",
    "upper_inc_gamma_scaled",
    "zenga",
]

__version__ = "0.1.0"
