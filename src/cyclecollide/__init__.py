"""Probability that two independent uniform random permutations of n
letters have the same number of cycles.

Four routes to the same number, built to check each other:

* exact arbitrary-precision arithmetic over the cycle-count triangle,
* a unit-circle quadrature identity (coefficient power sums as integrals),
* the closed-form large-n asymptotic 1 / (2 sqrt(pi log n)),
* reproducible Monte Carlo with two independent samplers.
"""

from .analytic import (
    EXACT_PRODUCT_AUTO_MAX,
    I_n,
    IntegrandKind,
    harmonic,
    integrand,
    laplace_I,
    p_asymptotic,
    p_quadrature,
    p_quadrature_result,
)
from .exact import (
    EXACT_ROUTE_CEILING,
    CycleDistribution,
    ExactProbability,
    StirlingRow,
    cycle_distribution,
    f_exact,
    p_exact,
    rising_factorial_eval,
    stirling_row,
    stirling_rows,
)
from .gammafn import (
    EULER_GAMMA,
    EULER_GAMMA_DIGITS,
    log_gamma,
    log_gamma_ratio,
    recip_gamma_abs_sq,
    weierstrass_partial,
)
from .montecarlo import (
    BERNOULLI_MAX_N,
    McEstimate,
    SamplerKind,
    estimate_collision,
    sample_cycle_count,
    sample_cycle_counts,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
    quadrature,
)
from .report import (
    CSV_COLUMNS,
    METHODS,
    VERSION,
    CollisionReportRow,
    ReportConfig,
    render_csv,
    render_json,
    run_report,
)
from .verify import run_verify

__version__ = VERSION

__all__ = [
    "BERNOULLI_MAX_N",
    "CSV_COLUMNS",
    "CollisionReportRow",
    "CycleDistribution",
    "DEFAULT_CONFIG",
    "EULER_GAMMA",
    "EULER_GAMMA_DIGITS",
    "EXACT_PRODUCT_AUTO_MAX",
    "EXACT_ROUTE_CEILING",
    "ExactProbability",
    "I_n",
    "IntegrandKind",
    "METHODS",
    "McEstimate",
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "QuadratureResult",
    "ReportConfig",
    "SamplerKind",
    "StirlingRow",
    "VERSION",
    "cycle_distribution",
    "estimate_collision",
    "f_exact",
    "harmonic",
    "integrand",
    "laplace_I",
    "log_gamma",
    "log_gamma_ratio",
    "p_asymptotic",
    "p_exact",
    "p_quadrature",
    "p_quadrature_result",
    "quadrature",
    "recip_gamma_abs_sq",
    "render_csv",
    "render_json",
    "rising_factorial_eval",
    "run_report",
    "run_verify",
    "sample_cycle_count",
    "sample_cycle_counts",
    "stirling_row",
    "stirling_rows",
    "weierstrass_partial",
]
