"""Probability that two independent uniform random permutations of n
letters have the same number of cycles.

Four routes to the same number, built to check each other:

* exact arbitrary-precision arithmetic over the cycle-count triangle,
* a unit-circle quadrature identity (coefficient power sums as integrals),
* the closed-form large-n asymptotic 1 / (2 sqrt(pi log n)),
* reproducible Monte Carlo with two independent samplers.

The package is lazy: each public name loads its defining module on first
access (PEP 562), so the exact route runs without importing numpy.
"""

import importlib

VERSION = "0.1.0"
__version__ = VERSION

# The routes a report can run, in its column order.
METHODS = ("exact", "quadrature", "eq2", "asymptotic", "montecarlo")

_EXPORTS = {
    "analytic": (
        "I_n",
        "IntegrandKind",
        "integrand",
        "p_quadrature",
        "p_quadrature_result",
    ),
    "asymptotic": ("laplace_I", "p_asymptotic"),
    "exact": (
        "EXACT_ROUTE_CEILING",
        "CycleDistribution",
        "ExactProbability",
        "StirlingRow",
        "cycle_distribution",
        "p_exact",
        "stirling_row",
        "stirling_rows",
    ),
    "gammafn": (
        "EULER_GAMMA",
        "log_gamma",
        "recip_gamma_abs_sq",
        "weierstrass_partial",
    ),
    "montecarlo": (
        "BERNOULLI_MAX_N",
        "PERMUTATION_MAX_N",
        "McEstimate",
        "SamplerKind",
        "estimate_collision",
        "sample_cycle_counts",
    ),
    "quadrature": (
        "DEFAULT_CONFIG",
        "QuadratureConfig",
        "QuadratureConvergenceError",
        "QuadratureResult",
    ),
    "report": (
        "CSV_COLUMNS",
        "CollisionReportRow",
        "ReportConfig",
        "render_csv",
        "render_json",
        "run_report",
    ),
    "verify": ("run_verify",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, "METHODS", "VERSION"])


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

