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
import math

VERSION = "0.1.0"
__version__ = VERSION

# The routes `collide` and `table` run, in the table's column order; each
# is served by `_route` below.
METHODS = ("exact", "quadrature", "eq2", "asymptotic", "montecarlo")


def _exact_row(n: int):
    """Row n for the exact route; ValueError above its ceiling."""
    from .exact import EXACT_ROUTE_CEILING, stirling_row

    if n > EXACT_ROUTE_CEILING:
        raise ValueError(
            f"n={n} above the documented exact-route ceiling "
            f"{EXACT_ROUTE_CEILING}; use the quadrature route"
        )
    return stirling_row(n)


def _route(method: str, n: int, quad=None, pairs=None, seed=None, kind=None, row=None):
    """p(n) by one of METHODS, as (p, result, failure).

    `result` is the route's own value (for eq2 the kernel integral, which
    p is 1/(2 pi) of).  `failure` is what a report records and `collide`
    exits 1 on: the exact ceiling or the sampler limit (p and result
    None), or non-convergence (the best estimate kept); any other error
    raises.  Only the circle routes read `quad`, only montecarlo `pairs`,
    `seed` and the sampler name `kind`; the exact route builds `row` when
    it is None.  Each method imports only its own route.
    """
    if method == "exact":
        if row is None:
            try:
                row = _exact_row(n)
            except ValueError as exc:  # n above the ceiling (or below 1)
                return None, None, exc
        prob = row.collision_probability()
        return prob.approx, prob, None
    if method == "asymptotic":
        from .asymptotic import p_asymptotic

        p = p_asymptotic(n)
        return p, p, None
    if method == "montecarlo":
        from .montecarlo import SamplerKind, estimate_collision

        try:
            est = estimate_collision(
                n, pairs, kind=SamplerKind(kind) if kind else None, seed=seed
            )
        except ValueError as exc:  # n above the sampler limit
            return None, None, exc
        return est.p_hat, est, None
    from .analytic import I_n, p_quadrature_result
    from .quadrature import QuadratureConvergenceError

    failure = None
    try:
        res = p_quadrature_result(n, None, quad) if method == "quadrature" else I_n(n, quad)
    except QuadratureConvergenceError as exc:
        res, failure = exc.best, exc
    # eq2's p is the kernel integral over 2 pi.
    return (res.value if method == "quadrature" else res.value / (2.0 * math.pi)), res, failure


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

