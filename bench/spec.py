"""The benchmark's contract: workloads, metrics, known defects, predictions.

`python3 bench/spec.py` writes BENCHMARK.json at the repository root from
the values below; the self-test checks that the file still matches them.
Everything BENCHMARK.json has no key for (the known defects, the prediction
table, what each metric is measured over) lives here and in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 12

# Why each workload exists.  Each is closed-loop with one client: one
# process, single-threaded, next op after the last one returns.
WORKLOADS = {
    "cli": (
        "cold README commands (python -m cyclecollide); mostly light commands so "
        "p50 is cold start, verify and the Monte Carlo table set wall_s"
    ),
    "quadrature": (
        "p_quadrature_result, I_n, GAMMA_RATIO, log-uniform n to 1e308 and 1% above; "
        "n=512 hand-off; bypasses exact, montecarlo; known defects (spec.py) count in failed"
    ),
    "exact": (
        "isolated p_exact/stirling_row/cycle_distribution at random n <= 2000 beside "
        "ascending run_report sweeps over consecutive n: row reuse helps only the sweeps"
    ),
    "montecarlo": (
        "estimate_collision, default sampler, log-uniform n in [2, 2e5] across the 1e4 "
        "crossover, pairs*n held near 2^22 so single- and multi-block ops both run"
    ),
}

# Bounds: every timing gets the largest allowed, 0.25, because the host
# this was tuned on slows identical work by up to 2x, at times for
# minutes (README.md); peak RSS moves only with op order, within 8%.
_B = "better"
END_TO_END = [
    {"name": "setup_s", "unit": "s", _B: "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", _B: "lower", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", _B: "lower", "bound": 0.25},
    {"name": "latency_tail_ms", "unit": "ms", _B: "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", _B: "lower", "bound": 0.1},
]

_CRITERIA = (
    "brute-force-rows",
    "row-sum-identity",
    "parseval-exactness",
    "integrand-dual-route",
    "laplace-estimate",
    "theorem-convergence",
    "monte-carlo-consistency",
    "weierstrass-product",
    "table-determinism",
)
_KINDS = ("exact-product", "gamma-ratio", "limit-kernel")


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, _B: better}


PER_LAYER = [
    _layer("import.cyclecollide_ms", "ms"),
    _layer("import.scipy_ms", "ms"),
    _layer("import.numpy_ms", "ms"),
    _layer("cli.in_process_ms", "ms"),
    _layer("cli.cold_overhead_ms", "ms"),
    *(
        _layer(f"gammafn.{fn}.{what}", unit)
        for fn in ("log_gamma_ratio", "recip_gamma_abs_sq")
        for what, unit in (("calls", "count"), ("points", "count"), ("self_ms", "ms"))
    ),
    _layer("gammafn.log_gamma.points_per_s.b15", "1/s", "higher"),
    _layer("gammafn.log_gamma.points_per_s.b100000", "1/s", "higher"),
    *(_layer(f"analytic.integrand.evals.{k}", "count") for k in _KINDS),
    *(_layer(f"analytic.integrand.self_ms.{k}", "ms") for k in _KINDS),
    _layer("quadrature.calls", "count"),
    _layer("quadrature.evaluations", "count"),
    _layer("quadrature.evals_per_call_p50", "count"),
    _layer("quadrature.self_ms", "ms"),
    _layer("quadrature.not_converged", "count"),
    _layer("exact.calls", "count"),
    _layer("exact.self_ms", "ms"),
    _layer("exact.rows_requested", "count"),
    _layer("exact.result_bits", "bit"),
    _layer("montecarlo.pairs", "count"),
    _layer("montecarlo.blocks", "count"),
    _layer("montecarlo.draws_per_s.permutation", "1/s", "higher"),
    _layer("montecarlo.draws_per_s.bernoulli", "1/s", "higher"),
    _layer("montecarlo.sample.self_ms", "ms"),
    _layer("montecarlo.estimate.self_ms", "ms"),
    _layer("montecarlo.workers2_speedup", "ratio", "higher"),
    _layer("report.rows", "count"),
    _layer("report.run_report.self_ms", "ms"),
    _layer("report.render_ms", "ms"),
    *(_layer(f"verify.{c}_s", "s") for c in _CRITERIA),
    _layer("trace.overhead_ratio", "ratio"),
]

# Inputs on which the program is known to be wrong at the commit that
# introduced this benchmark.  They stay in the op lists and are counted
# in `failed`; a run is `correct` when every failed op is listed here.
# The n sets come from checking p_quadrature_result against p_exact for
# every n in 1..600 at both tolerances (ROADMAP item 2 has the cause:
# the |K15 - G7| estimate cannot see integrand round-off).
ESTIMATE_NOT_A_BOUND = {
    ("exact-product", True): frozenset((
        4, 62, 63, 64, 65, 67, 68, 70, 73, 276, 277, 290, 305, 308, 329, 330,
        332, 333, 335, 336, 337, 343, 357, 360, 361, 364, 366, 369, 370, 371,
        372, 373, 375, 376, 377, 378, 380, 385, 388, 389, 390, 396, 397, 405,
        409, 411, 415, 416, 418, 419, 421, 422, 425, 426, 430, 433, 434, 435,
        437, 438, 439, 440, 442, 444, 447, 449, 450, 453, 457, 458, 459, 460,
        461, 462, 463, 464, 465, 466, 469, 470, 471, 472, 473, 474, 476, 487,
        488, 490, 491, 493, 497, 498, 503, 504, 506, 507, 511,
    )),
    ("exact-product", False): frozenset(),
    ("gamma-ratio", True): frozenset((1, 3, 4)),
    ("gamma-ratio", False): frozenset((1, 3)),
}

KNOWN_DEFECTS = {
    "overflow-above-double": (
        "quadrature workload: n above the double range (> 1.8e308) raises "
        "OverflowError in log_gamma_ratio (a = n + z) and in I_n (float(n))"
    ),
    "estimate-not-a-bound": (
        "quadrature workload: the reported error estimate is below "
        "|p - p_exact| for GAMMA_RATIO at n = 1 and 3 (also 4 at rel_tol "
        "1e-12) and for EXACT_PRODUCT at rel_tol 1e-12 on the n listed in "
        "ESTIMATE_NOT_A_BOUND"
    ),
}

# What each open ROADMAP item should move, and what it should leave alone.
PREDICTIONS = [
    {
        "item": "1: drop scipy from the import path",
        "moves": "setup_s on every workload; latency_p50_ms and wall_s on cli "
        "(import.scipy_ms, import.cyclecollide_ms, cli.cold_overhead_ms)",
        "unchanged": "wall_s and latencies on quadrature, exact, montecarlo",
    },
    {
        "item": "2: row reuse",
        "moves": "wall_s and latency_tail_ms on exact through its sweeps "
        "(exact.self_ms; exact.rows_requested stays, work per row falls); "
        "wall_s on cli slightly (verify row-sum-identity)",
        "unchanged": "isolated exact calls, peak_rss_mb on exact, quadrature, "
        "montecarlo",
    },
    {
        "item": "3: tracing in the package",
        "moves": "nothing end to end when off",
        "unchanged": "every end-to-end metric on every workload",
    },
    {
        "item": "4: record-skip sampler, no thread pool",
        "moves": "wall_s, latency_p50_ms, latency_tail_ms on montecarlo "
        "(montecarlo.draws_per_s.*, montecarlo.sample.self_ms); wall_s on cli "
        "slightly (n <= 100 only)",
        "unchanged": "quadrature and exact; montecarlo.workers2_speedup is "
        "evidence for deleting the pool, no caller sets workers",
    },
    {
        "item": "5: periodic trapezoid rule",
        "moves": "wall_s, latency_p50_ms, latency_tail_ms on quadrature "
        "(quadrature.self_ms, quadrature.evaluations, analytic.integrand.*)",
        "unchanged": "exact and montecarlo; cli only through verify and tables",
    },
]


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(render())
