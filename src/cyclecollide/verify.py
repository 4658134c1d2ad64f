"""Self-contained verification suite.

Each criterion pits an implementation route against an independent
oracle: exhaustive permutation enumeration for the row counts, exact
rational arithmetic for the quadrature identity, tight-tolerance
quadrature for the asymptotic trend, and binomial/chi-square statistics
for the samplers.  `run_verify` prints one line per criterion and returns
a process exit code.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .analytic import (
    I_n,
    IntegrandKind,
    integrand,
    laplace_I,
    p_asymptotic,
    p_quadrature,
)
from .exact import p_exact, stirling_row, stirling_rows
from .gammafn import EULER_GAMMA, log_gamma, weierstrass_partial
from .montecarlo import SamplerKind, _stream, estimate_collision, sample_cycle_counts
from .quadrature import QuadratureConfig
from .report import ReportConfig, render_csv, render_json, run_report

CHI2_SIGNIFICANCE = 1e-6


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    time_limit: float


def _brute_cycle_histogram(n: int) -> list[int]:
    """Cycle-count histogram over all n! permutations, by direct traversal."""
    hist = [0] * n
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        hist[cycles - 1] += 1
    return hist


def check_brute_force_rows() -> tuple[bool, str]:
    for row in stirling_rows(range(1, 9)):
        expected = _brute_cycle_histogram(row.n)
        got = list(row.coeffs)
        if got != expected:
            return False, f"row {row.n}: recurrence {got} != enumeration {expected}"
    return True, "rows 1..8 match exhaustive enumeration of all n! permutations"


def check_row_sums() -> tuple[bool, str]:
    fact = 1
    for row in stirling_rows(range(1, 501)):
        fact *= row.n
        total = row.row_sum()
        if total != fact:
            return False, f"row {row.n} sums to {total}, expected {row.n}!"
    return True, "row sums equal n! exactly for n = 1..500"


def check_parseval() -> tuple[bool, str]:
    config = QuadratureConfig(rel_tol=1e-12)
    worst = 0.0
    worst_n = 0
    for row in stirling_rows((2, 5, 10, 50, 100, 512)):
        n = row.n
        exact = row.collision_probability().approx
        quad = p_quadrature(n, IntegrandKind.EXACT_PRODUCT, config)
        rel = abs(quad - exact) / exact
        if rel > worst:
            worst, worst_n = rel, n
    ok = worst <= 1e-9
    return ok, f"max |p_quad - p_exact|/p_exact = {worst:.3e} at n={worst_n} (tol 1e-9)"


def check_integrand_agreement() -> tuple[bool, str]:
    thetas = _dual_route_thetas()
    worst = 0.0
    worst_n = 0
    for n in (10, 200, 10**4):
        a = integrand(IntegrandKind.EXACT_PRODUCT, n, thetas)
        b = integrand(IntegrandKind.GAMMA_RATIO, n, thetas)
        rel = float(np.max(np.abs(a - b) / np.abs(a)))
        if rel > worst:
            worst, worst_n = rel, n
    ok = worst <= 1e-12
    return ok, f"max relative route gap {worst:.3e} at n={worst_n} over 32 angles (tol 1e-12)"


def _dual_route_thetas() -> np.ndarray:
    # 32 angles spread over (0, 2 pi) avoiding the zero of both routes at pi.
    t = np.linspace(0.05, 2.0 * math.pi - 0.05, 32)
    return np.where(np.abs(t - math.pi) < 0.05, t + 0.11, t)


def check_laplace_ratio() -> tuple[bool, str]:
    config = QuadratureConfig(rel_tol=1e-12)
    gaps = []
    for n in (10**2, 10**3, 10**4, 10**6):
        ratio = I_n(n, config).value / laplace_I(n)
        gap = abs(ratio - 1.0)
        bound = 1.5 / math.log(n)
        if gap > bound:
            return False, f"n={n}: |I/laplace - 1| = {gap:.4f} > {bound:.4f}"
        gaps.append(f"n=1e{round(math.log10(n))}: {gap:.4f}<={bound:.4f}")
    return True, "; ".join(gaps)


def check_theorem_trend() -> tuple[bool, str]:
    config = QuadratureConfig(rel_tol=1e-12)
    ratios = []
    for n in (10**2, 10**4, 10**6, 10**8):
        p = p_quadrature(n, IntegrandKind.GAMMA_RATIO, config)
        ratios.append(p / p_asymptotic(n))
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    final_gap = abs(ratios[-1] - 1.0)
    ok = decreasing and final_gap <= 0.1
    detail = (
        "r(n) = "
        + " > ".join(f"{r:.5f}" for r in ratios)
        + f"; |r(1e8) - 1| = {final_gap:.4f} (band 0.1)"
    )
    return ok, detail


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with integer df >= 1.

    The regularized upper incomplete gamma Q(df/2, x/2) as a finite sum,
    by Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) from Q(0, y) = 0
    (even df: a Poisson tail) or Q(1/2, y) = erfc(sqrt y) (odd df).
    Each term is formed in logs so none underflows ahead of the rest.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    a = 0.5 * (df % 2)
    sf = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    log_y = math.log(y)
    while a < 0.5 * df:
        sf += math.exp(a * log_y - y - math.lgamma(a + 1.0))
        a += 1.0
    return min(sf, 1.0)


def _chi_square_pvalue(counts: np.ndarray, n: int) -> float:
    """P-value of the counts of k = 0..n cycles against the exact law.

    Each tail's cells expecting fewer than 5 draws are pooled into the
    nearest cell toward the mode that expects at least 5, and the test
    has cells - 1 degrees of freedom.  A cell expects its integer sum of
    c(n, k) times the draws over n!, one int division, so no expectation
    underflows to 0 at any n.
    """
    coeffs = stirling_row(n).coeffs
    fact = math.factorial(n)
    observed = counts[1:]
    draws = int(observed.sum())
    full = [i for i, c in enumerate(coeffs) if c * draws >= 5 * fact]
    starts = [0, *range(full[0] + 1, full[-1] + 1)]
    expected = np.array(
        [sum(coeffs[a:b]) * draws / fact for a, b in zip(starts, [*starts[1:], n])]
    )
    observed = np.add.reduceat(observed.astype(np.float64), starts)
    stat = float(((observed - expected) ** 2 / expected).sum())
    return _chi2_sf(stat, len(starts) - 1)


def _cycle_counts(kind: SamplerKind, n: int) -> np.ndarray:
    # Draws with k = 0..n cycles, counted per block: 10^6 never exist at once.
    blocks = (sample_cycle_counts(kind, n, 10**4, _stream(0, b)) for b in range(100))
    return sum(np.bincount(draws, minlength=n + 1) for draws in blocks)


def check_monte_carlo() -> tuple[bool, str]:
    est = estimate_collision(10, 10**6, SamplerKind.PERMUTATION_DIRECT, seed=0)
    exact = p_exact(10).approx
    gap_se = abs(est.p_hat - exact) / est.std_err
    if gap_se > 4.0:
        return False, f"n=10: |p_hat - p_exact| = {gap_se:.2f} se > 4 se"
    # BERNOULLI_SUM inverts letters 1..12 at every n; n = 13 checks the
    # jumps after the inversion.
    pvals = []
    cases = [(n, kind) for n in (2, 6, 12) for kind in SamplerKind]
    for n, kind in [*cases, (13, SamplerKind.BERNOULLI_SUM)]:
        pv = _chi_square_pvalue(_cycle_counts(kind, n), n)
        if not pv >= CHI2_SIGNIFICANCE:  # NaN fails too
            return False, f"chi-square n={n} {kind.value}: p={pv:.2e} < 1e-6"
        pvals.append(pv)
    return True, (
        f"estimate within {gap_se:.2f} se of exact; "
        f"min chi-square p-value {min(pvals):.3g} over both samplers at "
        f"n = 2, 6, 12 and bernoulli at 13 (cut 1e-6)"
    )


def check_weierstrass() -> tuple[bool, str]:
    worst_final = 0.0
    for theta in (0.5, 1.0, 2.0):
        z = complex(math.cos(theta), math.sin(theta))
        target = np.exp(-EULER_GAMMA * z - log_gamma(z))
        errors = []
        terms = 1000
        while terms <= 10**5:
            got = weierstrass_partial(z, terms)
            errors.append(abs(got - target) / abs(target))
            terms *= 2
        final = abs(weierstrass_partial(z, 10**5) - target) / abs(target)
        worst_final = max(worst_final, final)
        if any(b >= a for a, b in zip(errors, errors[1:])):
            return False, f"theta={theta}: error not shrinking as terms double: {errors}"
        if final > 1e-4:
            return False, f"theta={theta}: error {final:.3e} at 1e5 terms > 1e-4"
    return True, (
        f"error shrinks through each doubling 1e3..1e5 terms; "
        f"worst at 1e5 terms {worst_final:.2e} (tol 1e-4)"
    )


def check_determinism() -> tuple[bool, str]:
    config = ReportConfig(
        n_values=(2, 10, 100),
        methods=("exact", "quadrature", "eq2", "asymptotic", "montecarlo"),
        mc_pairs=20000,
        seed=0,
    )
    first_rows = run_report(config)
    second_rows = run_report(config)
    csv_same = render_csv(first_rows) == render_csv(second_rows)
    json_same = render_json(first_rows, config) == render_json(second_rows, config)
    ok = csv_same and json_same
    return ok, (
        "two identically configured runs rendered byte-identical CSV and JSON"
        if ok
        else f"outputs differ (csv equal: {csv_same}, json equal: {json_same})"
    )


@dataclass(frozen=True)
class Criterion:
    name: str
    time_limit: float
    check: Callable[[], tuple[bool, str]]

    def run(self) -> CriterionResult:
        start = time.perf_counter()
        try:
            passed, detail = self.check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return CriterionResult(self.name, passed, detail, elapsed, self.time_limit)


CRITERIA = (
    Criterion("brute-force-rows", 5.0, check_brute_force_rows),
    Criterion("row-sum-identity", 30.0, check_row_sums),
    Criterion("parseval-exactness", 60.0, check_parseval),
    Criterion("integrand-dual-route", 10.0, check_integrand_agreement),
    Criterion("laplace-estimate", 30.0, check_laplace_ratio),
    Criterion("theorem-convergence", 60.0, check_theorem_trend),
    Criterion("monte-carlo-consistency", 60.0, check_monte_carlo),
    Criterion("weierstrass-product", 10.0, check_weierstrass),
    Criterion("table-determinism", 60.0, check_determinism),
)


def run_verify(stream: TextIO | None = None) -> int:
    """Run every criterion, print one PASS/FAIL line each, return 0 or 1."""
    import sys

    out = stream if stream is not None else sys.stdout
    all_ok = True
    for criterion in CRITERIA:
        result = criterion.run()
        ok = result.passed and result.elapsed < result.time_limit
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        note = result.detail
        if result.passed and result.elapsed >= result.time_limit:
            note += f" [exceeded {result.time_limit:.0f}s budget]"
        print(
            f"{status} {criterion.name}: {note} ({result.elapsed:.2f}s)",
            file=out,
        )
    print("all criteria passed" if all_ok else "criterion failures", file=out)
    return 0 if all_ok else 1
