import io
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import cyclecollide.verify as verify
from cyclecollide import (
    I_n,
    McEstimate,
    QuadratureConfig,
    SamplerKind,
    StirlingRow,
    cycle_distribution,
    p_exact,
    sample_cycle_counts,
)


def test_run_verify_prints_one_line_per_criterion():
    buffer = io.StringIO()
    code = verify.run_verify(stream=buffer)
    lines = buffer.getvalue().splitlines()
    assert code == 0
    assert lines[-1] == "all criteria passed"
    body = lines[:-1]
    assert len(body) == len(verify.CRITERIA)
    assert all(line.startswith("PASS ") for line in body)
    for criterion, line in zip(verify.CRITERIA, body):
        assert criterion.name in line


def test_run_verify_traced_memory_is_bounded():
    # Every criterion's kernels work in fixed chunks; the largest piece
    # left is criterion 7's block of 10^5 draws (3.0-3.8 MiB traced).
    tracemalloc.start()
    try:
        code = verify.run_verify(stream=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4.5 * 2**20


def test_corrupted_recurrence_fails_row_sum_criterion(monkeypatch):
    real = verify.stirling_rows

    def corrupted(n_values):
        for row in real(n_values):
            if row.n == 137:  # single off-by-one deep in the table
                coeffs = list(row.coeffs)
                coeffs[3] += 1
                row = StirlingRow(row.n, tuple(coeffs))
            yield row

    monkeypatch.setattr(verify, "stirling_rows", corrupted)
    passed, detail = verify.check_row_sums()
    assert not passed
    assert "137" in detail


def test_strangled_quadrature_reports_convergence_failure(monkeypatch):
    def starved(**kwargs):
        # rel_tol 1e-16 is below the evaluation-error floor
        kwargs["rel_tol"] = 1e-16
        return QuadratureConfig(**kwargs)

    monkeypatch.setattr(verify, "QuadratureConfig", starved)
    criterion = next(c for c in verify.CRITERIA if c.name == "parseval-exactness")
    result = criterion.run()
    assert not result.passed
    assert "QuadratureConvergenceError" in result.detail


def test_failure_turns_into_exit_code(monkeypatch):
    criteria = (
        verify.Criterion("forced", 30.0, lambda: (False, "forced failure")),
        verify.Criterion("fine", 30.0, lambda: (True, "ok")),
        verify.Criterion("slow", 0.0, lambda: (True, "ok")),
    )
    monkeypatch.setattr(verify, "CRITERIA", criteria)
    buffer = io.StringIO()
    assert verify.run_verify(stream=buffer) == 1
    out = buffer.getvalue()
    assert "FAIL forced: forced failure" in out
    assert "PASS fine: ok" in out
    assert "FAIL slow: ok [exceeded 0s budget]" in out
    assert out.splitlines()[-1] == "criterion failures"


def _doubled_I_n(n, config):
    result = I_n(n, config)
    return result._replace(value=2.0 * result.value)


def _slow_weierstrass(z, terms):
    # Relative error 100 / terms: it shrinks through every doubling and is
    # still 1e-3 at 10^5 terms.
    return (1.0 + 100.0 / terms) * np.exp(-verify.EULER_GAMMA * z - verify.log_gamma(z))


_FAR_ESTIMATE = McEstimate(10, 10**6, 0, p_exact(10).approx + 0.05, 0.01)
_renders = itertools.count()

# (id, criterion, its dependencies replaced, the start of its FAIL line):
# one case for each way a criterion's check fails, each dependency a cheap
# stand-in, so that no criterion does its real work.
BROKEN = [
    ("wrong-row", "brute-force-rows", {"stirling_rows": lambda ns: iter([StirlingRow(1, (2,))])},
     "FAIL brute-force-rows: row 1: recurrence [2] != enumeration [1]"),
    ("doubled-I_n", "laplace-estimate", {"I_n": _doubled_I_n},
     "FAIL laplace-estimate: n=100: |I/laplace - 1| = 1."),
    ("far-estimate", "monte-carlo-consistency",
     {"estimate_collision": lambda *args, **kwargs: _FAR_ESTIMATE},
     "FAIL monte-carlo-consistency: n=10: |p_hat - p_exact| = 5.00 se > 4 se"),
    ("flat-product", "weierstrass-product", {"weierstrass_partial": lambda z, terms: 1 + 0j},
     "FAIL weierstrass-product: theta=0.5: error not shrinking as terms double"),
    ("slow-product", "weierstrass-product", {"weierstrass_partial": _slow_weierstrass},
     "FAIL weierstrass-product: theta=0.5: error 1.000e-03 at 1e5 terms > 1e-4"),
    ("changing-render", "table-determinism",
     {"run_report": lambda config: [], "render_csv": lambda rows: str(next(_renders)),
      "render_json": lambda rows, config: "[]"},
     "FAIL table-determinism: outputs differ (csv equal: False, json equal: True)"),
]


@pytest.mark.parametrize(
    "name, patches, want", [case[1:] for case in BROKEN], ids=[case[0] for case in BROKEN]
)
def test_each_failing_check_prints_its_fail_line(monkeypatch, name, patches, want):
    monkeypatch.setattr(verify, "CRITERIA", tuple(c for c in verify.CRITERIA if c.name == name))
    for attr, stand_in in patches.items():
        monkeypatch.setattr(verify, attr, stand_in)
    buffer = io.StringIO()
    assert verify.run_verify(stream=buffer) == 1
    line, last = buffer.getvalue().splitlines()
    assert line.startswith(want), line
    assert last == "criterion failures"


def test_chi2_sf_matches_scipy():
    for df in range(1, 40):
        for x in np.geomspace(0.01, 300.0, 60):
            want = chi2.sf(x, df)
            assert verify._chi2_sf(float(x), df) == pytest.approx(want, rel=1e-12)
    assert verify._chi2_sf(0.0, 3) == 1.0


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_chi_square_counts_are_streamed_per_block(kind):
    # Criterion 7 counts each block of 10^4 draws as it comes: the same
    # p-value as one count of all 10^6 draws, without holding them.
    tracemalloc.start()
    try:
        counts = verify._cycle_counts(kind, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    draws = np.concatenate(
        [sample_cycle_counts(kind, 2, 10**4, verify._stream(0, block)) for block in range(100)]
    )
    want = np.bincount(draws, minlength=3)
    assert counts.tolist() == want.tolist()
    assert verify._chi_square_pvalue(counts, 2) == verify._chi_square_pvalue(want, 2)


def test_chi_square_pvalue_is_that_of_the_exact_law():
    # The pooled statistic from the cycle_distribution(n) Fractions: each
    # tail's cells expecting fewer than 5 draws join the nearest cell
    # toward the mode that expects 5 or more.  A cell expects its exact
    # probability times the draws, rounded once, as verify's int quotient
    # is, so the p-value is the same bits.
    def from_distribution(counts, n):
        observed = counts[1:]
        draws = int(observed.sum())
        expected = [p * draws for p in cycle_distribution(n).probs]
        full = [k for k, e in enumerate(expected) if e >= 5]
        lo, hi = full[0], full[-1]
        cells = [(0, lo + 1), *((k, k + 1) for k in range(lo + 1, hi)), (hi, n)]
        obs = np.array([float(observed[a:b].sum()) for a, b in cells])
        exp = np.array([float(sum(expected[a:b])) for a, b in cells])
        stat = float(((obs - exp) ** 2 / exp).sum())
        return verify._chi2_sf(stat, len(cells) - 1)

    for n in (2, 6, 12, 50, 200):
        for kind in SamplerKind:
            draws = sample_cycle_counts(kind, n, 10**4, verify._stream(n, 0))
            counts = np.bincount(draws, minlength=n + 1)
            got = verify._chi_square_pvalue(counts, n)
            assert got.hex() == from_distribution(counts, n).hex(), (n, kind)


@pytest.mark.parametrize(
    "kind, drawn_at, passes",
    [
        (SamplerKind.BERNOULLI_SUM, 200, True),
        (SamplerKind.PERMUTATION_DIRECT, 200, True),
        (SamplerKind.BERNOULLI_SUM, 190, False),
        (SamplerKind.BERNOULLI_SUM, 150, False),
    ],
)
def test_chi_square_at_n_200_is_finite_and_tells_the_laws_apart(kind, drawn_at, passes):
    # Past n ~ 170, c(n, n) / n! underflows to 0.0: a cell expecting 0
    # draws made the statistic NaN, which no cut rejects.
    draws = sample_cycle_counts(kind, drawn_at, 10**5, verify._stream(0, 0))
    pv = verify._chi_square_pvalue(np.bincount(draws, minlength=201), 200)
    assert math.isfinite(pv)
    assert (pv >= verify.CHI2_SIGNIFICANCE) == passes, pv


def test_nan_chi_square_pvalue_fails_criterion(monkeypatch):
    monkeypatch.setattr(verify, "_chi_square_pvalue", lambda counts, n: math.nan)
    passed, detail = verify.check_monte_carlo()
    assert not passed
    assert "p=nan" in detail


# Imports every submodule: `import cyclecollide` alone loads none of them.
_IMPORT_ALL = (
    "import importlib, pkgutil, sys, cyclecollide; "
    "[importlib.import_module(f'cyclecollide.{m.name}') "
    "for m in pkgutil.iter_modules(cyclecollide.__path__) if m.name != '__main__']; "
)


def test_import_does_not_load_scipy():
    code = _IMPORT_ALL + "print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_does_not_load_thread_pool():
    # No module uses a thread pool: estimate_collision runs its blocks in
    # one loop.
    code = _IMPORT_ALL + "print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
