import hashlib
import math
import operator
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecollide import (
    I_n,
    IntegrandKind,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
    integrand,
    laplace_I,
    p_asymptotic,
    p_exact,
    p_quadrature,
    p_quadrature_result,
    recip_gamma_abs_sq,
)
from cyclecollide import analytic

mpmath.mp.dps = 40

TIGHT = QuadratureConfig(rel_tol=1e-12)


def _mp_series_coeffs(n):
    # d_1 = 2 (H_{n-1} - log n - gamma), d_k = 2 (-1)^k zeta(k, n) / k.
    # mpmath works in absolute precision, so zeta(k, n) ~ n^{1-k} needs
    # about k log10(n) digits more than the 30 kept.
    out = [2 * (mpmath.harmonic(n - 1) - mpmath.log(n) - mpmath.euler)]
    for k in range(2, 55):
        with mpmath.workdps(30 + int(k * math.log10(n))):
            out.append(2 * (-1) ** k * mpmath.zeta(k, n) / k)
    return np.array([float(x) for x in out])


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 1000, 10**6, 2**59])
def test_series_coeffs_match_hurwitz_zeta(n):
    # An absolute error of 8 eps in the exponent is 8 eps relative in the
    # integrand; 1e-11 relative covers the Euler-Maclaurin truncation at
    # k = 54, n = 64.  The kept prefix d_1..d_K(n) is compared.
    got = analytic._series_coeffs(n)
    want = _mp_series_coeffs(n)[: len(got)]
    assert np.all(np.abs(got - want) <= 8 * np.finfo(np.float64).eps + 1e-11 * np.abs(want))


def _series_terms_steps():
    # The smallest n with K(n) <= j, j = 1..53, by bisection on [2, 2^60):
    # every n where K(n) changes.
    steps = []
    for j in range(1, 54):
        lo, hi = 2, 2**60 - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if analytic._series_terms(mid) <= j:
                hi = mid
            else:
                lo = mid
        steps.append(hi)
    return steps


def _mp_series_tail(n, terms):
    # sum_{k > terms} 2 |d_k(n)| = sum_k 4 zeta(k, n) / k, k <= 120, for
    # terms >= 1.  The terms fall by at least 1/n, so once one is below
    # 2^-80 of the sum the rest is smaller still.
    total = mpmath.mpf(0)
    for k in range(terms + 1, 121):
        with mpmath.workdps(30 + int(k * math.log10(n))):
            term = 4 * mpmath.zeta(k, n) / k
        total += term
        if term < total * mpmath.mpf(2) ** -80:
            break
    return total


def _series_tail_bound(n, k):
    # The bound on what d_{k+1}, d_{k+2}, ... move the exponent (analytic
    # module docstring), exactly.
    return Fraction(4 * (n + k), k * (k + 1) * (n - 1) * n**k)


def test_series_terms_never_increase_and_vanish_from_2_to_the_60():
    steps = _series_terms_steps()
    ns = {*range(2, 3000), *_log_spaced_ints(1, 60, 201)[:-1], 2**60 - 1}
    ns |= {s + d for s in steps for d in (-1, 0, 1)}
    terms = [analytic._series_terms(n) for n in sorted(ns)]
    assert terms[0] == 54 and min(terms) == 1
    assert terms == sorted(terms, reverse=True)
    # K(n) is the fewest terms whose bound meets 2^-58 (54 at most).
    for n, k in zip(sorted(ns), terms):
        assert k == 54 or _series_tail_bound(n, k) <= Fraction(1, 2**58), n
        assert k == 1 or _series_tail_bound(n, k - 1) > Fraction(1, 2**58), n
    # The series has K(n) terms.
    assert [len(analytic._series_coeffs(n)) for n in sorted(ns)] == terms
    for n in (2**60, 2**60 + 1, 10**100, 2**1030):
        assert analytic._series_terms(n) == 0 and analytic._series_coeffs(n) == ()


def test_series_terms_leave_out_at_most_2_to_the_minus_58():
    # The d_k left out move the exponent by at most sum_{k > K} 2 |d_k(n)|,
    # as |cos k theta - 1| <= 2.  K(n) is capped at the table's 54 terms,
    # which binds only at n = 2, where the tail is 2^-57.8.
    ns = {*_log_spaced_ints(1, 60, 201)[:-1], 63, 64, 65, 2**60 - 1}
    ns |= {s + d for s in _series_terms_steps() for d in (-1, 0, 1)}
    for n in sorted(ns):
        terms = analytic._series_terms(n)
        tail = _mp_series_tail(n, terms)
        if n == 2:
            assert terms == 54 and tail <= mpmath.mpf(2) ** -57.8
        else:
            assert terms < 54 and tail <= mpmath.mpf(2) ** -58, (n, terms, tail)


# Relative error of the GAMMA_RATIO integrand against mpmath, as the
# analytic module docstring documents it, on 117 equally spaced angles in
# [0, 2 pi] less the three within 0.1 of pi.
GAMMA_RATIO_ACCURACY = {
    10: 1e-14, 1000: 1e-14, 10**6: 2e-14, 2**58: 4e-14, 2**59: 6e-14, 2**60 - 1: 6e-14,
}


@pytest.mark.parametrize("n", GAMMA_RATIO_ACCURACY)
def test_gamma_ratio_accuracy_is_as_documented(n):
    theta = np.linspace(0.0, 2 * math.pi, 117)
    theta = theta[np.abs(theta - math.pi) >= 0.1]
    assert theta.size == 114
    got = integrand(IntegrandKind.GAMMA_RATIO, n, theta)
    worst = 0.0
    with mpmath.workdps(30 + int(math.log10(n))):
        log_fact = mpmath.loggamma(n + 1)
        for t, value in zip(theta.tolist(), got.tolist()):
            z = mpmath.expj(t)
            want = mpmath.exp(2 * mpmath.re(mpmath.loggamma(z + n) - log_fact))
            want *= abs(mpmath.rgamma(z)) ** 2
            worst = max(worst, abs(value / want - 1))
    assert worst <= GAMMA_RATIO_ACCURACY[n]


# ---------------------------------------------------------- integrand

def test_exact_product_point_values():
    assert integrand(IntegrandKind.EXACT_PRODUCT, 2, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert integrand(IntegrandKind.EXACT_PRODUCT, 2, math.pi) == 0.0
    assert integrand(IntegrandKind.EXACT_PRODUCT, 1, 2.1) == pytest.approx(1.0, rel=1e-15)


def test_limit_kernel_at_zero_is_one():
    assert integrand(IntegrandKind.LIMIT_KERNEL, math.e, 0.0) == pytest.approx(
        1.0, abs=5e-15
    )


def test_gamma_ratio_agrees_with_product_spot():
    a = integrand(IntegrandKind.EXACT_PRODUCT, 50, 1.0)
    b = integrand(IntegrandKind.GAMMA_RATIO, 50, 1.0)
    assert b == pytest.approx(a, rel=1e-10)


@pytest.mark.parametrize("n", [10, 50, 200, 10**4])
def test_dual_route_agreement(n):
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 32)
    thetas = thetas[np.abs(thetas - math.pi) > 0.02]
    a = integrand(IntegrandKind.EXACT_PRODUCT, n, thetas)
    b = integrand(IntegrandKind.GAMMA_RATIO, n, thetas)
    assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-9


def test_integrand_vectorized_shape():
    out = integrand(IntegrandKind.GAMMA_RATIO, 7, np.linspace(0, 2 * math.pi, 11))
    assert out.shape == (11,)
    assert (out >= 0).all()
    flat = np.linspace(0.1, 6.0, 12)
    for kind in IntegrandKind:
        grid = integrand(kind, 7, flat.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.reshape(-1), integrand(kind, 7, flat))


def test_integrand_memory_is_bounded_per_block():
    # Each angle is evaluated alone: no per-angle table exists for the
    # whole array, only the angles and the values (about 40 bytes an
    # angle), and the values are those of any part of the array on its
    # own.  2^12 + 3 angles put the fixed cost near 1 byte an angle and
    # leave a short second part.
    theta = np.linspace(0.0, math.pi, 2**12 + 3)
    for kind in (IntegrandKind.GAMMA_RATIO, IntegrandKind.LIMIT_KERNEL):
        tracemalloc.start()
        got = integrand(kind, 1000, theta)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 100 * theta.size
        halves = [integrand(kind, 1000, part) for part in (theta[:4096], theta[4096:])]
        assert got.tobytes() == np.concatenate(halves).tobytes()


def test_integrand_domain_errors():
    with pytest.raises(ValueError):
        integrand(IntegrandKind.EXACT_PRODUCT, 2, -0.5)
    with pytest.raises(ValueError):
        integrand(IntegrandKind.EXACT_PRODUCT, 2, 2 * math.pi + 1e-9)
    with pytest.raises(ValueError):
        integrand(IntegrandKind.EXACT_PRODUCT, 0, 1.0)
    with pytest.raises(ValueError):
        integrand(IntegrandKind.GAMMA_RATIO, 2.5, 1.0)
    with pytest.raises(ValueError):
        integrand(IntegrandKind.LIMIT_KERNEL, 1.0, 1.0)
    bad = (math.nan, [0.5, math.nan], "1", b"1", [0.5, "2"], np.array(["0.5"]), 1 + 0j,
           np.array([0.5 + 0j]), np.complex64(1))
    for kind in IntegrandKind:
        for theta in bad:
            with pytest.raises(ValueError, match="theta"):
                integrand(kind, 10, theta)


@pytest.mark.parametrize(
    "kind, n",
    [
        (IntegrandKind.LIMIT_KERNEL, 3),
        (IntegrandKind.LIMIT_KERNEL, 1000),
        (IntegrandKind.LIMIT_KERNEL, 1e20),
        (IntegrandKind.EXACT_PRODUCT, 3),
        (IntegrandKind.EXACT_PRODUCT, 1000),
        (IntegrandKind.GAMMA_RATIO, 2),
        (IntegrandKind.GAMMA_RATIO, 3),
        (IntegrandKind.GAMMA_RATIO, 1000),
        (IntegrandKind.GAMMA_RATIO, 10**9),
        (IntegrandKind.GAMMA_RATIO, 10**20),
    ],
)
def test_integrand_scalar_equals_array(kind, n):
    # Each angle is evaluated alone, so it rounds as the same angle inside
    # an array at every n, also where K(n) is 54 (n = 2) and 35 (n = 3);
    # a 0-d array angle gives the same float.
    theta = np.random.default_rng(11).uniform(0.0, 2 * math.pi, 600)
    want = integrand(kind, n, theta)
    alone = [integrand(kind, n, float(t)) for t in theta]
    assert np.array(alone).tobytes() == want.tobytes()
    zero_d = [integrand(kind, n, np.array(t)) for t in theta[:50]]
    assert {type(v) for v in zero_d} == {float}
    assert np.array(zero_d).tobytes() == want[:50].tobytes()


def test_exact_product_memory_is_bounded_per_chunk():
    # 10^6 factors at two angles, in blocks of 2^14 log1p terms: a few
    # temporaries of 128 KiB at a time.
    tracemalloc.start()
    try:
        integrand(IntegrandKind.EXACT_PRODUCT, 10**6, np.array([1.0, 2.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [2, 513, 16385, 2**15 + 3, 200001])
def test_exact_product_scalar_equals_array_at_any_length(n):
    # The factor chunks do not depend on the number of angles, so an
    # angle keeps its bits alone and inside arrays of 32 and 257 angles.
    theta = np.random.default_rng(12).uniform(0.0, 2 * math.pi, 257)
    want = integrand(IntegrandKind.EXACT_PRODUCT, n, theta)
    short = integrand(IntegrandKind.EXACT_PRODUCT, n, theta[:32])
    assert short.tobytes() == want[:32].tobytes()
    alone = [integrand(IntegrandKind.EXACT_PRODUCT, n, float(t)) for t in theta[::8]]
    assert np.array(alone).tobytes() == want[::8].tobytes()


# ------------------------------------------------------- p_quadrature

def test_p_quadrature_identity_small():
    assert p_quadrature(1) == pytest.approx(1.0, rel=1e-12)
    assert p_quadrature(2) == pytest.approx(0.5, rel=1e-11)
    assert p_quadrature(3) == pytest.approx(7.0 / 18.0, rel=1e-11)


def test_parseval_identity_across_n():
    # the integral route must reproduce exact arithmetic for every n
    for n in range(1, 101):
        exact = p_exact(n).approx
        quad = p_quadrature(n, IntegrandKind.EXACT_PRODUCT, TIGHT)
        assert abs(quad - exact) <= 1e-9 * exact, f"n={n}"


def test_p_quadrature_auto_select_consistency():
    # kind=None is GAMMA_RATIO at every n, and agrees with exact arithmetic
    for n in (2, 63, 64, 1024, 1025):
        res = p_quadrature_result(n)
        assert res == p_quadrature_result(n, IntegrandKind.GAMMA_RATIO)
        assert res.value == pytest.approx(p_exact(n).approx, rel=1e-12)


def test_p_quadrature_result_fields():
    res = p_quadrature_result(10, IntegrandKind.EXACT_PRODUCT)
    assert res.value == pytest.approx(p_exact(10).approx, rel=1e-9)
    assert res.abs_error_estimate >= 0
    intervals = res.evaluations - 1  # N + 1 nodes, endpoints included
    assert intervals >= 8 and intervals % 8 == 0


def _exact_p_values(wanted):
    """p(n) as a Fraction for each n in `wanted`, from one pass of the
    row recurrence c(n+1, k) = n c(n, k) + c(n, k-1)."""
    out = {}
    row, fact = [1], 1
    for n in range(1, max(wanted) + 1):
        if n in wanted:
            out[n] = Fraction(sum(c * c for c in row), fact * fact)
        row = [n * c + b for c, b in zip(row + [0], [0] + row)]
        fact *= n + 1
    return out


def test_quadrature_error_estimate_is_a_bound():
    # |p_quadrature - p_exact| <= abs_error_estimate, the gap taken in
    # exact arithmetic, for both identity integrands at three tolerances.
    wanted = set(range(1, 601)) | set(range(650, 1501, 50))
    exact = _exact_p_values(wanted)
    misses = []
    for n in sorted(wanted):
        for kind in (IntegrandKind.EXACT_PRODUCT, IntegrandKind.GAMMA_RATIO):
            for rel_tol in (1e-10, 1e-12, 1e-13):
                res = p_quadrature_result(n, kind, QuadratureConfig(rel_tol=rel_tol))
                if abs(Fraction(res.value) - exact[n]) > Fraction(res.abs_error_estimate):
                    misses.append((n, kind.value, rel_tol))
    assert misses == []


def _strip_abs(n, delta, theta):
    # |f_K| at a complex angle: the kernel exp(2 log n (cos theta - 1)) /
    # (Gamma(e^{i theta}) Gamma(e^{-i theta})) times the kept d_k factor.
    exponent = 2 * mpmath.log(n) * (mpmath.cos(theta) - 1)
    exponent += mpmath.fsum(d * (mpmath.cos(k * theta) - 1) for k, d in enumerate(delta, 1))
    z = mpmath.expj(theta)
    return abs(mpmath.exp(exponent) * mpmath.rgamma(z) * mpmath.rgamma(1 / z))


def test_strip_term_bounds_the_integrand_on_its_strip():
    # Trefethen & Weideman's bound needs M(a) >= |f_K| on |Im theta| <= a,
    # where |f_K| peaks on the edge Im theta = a (f_K is even and real on
    # the real line).  The estimate must be at least the bound with the
    # largest |f_K| found on 33 points of that edge; the strip's M(a) is
    # 28.8 times that at n = 1e100 and rel_tol 1e-2, and up to 1.4e5 at 2.
    with mpmath.workdps(20):
        for n in (2, 10, 10**6, 10**20, 10**100):
            for rel_tol in (1e-2, 1e-10):
                config = QuadratureConfig(rel_tol=rel_tol)
                delta = analytic._series_coeffs(n)
                routes = [(I_n(n, config), 2.0, ())]
                for kind in (None, IntegrandKind.EXACT_PRODUCT)[: 2 if n <= 10**6 else 1]:
                    routes.append((p_quadrature_result(n, kind, config), 1 / math.pi, delta))
                for res, scale, d in routes:
                    intervals, half_inv_a, _ = analytic._strip_choice(n, 2 * math.log(n), config, d)
                    assert res.evaluations == intervals + 1
                    a = 0.5 / half_inv_a
                    edge = max(_strip_abs(n, d, mpmath.mpc(math.pi * j / 32, a)) for j in range(33))
                    bound = 2 * math.pi * float(edge) / math.expm1(2 * a * intervals)
                    assert res.abs_error_estimate / scale >= bound, (n, rel_tol, scale)


@pytest.mark.parametrize("n", [3, 20, 415, 2000, 10**4])
def test_identity_integrands_match_reference(n):
    # Both routes to |Gamma(z+n) / (Gamma(z) n!)|^2, z = e^{i theta}, to
    # 1e-13 relative away from the zero at theta = pi.
    thetas = np.linspace(0.0, 2 * math.pi, 41)
    thetas = thetas[np.abs(thetas - math.pi) >= 0.1]
    want = []
    for t in thetas:
        z = mpmath.expj(mpmath.mpf(float(t)))
        log_value = mpmath.loggamma(z + n) - mpmath.loggamma(z) - mpmath.loggamma(n + 1)
        want.append(float(abs(mpmath.exp(log_value)) ** 2))
    want = np.array(want)
    for kind in (IntegrandKind.EXACT_PRODUCT, IntegrandKind.GAMMA_RATIO):
        got = integrand(kind, n, thetas)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13, kind


@pytest.mark.parametrize("n", [2, 9, 16, 101, 512])
def test_exact_product_trapezoid_is_exact_once_2N_reaches_n(n):
    # A trigonometric polynomial of degree n - 1: N intervals on [0, pi]
    # with 2N >= n integrate it exactly (discrete Parseval).
    intervals = -(-n // 2)
    y = integrand(IntegrandKind.EXACT_PRODUCT, n, np.linspace(0.0, math.pi, intervals + 1))
    mean = math.fsum((0.5 * y[0], *y[1:-1], 0.5 * y[-1])) / intervals
    assert mean == pytest.approx(p_exact(n).approx, rel=1e-14)
    if n <= 16:
        # The strip choice's N >= 8 is already exact: the first batch meets
        # the tolerance, on the N of GAMMA_RATIO at the same n.
        res = p_quadrature_result(n, IntegrandKind.EXACT_PRODUCT, TIGHT)
        choice = analytic._strip_choice(n, 2.0 * math.log(n), TIGHT, analytic._series_coeffs(n))
        assert res.evaluations == choice[0] + 1
        assert res.evaluations == p_quadrature_result(n, None, TIGHT).evaluations
        assert res.value == pytest.approx(p_exact(n).approx, rel=1e-14)


def test_gamma_ratio_n1_is_one_at_pi():
    # |Gamma(z+1) / Gamma(z)|^2 = |z|^2 = 1 on the whole circle.
    assert integrand(IntegrandKind.GAMMA_RATIO, 1, math.pi) == 1.0
    assert p_quadrature(1, IntegrandKind.GAMMA_RATIO) == 1.0


def test_p_of_1_is_exactly_one_without_an_integrand(monkeypatch):
    # Both identity integrands are the constant 1 at n = 1: p(1) = 1 with
    # error 0 and no node, even at a rel_tol below the rounding floor.
    def never(*args):
        raise AssertionError("an integrand was evaluated")

    for name in ("quadrature", "_kernel_quadrature", "_exact_product_values", "_f_k"):
        monkeypatch.setattr(analytic, name, never)
    for config in (TIGHT, QuadratureConfig(rel_tol=1e-16)):
        for kind in (None, IntegrandKind.GAMMA_RATIO, IntegrandKind.EXACT_PRODUCT):
            assert p_quadrature_result(1, kind, config) == QuadratureResult(1.0, 0.0, 0)


@pytest.mark.parametrize("n", [2**60, 10**20, 10**300, 2**1030])
def test_gamma_ratio_at_huge_n_matches_kernel_integral(n):
    # From n = 2^60 on the Gamma ratio is (z - 1) log n to double
    # resolution, so the identity integrand becomes the limit kernel.
    p = p_quadrature(n, IntegrandKind.GAMMA_RATIO)
    assert p == pytest.approx(I_n(n).value / (2 * math.pi), rel=1e-14)


def test_p_quadrature_rejects_limit_kernel():
    with pytest.raises(ValueError):
        p_quadrature(10, IntegrandKind.LIMIT_KERNEL)
    with pytest.raises(ValueError):
        p_quadrature(0)


# ------------------------------------------------- pinned quadrature bits

# (value.hex(), abs_error_estimate.hex(), evaluations) of p_quadrature_result
# (auto, which is GAMMA_RATIO) and of I_n.  Every entry comes from the
# strip-bound node count; from n = 2^60 on GAMMA_RATIO is the kernel.  The
# elementary functions come from the C library through `math`, so another
# libm may differ in the last bits; numpy does not enter these routes.
PINNED = [
    (1025, 1e-10,
     ("0x1.e098eeae61a1ep-4", "0x1.13f9bd344d932p-47", 33),
     ("0x1.7980f398d6fadp-1", "0x1.b06a722030f0dp-45", 33)),
    (10**6, 1e-10,
     ("0x1.44fe4740e374cp-4", "0x1.71df725f5203cp-43", 33),
     ("0x1.fe7f8eb46a438p-2", "0x1.227f1a135919ap-40", 33)),
    (2**60, 1e-10,
     ("0x1.6b91780704792p-5", "0x1.8065de28579e0p-51", 49),
     ("0x1.1d8bbb43aca2dp-2", "0x1.2de7c9afe2f79p-48", 49)),
    (10**100, 1e-10,
     ("0x1.31601728a73b5p-6", "0x1.4d5c3a73eed26p-42", 89),
     ("0x1.dfaeb73b02220p-4", "0x1.05d20f001cf33p-39", 89)),
    (2**1030, 1e-10,
     ("0x1.5a3d514010100p-7", "0x1.e7dcf506b9b4bp-46", 161),
     ("0x1.0fef96168e8b1p-4", "0x1.7f2ab2fbc559ap-43", 161)),
    (1025, 1e-12,
     ("0x1.e098eeae61a1ep-4", "0x1.13f9bd344d932p-47", 33),
     ("0x1.7980f398d6fadp-1", "0x1.b06a722030f0dp-45", 33)),
    (10**6, 1e-12,
     ("0x1.44fe4740e374bp-4", "0x1.45e0f1d18c434p-50", 41),
     ("0x1.fe7f8eb46a438p-2", "0x1.ffe39a5155dbap-48", 41)),
    (2**60, 1e-12,
     ("0x1.6b91780704792p-5", "0x1.8065de28579e0p-51", 49),
     ("0x1.1d8bbb43aca2dp-2", "0x1.2de7c9afe2f79p-48", 49)),
    (10**100, 1e-12,
     ("0x1.31601728a7394p-6", "0x1.97772a7c7cb02p-50", 97),
     ("0x1.dfaeb73b021ebp-4", "0x1.4005cc54c3f59p-47", 97)),
    (2**1030, 1e-12,
     ("0x1.5a3d5140100fep-7", "0x1.7d0915d7c22d7p-51", 169),
     ("0x1.0fef96168e8afp-4", "0x1.2b43bb19bd2dbp-48", 169)),
]


def _bits(r):
    return (r.value.hex(), r.abs_error_estimate.hex(), r.evaluations)


@pytest.mark.parametrize("n, rel_tol, want_p, want_i", PINNED)
def test_quadrature_bits_pinned(n, rel_tol, want_p, want_i):
    config = QuadratureConfig(rel_tol=rel_tol)
    analytic._cached_node_table.cache_clear()
    for _ in range(2):  # a cold cache, then a warm one
        assert _bits(p_quadrature_result(n, None, config)) == want_p
        assert _bits(p_quadrature_result(n, IntegrandKind.GAMMA_RATIO, config)) == want_p
        assert _bits(I_n(n, config)) == want_i


# sha256 over the _bits of the quadrature routes on a fixed grid: every
# route at n = 1..64 and at n = 1023..1026, ~100 log-spaced n to 1e300,
# both sides of n = 2^60, where GAMMA_RATIO becomes the kernel, and 2^1030;
# I_n also at non-integer n; EXACT_PRODUCT up to n = 2000.
#
# CIRCLE_DIGEST covers auto, GAMMA_RATIO and I_n, whose bits come from
# libm alone.  Under the one digest that covered every route before the
# split, their results moved three times: when GAMMA_RATIO kept only its
# first K(n) terms, with the d_1 term taken with the kernel's (GAMMA_RATIO
# values below 2^60 by at most 2 ulps, estimates by at most 2.2e-8
# relative at n = 3, no node count); when the circle batch moved from
# numpy to Python floats (values by at most 4.9e-16 relative, estimates by
# 3.9e-16, no node count); and when p(1) became the exact (1.0, 0.0, 0)
# and the tolerance rel_tol |value| alone.  They kept their bits when the
# product moved into the strip-certified batch, where the split was made.
CIRCLE_DIGEST = "f63115466c661eee6f2a44ee36f9c88d81506e86c9a2b6f1ea92733b2869e2a4"
# PRODUCT_DIGEST covers EXACT_PRODUCT, whose values go through numpy's
# log1p and exp, whose SIMD kernels are chosen at run time: a mismatch on
# another CPU may point to the hardware.  Re-pinned when the product left
# the halving ladder for the strip-certified batch (was 36221ca2...).
PRODUCT_DIGEST = "0614b5e695a19e62d396377546a5925ac826fcf04295261a72733e1303af8a57"

_DIGEST_NS = [*range(1, 65), 1023, 1024, 1025, 1026]
_DIGEST_NS += [int(10.0 ** (3 * k)) for k in range(1, 101)]
_DIGEST_NS += [2**60 - 1, 2**60 + 1, 2**1030]


def _digest(results_at):
    digest = hashlib.sha256()
    for rel_tol in (1e-10, 1e-12):
        config = QuadratureConfig(rel_tol=rel_tol)
        for n in _DIGEST_NS:
            for r in results_at(n, config):
                digest.update(repr(_bits(r)).encode())
    return digest.hexdigest()


def test_quadrature_digest_pinned():
    def circle(n, config):
        yield p_quadrature_result(n, None, config)
        yield p_quadrature_result(n, IntegrandKind.GAMMA_RATIO, config)
        if n >= 2:
            yield I_n(n, config)
        if 2 <= n <= 64:
            yield I_n(n + 0.5, config)

    assert _digest(circle) == CIRCLE_DIGEST


def test_product_digest_pinned():
    def product(n, config):
        if n <= 2000:
            yield p_quadrature_result(n, IntegrandKind.EXACT_PRODUCT, config)

    assert _digest(product) == PRODUCT_DIGEST


# sha256 over the float.hex of integrand(GAMMA_RATIO, n, theta) at every
# integer n of the grid and of integrand(LIMIT_KERNEL, n, theta) at every
# n > 1, each at 0, pi, 2 pi and pi j / 500, j = 1..999: both sides of
# n = 64, where d_k leaves the table for Euler-Maclaurin, of the steps of
# K(n) to 1 and 0 at 2^59 + 2 and 2^60, and n past the double range.  The
# per-angle path shares its formula with the batch, but not its angles;
# these bits come from libm alone.
INTEGRAND_DIGEST = "a754430a50795a47abec397a5f253a3477a332c6a8bf332976335ccfeaa1eb17"
_INTEGRAND_NS = [1, 2, 3, 10, 63, 64, 65, 1000, 10**6, 2**59, 2**59 + 2, 2**60 - 1, 2**60,
                 2**60 + 1, 10**100, 2**1030, 10**400, 1.5, 1e10 + 0.5, 1e300]


def test_integrand_digest_pinned():
    theta = np.array([0.0, math.pi, 2.0 * math.pi] + [math.pi * j / 500 for j in range(1, 1000)])
    digest = hashlib.sha256()
    for n in _INTEGRAND_NS:
        kinds = [IntegrandKind.GAMMA_RATIO] if n == int(n) else []
        kinds += [IntegrandKind.LIMIT_KERNEL] if n > 1 else []
        for kind in kinds:
            for value in integrand(kind, n, theta).tolist():
                digest.update(value.hex().encode())
    assert digest.hexdigest() == INTEGRAND_DIGEST


@pytest.mark.parametrize(
    "n", [2, 15, 16, 1000, 2**60 - 1, 2**60, 2**60 + 1, 10**300, 2**1030]
)
def test_integrand_matches_uncached_weight(n):
    # From n = 2^60 on the GAMMA_RATIO integrand is the kernel, bit for
    # bit.  Below, it is the kernel times exp(sum_k d_k (cos k theta - 1)),
    # here with d_k from mpmath.
    rng = np.random.default_rng(n % 1000)
    theta = np.concatenate([rng.uniform(0, 2 * math.pi, 37), np.linspace(0.0, math.pi, 9)])
    gamma = integrand(IntegrandKind.GAMMA_RATIO, n, theta)
    kernel = integrand(IntegrandKind.LIMIT_KERNEL, n, theta)
    if n >= 2**60:
        assert gamma.tobytes() == kernel.tobytes()
        return
    k = np.arange(1, 55)
    factor = np.exp(_mp_series_coeffs(n) @ (np.cos(np.multiply.outer(k, theta)) - 1.0))
    np.testing.assert_allclose(gamma, kernel * factor, rtol=1e-13, atol=0.0)


# ------------------------------------------------------ kernel routes

# The LIMIT_KERNEL integrand exp(2 (cos t - 1) log n) / |Gamma(e^{it})|^2 at
# t = 0.005 k, k = 1..40 (the doubles 0.005 * np.arange(1, 41)), 20
# significant digits.  Made with mpmath at 40 digits, at each double t
# exactly, as mpmath.exp(2 * (mpmath.cos(t) - 1) * mpmath.log(n)) *
# abs(mpmath.rgamma(mpmath.expj(t))) ** 2.
KERNEL_REFERENCE = {
    2**60: (
        "9.9898748713611557294e-1", "9.9595611950356747585e-1", "9.9092434709645378716e-1",
        "9.8392271119414022721e-1", "9.7499353442819872112e-1", "9.6419049308297168934e-1",
        "9.5157807769933365826e-1", "9.3723094959275351028e-1", "9.2123320229980796919e-1",
        "9.036775382075445909e-1", "8.8466437167682462073e-1", "8.6430087082730426477e-1",
        "8.4269995079568771828e-1", "8.19979231702498663e-1", "7.962599747626990209e-1",
        "7.7166600995346978785e-1", "7.4632266841426671782e-1", "7.2035573231000317844e-1",
        "6.9389041425192118526e-1", "6.6705037755986615463e-1", "6.3995680768472776113e-1",
        "6.1272754401361362779e-1", "5.8547628007755750397e-1", "5.5831183889811248454e-1",
        "5.3133752887151681789e-1", "5.0465058422368126668e-1", "4.7834169270186651415e-1",
        "4.5249461182428599451e-1", "4.2718587371001642858e-1", "4.0248457727950399052e-1",
        "3.7845226546917143338e-1", "3.5514288405799870259e-1", "3.3260281777243308098e-1",
        "3.1087099852849768177e-1", "2.8997907999339453391e-1", "2.6995167210708848806e-1",
        "2.5080662879824949425e-1", "2.3255538185672027872e-1", "2.1520331378202538812e-1",
        "1.9875016240777594297e-1",
    ),
    10**100: (
        "9.9428662582000849851e-1", "9.7734175302779671903e-1", "9.4974004446346311219e-1",
        "9.1240319541159519435e-1", "8.6654880515558275601e-1", "8.1362445839514145796e-1",
        "7.5523199282119131073e-1", "6.9304746672321843204e-1", "6.2874236516605428314e-1",
        "5.6391112107843078706e-1", "5.0000915618567670818e-1", "4.383044826096200675e-1",
        "3.7984458769747259645e-1", "3.254389945000368069e-1", "2.7565667720299418586e-1",
        "2.3083651663425458254e-1", "1.9110827198259680617e-1", "1.5642114857923756775e-1",
        "1.2657694896306108472e-1", "1.012649662940169627e-1", "8.0096155387281704192e-2",
        "6.2634626457638302678e-2", "4.8425078516626901586e-2", "3.701535901377372055e-2",
        "2.7973852557472323545e-2", "2.09018292273927304e-2", "1.5441203418855437277e-2",
        "1.1278363527077943797e-2", "8.1448391231504769328e-3", "5.8155917772261578344e-3",
        "4.1056689181389533422e-3", "2.8658687175238914449e-3", "1.9779480698644951349e-3",
        "1.3497821999086109032e-3", "9.107660637549444973e-4", "6.0764307144820841722e-4",
        "4.0086042684015971409e-4", "2.6148406084000131828e-4", "1.6865889816503479431e-4",
        "1.0756971519654661197e-4",
    ),
    2**1030: (
        "9.8233605931311443831e-1", "9.3119479152556233168e-1", "8.5180843139097842658e-1",
        "7.5190892553888028597e-1", "6.4048919235579174491e-1", "5.2648180672181493567e-1",
        "4.1762073129324269169e-1", "3.1967623977732450101e-1", "2.3614088573591302189e-1",
        "1.6833243987641513042e-1", "1.157987614844843217e-1", "7.6874716448871998746e-2",
        "4.9250550763507248243e-2", "3.0450289748502435771e-2", "1.816894654155345201e-2",
        "1.0462407602477012462e-2", "5.8143754397477998978e-3", "3.1185335064312928816e-3",
        "1.6142857436071473295e-3", "8.0649223668516166326e-4", "3.8888148650768110248e-4",
        "1.8098373234936295804e-4", "8.1297144061459860553e-5", "3.5247894561673956662e-5",
        "1.4751027185010382999e-5", "5.958706155335030463e-6", "2.3234434870244898071e-6",
        "8.7452633840854671273e-7", "3.1774951037943275172e-7", "1.1144974125588098245e-7",
        "3.773694697231637796e-8", "1.2335583770290742054e-8", "3.8928709564491310839e-9",
        "1.1860695380587059697e-9", "3.4889360473201277258e-10", "9.9090456096418536772e-11",
        "2.7173165695512595718e-11", "7.1950239972703182034e-12", "1.8395951040038483464e-12",
        "4.541768557038676749e-13",
    ),
}


@pytest.mark.parametrize("n", KERNEL_REFERENCE)
def test_kernel_values_match_reference(n):
    # Near t = 0, where the kernel's mass is, cos(t) - 1 computed as a
    # difference would carry an error of eps in the exponent 2 log n
    # (cos t - 1), i.e. eps 2 log n relative: 7.8e-14 at n = 2^1030.
    theta = 0.005 * np.arange(1, 41)
    want = np.array([float(v) for v in KERNEL_REFERENCE[n]])
    got = integrand(IntegrandKind.LIMIT_KERNEL, n, theta)
    assert np.max(np.abs(got / want - 1.0)) <= 32 * np.finfo(np.float64).eps


def _log_spaced_ints(lo_bits, hi_bits, count):
    # Integers 2^e for e evenly spaced over [lo_bits, hi_bits], also above
    # the double range.
    out = []
    for j in range(count):
        e = lo_bits + (hi_bits - lo_bits) * j / (count - 1)
        k = math.floor(e)
        out.append(max(2, round(2.0 ** (e - k) * 2**52) * 2**k // 2**52))
    return out


def _kernel_trapezoid(n, intervals, scale, kind=IntegrandKind.LIMIT_KERNEL):
    # The half-range rule on the public integrand, as scale * T_N.
    y = integrand(kind, n, np.linspace(0.0, math.pi, intervals + 1))
    return scale * ((math.pi / intervals) * math.fsum([0.5 * y[0], *y[1:-1], 0.5 * y[-1]]))


def test_kernel_error_estimate_bounds_a_finer_rule():
    # The strip bound plus the rounding floor covers |T_N - T_4N| at 200
    # log-spaced n for I_n (n in [2, 2^1030]) and for GAMMA_RATIO, which is
    # the kernel from n = 2^60 (n in [2^60, 2^1030]) and the kernel times
    # the Hurwitz-zeta series below (n in [2, 2^60)); T_N is the rule on
    # the public integrand, bit for bit.
    gamma = IntegrandKind.GAMMA_RATIO
    misses = []
    for rel_tol in (1e-10, 1e-12):
        config = QuadratureConfig(rel_tol=rel_tol)
        cases = [
            (n, I_n(n, config), 2.0, IntegrandKind.LIMIT_KERNEL)
            for n in _log_spaced_ints(1, 1030, 200)
        ]
        cases += [
            (n, p_quadrature_result(n, gamma, config), 1.0 / math.pi, gamma)
            for n in _log_spaced_ints(60, 1030, 200)
        ]
        cases += [
            (n, p_quadrature_result(n, gamma, config), 1.0 / math.pi, gamma)
            for n in _log_spaced_ints(1, 60, 201)[:-1]
        ]
        for n, res, scale, kind in cases:
            intervals = res.evaluations - 1
            assert intervals % 8 == 0
            assert res.value == _kernel_trapezoid(n, intervals, scale, kind), n
            assert res.abs_error_estimate <= rel_tol * res.value
            finer = _kernel_trapezoid(n, 4 * intervals, scale, kind)
            if abs(res.value - finer) > res.abs_error_estimate:
                misses.append((n, rel_tol))
    assert misses == []


# I(n) = integral_0^{2 pi} of the kernel, 30 digits: mpmath at 40 digits,
# mpmath.quad split at multiples of the kernel's width 1 / sqrt(2 log n),
# and agreeing to 1e-38 with a 1200-interval trapezoid rule.
KERNEL_INTEGRALS = {
    2: "4.25243391984000490698228714160",
    100: "0.950335588625627036685070787502",
    10**6: "0.498533468019164366809996713480",
    2**60: "0.278853345876231283935384894977",
    10**100: "0.117109981292862799525784596120",
    2**1030: "0.0663905966584106060418771268579",
}


@pytest.mark.parametrize("n", KERNEL_INTEGRALS)
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
def test_kernel_routes_match_reference_integrals(n, rel_tol):
    config = QuadratureConfig(rel_tol=rel_tol)
    want = mpmath.mpf(KERNEL_INTEGRALS[n])
    res = I_n(n, config)
    assert abs(res.value - want) <= res.abs_error_estimate
    if n >= 2**60:
        res = p_quadrature_result(n, IntegrandKind.GAMMA_RATIO, config)
        assert abs(res.value - want / (2 * mpmath.pi)) <= res.abs_error_estimate


def _brute_force_strip_choice(n, log_n2, config, delta):
    # The min over every strip width of the tuple (need, 1 / 2a, log M)
    # that the module docstring describes; the tuple order breaks ties
    # towards the wider a.
    guess = 0.5 * analytic.laplace_I(n)
    target = 0.5 * (config.rel_tol + analytic._FLOOR) * guess
    shift = math.log(2.0 / target)
    need, half_inv_a, log_m = min(
        (
            (shift + log_m0 + log_n2 * cosh_m1 + e) * half_inv_a,
            half_inv_a,
            log_m0 + log_n2 * cosh_m1 + e,
        )
        for half_inv_a, cosh_m1, log_m0, signed in analytic._strip_table()
        # The d_k term over the kept columns, rounded as the walk rounds it.
        for e in [math.fsum(map(operator.mul, signed, delta))]
    )
    intervals = min(max(8, 8 * math.ceil(need / 8)), analytic._MAX_NODES - 1)
    return intervals, half_inv_a, log_m


def test_strip_walk_equals_the_min_over_every_width():
    # need(a) falls to one minimum and rises, so the walk that stops at
    # the first rise picks what the min over all 16 widths picks: the same
    # N, a and log M, also at the loose rel_tol 1e-3.  Also checked: the
    # best a is one of the five widest at rel_tol 1e-10 and 1e-12, as the
    # _STRIP_WIDTHS comment states.
    ints = _log_spaced_ints(1, 1030, 400) + [2**60 - 1, 2**60, 2**60 + 1]
    reals = [2.0 ** (1 + 1020 * j / 99) * 1.37 for j in range(100)] + [n + 0.5 for n in range(2, 65)]
    loose = QuadratureConfig(rel_tol=1e-3)
    configs = [QuadratureConfig(rel_tol=1e-10), TIGHT, loose]
    fifth_widest = analytic._STRIP_WIDTHS[4]
    for config in configs:
        cases = [(n, ()) for n in ints + reals]
        cases += [(n, analytic._series_coeffs(n)) for n in ints + [*range(2, 64)] if n < 2**60]
        for n, delta in cases:
            log_n2 = 2.0 * math.log(n)
            got = analytic._strip_choice(n, log_n2, config, delta)
            assert got == _brute_force_strip_choice(n, log_n2, config, delta), (n, config)
            if config is not loose:
                assert 0.5 / got[1] >= fifth_widest


@pytest.mark.parametrize(
    "needs", [(40, 24, 24, 32), (40, 24, 24, 16), (24, 24, 24), (8, 16, 32), (64, 32, 16, 8)]
)
def test_strip_walk_breaks_ties_towards_the_wider_width(monkeypatch, needs):
    # With rel_tol = 64 eps = 2^-46 and a guess of 2^47 the target is
    # 2^-45 2^47 / 2 = 2 and the shift log(2 / target) is exactly 0, and
    # with log n^2 = 0 each need is log_m0 / 2a: exact here, so ties are
    # real.
    config = QuadratureConfig(rel_tol=2.0**-46)
    rows = tuple((2.0**k, 0.0, need / 2.0**k, ()) for k, need in enumerate(needs))
    monkeypatch.setattr(analytic, "_strip_table", lambda: rows)
    monkeypatch.setattr(analytic, "laplace_I", lambda n: 2.0**48)
    got = analytic._strip_choice(2, 0.0, config, ())
    assert got == _brute_force_strip_choice(2, 0.0, config, ())
    assert got[1] == rows[needs.index(min(needs))][0]


def test_kernel_node_count_doubles_until_the_bound_holds(monkeypatch):
    # A guess of the integral far above it picks too few intervals; the
    # rule then doubles them, running the whole batch on each doubled
    # table, until the estimate meets the computed value's tolerance.
    # The result has the bits of one batch on the final table: the same
    # strip width with N set to the final N from the start.
    cases = [(route, n) for route in (I_n, p_quadrature_result) for n in (10**3, 10**6, 10**300)]
    wants = [route(n, config=TIGHT) for route, n in cases]
    monkeypatch.setattr(analytic, "laplace_I", lambda n: 1e6)
    seen = []
    real_table, real_choice = analytic._node_table, analytic._strip_choice
    monkeypatch.setattr(analytic, "_node_table", lambda m: seen.append(m) or real_table(m))
    for (route, n), want in zip(cases, wants):
        seen.clear()
        res = route(n, config=TIGHT)
        assert len(seen) >= 2 and seen == [seen[0] * 2**k for k in range(len(seen))]
        assert res.evaluations == seen[-1] + 1
        assert res.abs_error_estimate <= TIGHT.rel_tol * res.value
        assert abs(res.value - want.value) <= res.abs_error_estimate + want.abs_error_estimate
        final = seen[-1]
        seen.clear()
        with monkeypatch.context() as one_batch:
            one_batch.setattr(
                analytic, "_strip_choice", lambda *args: (final, *real_choice(*args)[1:])
            )
            assert _bits(route(n, config=TIGHT)) == _bits(res), (route, n)
        assert seen == [final]


def _nodes(intervals):
    # The N + 1 nodes pi j / N of the rule on [0, pi].
    return np.linspace(0.0, math.pi, intervals + 1)


# The first n with a node past the head: 1 - cos(pi) = 2 reaches
# C / 2 log n at log n = C / 4 (n ~ 1.07e13), below 2^60, so GAMMA_RATIO
# batches skip nodes too.  Around _HEAD_EDGE the nodes past the head turn
# into exact zeros: exp underflows at theta = pi from log n = 186.28 on.
_CUT_EDGE = math.exp(analytic._HEAD_CUT / 4)
_HEAD_EDGE = math.exp(186.5)


@pytest.mark.parametrize("doubling", [False, True])
def test_kernel_batch_skips_only_negligible_nodes_and_keeps_the_bits(monkeypatch, doubling):
    # Every node a batch leaves out of its head is at most
    # e^(L_w - log 2 pi - C) in the public integrand, L_w the part of
    # log(2 pi M(a)) without the kernel's growth at the chosen strip width
    # a, and the batch gives the bits of the same batches over every node
    # (C = inf), which leave no node out.  With `doubling` the guess of the integral is far too
    # high, so every route runs doubling batches
    # (test_kernel_node_count_doubles_...).
    ints = _log_spaced_ints(1, 1030, 300)
    ints += [int(_HEAD_EDGE * 2.0**k) for k in (-1.0, -0.3, -1e-3, 1e-3, 0.3, 1.0)]
    ints += [int(_CUT_EDGE * 2.0**k) for k in (-1.0, -0.3, -1e-3, 1e-3, 0.3, 1.0)]
    ints += [int(_CUT_EDGE) + k for k in (-1, 0, 1, 2)]
    reals = [2.0 ** (1 + 1020 * j / 99) * 1.37 for j in range(100)]
    reals += [math.exp(186.2), math.exp(186.4)]
    reals += [math.nextafter(_HEAD_EDGE, 0.0), _HEAD_EDGE, math.nextafter(_HEAD_EDGE, math.inf)]
    reals += [math.exp(29.9), math.exp(30.1)]
    reals += [math.nextafter(_CUT_EDGE, 0.0), _CUT_EDGE, math.nextafter(_CUT_EDGE, math.inf)]
    if doubling:
        monkeypatch.setattr(analytic, "laplace_I", lambda n: 1e6)
    # (N, nodes left out) of every batch: the nodes of the table on N
    # intervals past the head, where -(cos theta - 1) 2 log n > C.
    batches = []
    real_batch = analytic._batch_sum

    def batch(psi2, delta, table, log_n2):
        intervals = (len(table[0]) - 1) // 54
        limit = analytic._HEAD_CUT / log_n2
        batches.append((intervals, sum(-c > limit for c in table[0][: intervals + 1])))
        return real_batch(psi2, delta, table, log_n2)

    monkeypatch.setattr(analytic, "_batch_sum", batch)
    gamma, kernel = IntegrandKind.GAMMA_RATIO, IntegrandKind.LIMIT_KERNEL
    cases = [(n, kernel, I_n) for n in ints + reals]
    cases += [(n, gamma, p_quadrature_result) for n in ints]
    skipped = 0
    for rel_tol in (1e-10, 1e-12):
        config = QuadratureConfig(rel_tol=rel_tol)
        for n, kind, route in cases:
            batches.clear()
            res = route(n, config=config)
            assert len(batches) >= 1 + doubling, n
            delta = analytic._series_coeffs(n) if kind is gamma else ()
            half_inv_a = analytic._strip_choice(n, 2.0 * math.log(n), config, delta)[1]
            _, _, log_m0, signed = next(r for r in analytic._strip_table() if r[0] == half_inv_a)
            log_w = log_m0 + math.fsum(map(operator.mul, signed, delta))
            past_max = math.exp(log_w - math.log(2.0 * math.pi) - analytic._HEAD_CUT)
            for intervals, left_out in batches:
                nodes = _nodes(intervals)
                past = integrand(kind, n, nodes[nodes.size - left_out :])
                assert (past <= past_max).all(), (n, intervals)
                skipped += left_out
            batches.clear()
            with monkeypatch.context() as every_node:
                every_node.setattr(analytic, "_HEAD_CUT", math.inf)
                want = route(n, config=config)
            assert [left_out for _, left_out in batches] == [0] * len(batches)
            assert _bits(res) == _bits(want), (n, rel_tol)
    assert skipped > 0


def test_head_cut_is_deep_enough_to_keep_the_bits():
    # At every strip width, for the kernel and for GAMMA_RATIO at n = 2,
    # where every |d_k| is largest, 2^16 + 1 nodes of e^(L_w - log 2 pi - C)
    # each stay below 2^-101.  The sum is at least f(0) / 2 = 1/2, so h
    # times that is below half an ulp of the floor 64 eps h sum f: adding
    # it never moves the estimate, and the mass left out is below 2^-100
    # of the sum.
    rows = analytic._strip_table()
    delta = analytic._series_coeffs(2)
    log_ws = [log_m0 for _, _, log_m0, _ in rows]
    log_ws += [log_m0 + math.fsum(map(operator.mul, signed, delta)) for _, _, log_m0, signed in rows]
    assert len(log_ws) == 2 * len(analytic._STRIP_WIDTHS)
    for log_w in log_ws:
        past_max = math.exp(log_w - math.log(2.0 * math.pi) - analytic._HEAD_CUT)
        assert analytic._MAX_NODES * past_max < 2.0**-101, log_w


def test_results_are_python_scalars_on_every_route():
    # value and abs_error_estimate are float and evaluations int, also
    # where a batch leaves nodes out of its head (n past 1.07e13).
    def check(res):
        assert type(res.value) is float and type(res.abs_error_estimate) is float, res
        assert type(res.evaluations) is int, res

    for n in (10**6, 10**6 + 0.5, 2**1030):
        check(I_n(n))
    for n in (1, 10**6, 2**70, 2**1030):
        check(p_quadrature_result(n))
    check(p_quadrature_result(100, IntegrandKind.EXACT_PRODUCT))
    unreachable = QuadratureConfig(rel_tol=1e-16)
    routes = [
        lambda: I_n(2**1030, unreachable),
        lambda: p_quadrature_result(10**6, None, unreachable),
        lambda: p_quadrature_result(100, IntegrandKind.EXACT_PRODUCT, unreachable),
    ]
    for route in routes:
        with pytest.raises(QuadratureConvergenceError) as exc_info:
            route()
        check(exc_info.value.best)
        assert type(exc_info.value.tolerance) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("doubling", [False, True])
def test_kernel_batch_rejects_a_value_that_is_not_finite(monkeypatch, bad, doubling):
    # A weight that is not finite at the first node after theta = 0, which
    # is in every head: the first batch, or with `doubling` the first
    # doubling batch, meets it and raises before any sum is used.
    real_table = analytic._node_table
    tables = []

    def table(intervals):
        cos_m1, cosines, nodes = real_table(intervals)
        tables.append(intervals)
        if doubling and len(tables) == 1:
            return cos_m1, cosines, nodes
        nodes = [(cos_m1[j], analytic._node_weight(cosines, j)) for j in range(intervals + 1)]
        nodes[1] = (cos_m1[1], bad)
        return cos_m1, cosines, nodes

    monkeypatch.setattr(analytic, "_node_table", table)
    if doubling:
        monkeypatch.setattr(analytic, "laplace_I", lambda n: 1e6)
    routes = [
        lambda: I_n(10**6, TIGHT),
        lambda: I_n(10**300 + 0.5, TIGHT),
        lambda: p_quadrature_result(10**6, None, TIGHT),
        lambda: p_quadrature_result(2**1030, None, TIGHT),
    ]
    for route in routes:
        tables.clear()
        with pytest.raises(ValueError, match="not finite"):
            route()
        assert len(tables) == 1 + doubling


def test_kernel_estimate_holds_the_rounding_floor():
    # Every circle value is h times a sum of values >= 0, so the floor
    # 64 eps h sum|f| is 64 eps times the value: no estimate is below it.
    for rel_tol in (1e-10, 1e-12):
        config = QuadratureConfig(rel_tol=rel_tol)
        for n in _log_spaced_ints(1, 1030, 400):
            for res in (I_n(n, config), p_quadrature_result(n, None, config)):
                assert res.value > 0.0, n
                assert res.abs_error_estimate >= analytic._FLOOR * res.value, (n, rel_tol)


def test_kernel_table_rejects_a_weight_that_is_not_finite(monkeypatch):
    # A node's weight is computed when a batch's head first reaches it, and
    # one that is not finite raises before the batch stores any: a cached
    # table never holds one, and serves the next batch.
    real_weight = analytic._node_weight
    monkeypatch.setattr(
        analytic, "_node_weight", lambda cosines, j: math.nan if j == 4 else real_weight(cosines, j)
    )
    analytic._cached_node_table.cache_clear()
    for intervals in (8, analytic._TABLE_MAX_INTERVALS + 8):
        table = analytic._node_table(intervals)
        # log n^2 = 1: every node is in the head.
        with pytest.raises(ValueError, match="not finite"):
            analytic._batch_sum(1.0, (), table, 1.0)
        assert table[2] == []
    assert analytic._cached_node_table.cache_info().currsize == 1
    monkeypatch.undo()
    table = analytic._node_table(8)
    assert math.isfinite(analytic._batch_sum(1.0, (), table, 1.0)) and len(table[2]) == 9


def test_kernel_convergence_errors_carry_the_best_estimate(monkeypatch):
    # rel_tol below the rounding floor fails at the first batch ...
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        I_n(100, QuadratureConfig(rel_tol=1e-16))
    best = exc_info.value.best
    assert best.value == pytest.approx(float(KERNEL_INTEGRALS[100]), rel=1e-14)
    assert best.abs_error_estimate > exc_info.value.tolerance
    # ... and so does a doubling that the node cap stops: a guess of the
    # integral far above it picks too few intervals first.
    monkeypatch.setattr(analytic, "_MAX_NODES", 65)
    monkeypatch.setattr(analytic, "laplace_I", lambda n: 1e6)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        p_quadrature_result(10**70, IntegrandKind.GAMMA_RATIO, TIGHT)
    assert exc_info.value.best.evaluations == 65


# At rel_tol 1e-10 the strip bound certifies every log2 n up to this one
# with at most 2^16 intervals, the node cap; found by bisection over
# _strip_choice.
_LARGEST_CERTIFIED_LOG2_N = 40_389_896


@pytest.mark.parametrize("route", [I_n, p_quadrature_result])
def test_circle_routes_refuse_an_n_past_the_node_cap_before_any_batch(monkeypatch, route):
    # 2^(4e7) takes one batch just under the cap.  Just past the largest
    # certified n, and at 2^(1e8), where the strip term's exp overflowed
    # after a 0.1 s batch, the route raises one ValueError before it builds
    # a table, naming a log2 n up to which every n is certified: the
    # largest one just past it, and within 0.1% of it far past.
    res = route(1 << 4 * 10**7)
    assert res.evaluations == 64_953
    assert res.abs_error_estimate <= 1e-10 * res.value
    top = _LARGEST_CERTIFIED_LOG2_N
    n = 1 << top
    assert analytic._strip_choice(n, 2.0 * math.log(n), analytic.DEFAULT_CONFIG, ())[0] == 2**16

    def never(intervals):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(analytic, "_node_table", never)
    with pytest.raises(ValueError, match=rf"needs 65544 intervals .* every n up to 2\*\*{top}$"):
        route(1 << top + 1)
    far = r"^n = 2\*\*1e\+08 needs .* every n up to 2\*\*\d+$"
    with pytest.raises(ValueError, match=far) as info:
        route(1 << 10**8)
    named = int(info.value.args[0].rsplit("**", 1)[1])
    assert 0.999 * top < named <= top


# The cache's worst case, as the analytic docstring and the README state
# it: the 32 tables of N = 8, 16, ..., 256 intervals, each two tuples of
# 54 N + 1 slots (8 bytes a slot, 40 a tuple), 3 (N + 1) floats of 24
# bytes (the values at m = 0..N of both tuples, and the weights), N + 1
# pairs (cos theta - 1, weight) of 56 bytes, and their list (56 bytes,
# and at most 9 (N + 1) / 8 + 6 slots of 8 bytes, as appends
# over-allocate): 1001 N + 337 bytes a table.
_TABLE_CACHE_MAX_BYTES = sum(1001 * n + 337 for n in range(8, 257, 8))


def _table_bytes(table):
    # The bytes of a table's tuples, list, pairs and distinct floats.
    parts = {id(x): x for part in table for x in part}
    parts.update({id(x): x for pair in table[2] for x in pair})
    return sum(map(sys.getsizeof, table)) + sum(map(sys.getsizeof, parts.values()))


def test_kernel_table_cache_stays_bounded():
    assert _TABLE_CACHE_MAX_BYTES <= 4.3e6
    cached = analytic._cached_node_table
    cached.cache_clear()
    sizes = range(8, analytic._TABLE_MAX_INTERVALS + 1, 8)
    weight = 0
    for intervals in sizes:
        table = analytic._node_table(intervals)
        cos_m1, cosines, nodes = table
        assert len(cos_m1) == len(cosines) == 54 * intervals + 1
        for part in (cos_m1, cosines):
            with pytest.raises(TypeError):
                part[0] = 1.0
        # log n^2 = 1: every node is in the head, so every weight is built.
        analytic._batch_sum(1.0, None, table, 1.0)
        assert [c for c, _ in nodes] == list(cos_m1[: intervals + 1])
        weight += _table_bytes(table)
    info = cached.cache_info()
    assert info.currsize == info.maxsize == analytic._TABLE_ENTRIES == len(sizes)
    big = analytic._TABLE_MAX_INTERVALS + 8
    assert len(analytic._node_table(big)[0]) == 54 * big + 1
    assert cached.cache_info() == info  # neither looked up nor stored
    for intervals in sizes:
        analytic._node_table(intervals)
    assert cached.cache_info().currsize == analytic._TABLE_ENTRIES
    assert cached.cache_info().misses == info.misses  # every table was cached
    assert weight <= _TABLE_CACHE_MAX_BYTES


def test_threads_share_the_node_tables():
    # Four threads start batches together on empty tables, which they
    # extend at once, with heads of different lengths (n past 1.07e13
    # leaves nodes out): every result keeps its serial bits, and every
    # table its nodes in order.
    ns = [2**44, 2**46, 2**50, 2**56, 2**58, 10**6, 2**40, 3]
    routes = (I_n, p_quadrature_result)
    want = [_bits(route(n)) for n in ns for route in routes]
    barrier = threading.Barrier(4)

    def run(shift):
        barrier.wait(timeout=60)
        return [_bits(route(n)) for n in ns[shift:] + ns[:shift] for route in routes]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(40):
                analytic._cached_node_table.cache_clear()
                futures = [pool.submit(run, shift) for shift in range(4)]
                for shift, future in enumerate(futures):
                    got = future.result(timeout=120)
                    assert got == want[2 * shift :] + want[: 2 * shift]
                for intervals in range(8, analytic._TABLE_MAX_INTERVALS + 1, 8):
                    cos_m1, _, nodes = analytic._node_table(intervals)
                    assert [c for c, _ in nodes] == list(cos_m1[: len(nodes)])
    finally:
        sys.setswitchinterval(switch)


# ------------------------------------------------------------- I_n

def test_I_n_symmetry_half_vs_full_range():
    # The full-circle rule on 256 nodes of [0, 2 pi), summed here, against
    # the half-circle batch doubled.
    n = 50.0
    thetas = [2 * math.pi * j / 256 for j in range(256)]
    full = 2 * math.pi / 256 * math.fsum(integrand(IntegrandKind.LIMIT_KERNEL, n, thetas))
    half_doubled = I_n(n, TIGHT)
    assert half_doubled.value == pytest.approx(full, rel=1e-10)


def test_I_n_approaches_laplace():
    gaps = []
    for n in (10**2, 10**4, 10**6):
        gaps.append(abs(I_n(n, TIGHT).value / laplace_I(n) - 1.0))
        assert gaps[-1] <= 1.5 / math.log(n)
    assert gaps[0] > gaps[1] > gaps[2]


def test_I_n_domain():
    for bad in (1.5, Fraction(3, 2)):
        with pytest.raises(ValueError, match="n must be finite and >= 2"):
            I_n(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_circle_routes_reject_non_finite_n(bad):
    # A float infinity or NaN is the contract's ValueError, not the
    # OverflowError or numpy message of converting it to an int; an int
    # above the double range is still a valid n.
    with pytest.raises(ValueError, match="n must be"):
        I_n(bad)
    with pytest.raises(ValueError, match="n must be"):
        p_quadrature_result(bad)
    for kind in IntegrandKind:
        with pytest.raises(ValueError, match="n must be"):
            integrand(kind, bad, 0.5)
    assert I_n(2**1030).value > 0
    assert p_quadrature_result(2**1030).value > 0


# ------------------------------------------------- closed-form pieces

def test_laplace_values():
    assert laplace_I(math.e) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert laplace_I(math.e**4) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
    # sqrt(pi / log 100), frozen from a 40-digit evaluation
    assert laplace_I(100.0) == pytest.approx(0.8259468366189925, rel=1e-14)
    assert laplace_I(100.0) == pytest.approx(
        float(mpmath.sqrt(mpmath.pi / mpmath.log(100))), rel=1e-14
    )


def test_p_asymptotic_values():
    assert p_asymptotic(math.e) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-15
    )
    assert abs(p_asymptotic(math.e) - 0.2820947917738781) <= 1e-15
    # 1 / (2 sqrt(pi log 10)), frozen from a 40-digit evaluation
    assert p_asymptotic(10.0) == pytest.approx(0.18590335332160672, rel=1e-14)
    assert p_asymptotic(10.0) == pytest.approx(
        float(1 / (2 * mpmath.sqrt(mpmath.pi * mpmath.log(10)))), rel=1e-14
    )


@given(st.floats(min_value=1.0 + 1e-9, max_value=1e12))
def test_asymptotic_is_scaled_laplace(n):
    assert abs(p_asymptotic(n) * 2.0 * math.pi - laplace_I(n)) <= 1e-15 * laplace_I(n)


# inf used to give 0.0, which is not a probability.
@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -3.0, 1, math.inf, -math.inf, math.nan])
def test_asymptotic_domain(bad):
    with pytest.raises(ValueError, match="finite and > 1"):
        laplace_I(bad)
    with pytest.raises(ValueError, match="finite and > 1"):
        p_asymptotic(bad)


def test_asymptotic_takes_huge_int_n():
    # The quadrature oracle calls both at integer n up to 2^1030, above
    # the largest double.
    assert p_asymptotic(2**1030) == 0.010557564056247457
    assert laplace_I(2**1030) == 0.06633513135782133
