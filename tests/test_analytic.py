import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecollide import (
    EXACT_PRODUCT_AUTO_MAX,
    I_n,
    IntegrandKind,
    QuadratureConfig,
    harmonic,
    integrand,
    laplace_I,
    p_asymptotic,
    p_exact,
    p_quadrature,
    p_quadrature_result,
    quadrature,
    recip_gamma_abs_sq,
)
from cyclecollide import analytic
from cyclecollide.gammafn import _circle_weight, log_gamma_ratio

mpmath.mp.dps = 40

TIGHT = QuadratureConfig(rel_tol=1e-12)


# ----------------------------------------------------------- harmonic

def test_harmonic_small():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(11.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize("m", [10, 999, 10**6, 10**6 + 7, 10**9])
def test_harmonic_vs_reference(m):
    want = float(mpmath.harmonic(m))
    assert harmonic(m) == pytest.approx(want, rel=1e-13)


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


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
    # just above the hand-off the Gamma route takes over; both sides agree
    # with exact arithmetic
    n = EXACT_PRODUCT_AUTO_MAX + 1
    assert p_quadrature(n) == pytest.approx(p_exact(n).approx, rel=1e-9)


def test_p_quadrature_result_fields():
    res = p_quadrature_result(10, IntegrandKind.EXACT_PRODUCT)
    assert res.value == pytest.approx(p_exact(10).approx, rel=1e-9)
    assert res.abs_error_estimate >= 0
    nodes = res.evaluations - 1  # 2^k intervals, endpoints included
    assert nodes >= 16 and nodes & (nodes - 1) == 0


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
    # exact arithmetic, for both identity integrands at both tolerances.
    wanted = set(range(1, 601)) | set(range(650, 1501, 50))
    exact = _exact_p_values(wanted)
    misses = []
    for n in sorted(wanted):
        for kind in (IntegrandKind.EXACT_PRODUCT, IntegrandKind.GAMMA_RATIO):
            for rel_tol in (1e-10, 1e-12):
                res = p_quadrature_result(n, kind, QuadratureConfig(rel_tol=rel_tol))
                if abs(Fraction(res.value) - exact[n]) > Fraction(res.abs_error_estimate):
                    misses.append((n, kind.value, rel_tol))
    assert misses == []


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
    if n <= 16:  # 8 intervals already exact: converged at the first estimate
        res = p_quadrature_result(n, IntegrandKind.EXACT_PRODUCT, TIGHT)
        assert res.evaluations == 17


def test_gamma_ratio_n1_is_one_at_pi():
    # |Gamma(z+1) / Gamma(z)|^2 = |z|^2 = 1 on the whole circle.
    assert integrand(IntegrandKind.GAMMA_RATIO, 1, math.pi) == 1.0
    assert p_quadrature(1, IntegrandKind.GAMMA_RATIO) == 1.0


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


# ------------------------------------------------------ node tables

# (value.hex(), abs_error_estimate.hex(), evaluations) of p_quadrature_result
# (auto, which is GAMMA_RATIO above the hand-off) and of I_n, as computed
# before the n-independent node tables were cached.  The elementary
# functions come from numpy, so another numpy build or CPU may differ in
# the last bits.
PINNED = [
    (1025, 1e-10,
     ("0x1.e098eeae61a1fp-4", "0x1.f4f81f1c2b6a7p-50", 33),
     ("0x1.7980f398d6facp-1", "0x1.8d80f398d6facp-47", 33)),
    (10**6, 1e-10,
     ("0x1.44fe4740e374cp-4", "0x1.44fe4740e374cp-50", 65),
     ("0x1.fe7f8eb46a438p-2", "0x1.fe7f8eb46a43ap-48", 65)),
    (2**60, 1e-10,
     ("0x1.6b9178070479cp-5", "0x1.580525bb85ad3p-39", 65),
     ("0x1.1d8bbb43aca35p-2", "0x1.0e3158bbb43adp-36", 65)),
    (10**100, 1e-10,
     ("0x1.31601728a739cp-6", "0x1.9edfbb76c3cf8p-52", 257),
     ("0x1.dfaeb73b021f8p-4", "0x1.45d75b9d810fcp-49", 257)),
    (2**1030, 1e-10,
     ("0x1.5a3d51401009ep-7", "0x1.764aa6dc30a10p-52", 513),
     ("0x1.0fef96168e864p-4", "0x1.25f7cb0b47432p-49", 513)),
    (1025, 1e-12,
     ("0x1.e098eeae61a1fp-4", "0x1.f4f81f1c2b6a7p-50", 33),
     ("0x1.7980f398d6facp-1", "0x1.8d80f398d6facp-47", 33)),
    (10**6, 1e-12,
     ("0x1.44fe4740e374cp-4", "0x1.44fe4740e374cp-50", 65),
     ("0x1.fe7f8eb46a438p-2", "0x1.fe7f8eb46a43ap-48", 65)),
    (2**60, 1e-12,
     ("0x1.6b91780704799p-5", "0x1.7ad8dc595bcffp-51", 129),
     ("0x1.1d8bbb43aca32p-2", "0x1.298bbb43aca32p-48", 129)),
    (10**100, 1e-12,
     ("0x1.31601728a739cp-6", "0x1.9edfbb76c3cf8p-52", 257),
     ("0x1.dfaeb73b021f8p-4", "0x1.45d75b9d810fcp-49", 257)),
    (2**1030, 1e-12,
     ("0x1.5a3d51401009ep-7", "0x1.764aa6dc30a10p-52", 513),
     ("0x1.0fef96168e864p-4", "0x1.25f7cb0b47432p-49", 513)),
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


# sha256 over the _bits of every quadrature route on a fixed grid: every
# route at n = 1..64 and across the n = 1024 hand-off, ~100 log-spaced n to
# 1e300, both sides of the n = 2^60 switch to (z - 1) log n, and 2^1030;
# I_n also at non-integer n.  Measured before the trapezoid driver's
# per-batch trim and the kernel form of GAMMA_RATIO from n = 2^60, both of
# which must leave every bit in place.
QUADRATURE_DIGEST = "03a3dab894350e00070b1362fa5972b6f181421a78a83e0f832e7207b8d5c5ce"


def test_quadrature_digest_pinned():
    ns = [*range(1, 65), 1023, 1024, 1025, 1026]
    ns += [int(10.0 ** (3 * k)) for k in range(1, 101)]
    ns += [2**60 - 1, 2**60 + 1, 2**1030]
    digest = hashlib.sha256()
    for rel_tol in (1e-10, 1e-12):
        config = QuadratureConfig(rel_tol=rel_tol)
        for n in ns:
            results = [
                p_quadrature_result(n, None, config),
                p_quadrature_result(n, IntegrandKind.GAMMA_RATIO, config),
            ]
            if n <= 2000:
                results.append(p_quadrature_result(n, IntegrandKind.EXACT_PRODUCT, config))
            if n >= 2:
                results.append(I_n(n, config))
            if 2 <= n <= 64:
                results.append(I_n(n + 0.5, config))
            for r in results:
                digest.update(repr(_bits(r)).encode())
    assert digest.hexdigest() == QUADRATURE_DIGEST


def test_node_table_is_read_only():
    for array in analytic._node_table(np.linspace(0.0, math.pi, 9)):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_node_table_cache_stays_bounded():
    cached = analytic._cached_node_table
    cached.cache_clear()
    rng = np.random.default_rng(3)
    for size in range(1, 3 * analytic._NODE_TABLE_ENTRIES):
        integrand(IntegrandKind.LIMIT_KERNEL, 10.0, rng.uniform(0, math.pi, size))
    info = cached.cache_info()
    assert info.currsize == analytic._NODE_TABLE_ENTRIES
    big = rng.uniform(0, math.pi, analytic._NODE_TABLE_MAX_NODES + 1)
    integrand(IntegrandKind.GAMMA_RATIO, 10, big)
    assert cached.cache_info() == info  # neither looked up nor stored


@pytest.mark.parametrize(
    "n", [2, 15, 16, 1000, 2**60 - 1, 2**60, 2**60 + 1, 10**300, 2**1030]
)
def test_integrand_matches_uncached_weight(n, monkeypatch):
    # The cached node table must give exactly the bits of the direct path.
    # From n = 2^60 on the Gamma-ratio integrand is evaluated as the
    # kernel, and must still give the bits of the Gamma-ratio formula.
    ratio_calls = []

    def counted_log_gamma_ratio(m, z):
        ratio_calls.append(m)
        return log_gamma_ratio(m, z)

    monkeypatch.setattr(analytic, "log_gamma_ratio", counted_log_gamma_ratio)
    rng = np.random.default_rng(n % 1000)
    for theta in (
        rng.uniform(0, 2 * math.pi, 37),
        np.linspace(0.0, math.pi, 9),
        rng.uniform(0, math.pi, analytic._NODE_TABLE_MAX_NODES + 1),
    ):
        z = np.cos(theta) + 1j * np.sin(theta)
        gamma = _circle_weight(z) * np.exp(2.0 * np.real(log_gamma_ratio(n, z)))
        kernel = np.exp(2.0 * (np.cos(theta) - 1.0) * math.log(n)) * recip_gamma_abs_sq(theta)
        if n >= 2**60:
            assert gamma.tobytes() == kernel.tobytes()
        for _ in range(2):  # a miss, then a hit
            assert integrand(IntegrandKind.GAMMA_RATIO, n, theta).tobytes() == gamma.tobytes()
            assert integrand(IntegrandKind.LIMIT_KERNEL, n, theta).tobytes() == kernel.tobytes()
    assert ratio_calls == ([] if n >= 2**60 else [n] * 6)


# ------------------------------------------------------------- I_n

def test_I_n_symmetry_half_vs_full_range():
    n = 50.0
    f = lambda t: integrand(IntegrandKind.LIMIT_KERNEL, n, t)
    full = quadrature(f, 0.0, 2 * math.pi, TIGHT)
    half_doubled = I_n(n, TIGHT)
    assert half_doubled.value == pytest.approx(full.value, rel=1e-10)


def test_I_n_approaches_laplace():
    gaps = []
    for n in (10**2, 10**4, 10**6):
        gaps.append(abs(I_n(n, TIGHT).value / laplace_I(n) - 1.0))
        assert gaps[-1] <= 1.5 / math.log(n)
    assert gaps[0] > gaps[1] > gaps[2]


def test_I_n_domain():
    with pytest.raises(ValueError):
        I_n(1.5)


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


@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -3.0])
def test_asymptotic_domain(bad):
    with pytest.raises(ValueError):
        laplace_I(bad)
    with pytest.raises(ValueError):
        p_asymptotic(bad)
