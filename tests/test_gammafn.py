import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from cyclecollide import (
    EULER_GAMMA,
    I_n,
    IntegrandKind,
    analytic,
    gammafn,
    log_gamma,
    p_quadrature_result,
    recip_gamma_abs_sq,
    weierstrass_partial,
)

mpmath.mp.dps = 40


def ref_loggamma(z):
    return complex(mpmath.loggamma(mpmath.mpc(z)))


def rel_or_abs(got, want):
    return abs(got - want) / max(1.0, abs(want))


# ------------------------------------------------------------ constant

def test_euler_gamma_digits():
    assert len(gammafn._EULER_GAMMA_DIGITS.split(".")[1]) >= 30
    assert EULER_GAMMA == float(gammafn._EULER_GAMMA_DIGITS)
    assert abs(float(mpmath.euler) - EULER_GAMMA) == 0.0
    assert gammafn._EULER_GAMMA_DIGITS.startswith("0.5772156649015328606065120900824")


def test_zeta_table_matches_mpmath():
    # Every stored zeta(k) - 1 and every cosine coefficient a_k within
    # one ulp of its 40-digit value; the first omitted term is negligible.
    digits = gammafn._ZETA_MINUS_ONE_DIGITS
    coeffs = gammafn._CIRCLE_COEFFS
    assert len(coeffs) == len(digits) + 1 == 54
    want_a1 = float(1 - mpmath.euler)
    assert abs(coeffs[0] - want_a1) <= math.ulp(want_a1)
    for k, text in enumerate(digits, start=2):
        zm1 = mpmath.zeta(k) - 1
        assert abs(float(text) - float(zm1)) <= math.ulp(float(zm1)), k
        want = float((-1) ** k * zm1 / k)
        assert abs(coeffs[k - 1] - want) <= math.ulp(want), k
    assert float((mpmath.zeta(len(coeffs) + 1) - 1) / (len(coeffs) + 1)) < 1e-18


def test_circle_series_matches_loggamma():
    # Re log Gamma(2 + z) = sum_k a_k cos(k theta), summed as the weight
    # sums it: math.fsum of a_k times math.cos(k theta).
    thetas = np.linspace(0.0, 2 * math.pi, 257).tolist()
    coeffs = gammafn._CIRCLE_COEFFS
    got = [math.fsum(a * math.cos(k * t) for k, a in enumerate(coeffs, start=1)) for t in thetas]
    want = [float(mpmath.re(mpmath.loggamma(2 + mpmath.expj(mpmath.mpf(t))))) for t in thetas]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15


def test_circle_integrands_avoid_general_log_gamma(monkeypatch):
    # From n = 16 on, no circle integrand goes through the shifted
    # Stirling series: the kernel weight is the zeta(k) series.
    def boom(z):
        raise AssertionError("_log_gamma_array on the integrand path")

    monkeypatch.setattr(gammafn, "_log_gamma_array", boom)
    monkeypatch.setattr(analytic, "_log_gamma_array", boom, raising=False)
    for n in (16, 1000, 10**12, 2**1030):
        assert I_n(n).value > 0.0
        assert p_quadrature_result(n, IntegrandKind.GAMMA_RATIO).value > 0.0


# ----------------------------------------------------------- log_gamma

def test_log_gamma_known_points():
    assert abs(log_gamma(1.0 + 0j)) <= 1e-14
    assert abs(log_gamma(2.0 + 0j)) <= 1e-14
    assert abs(log_gamma(0.5 + 0j) - math.log(math.pi) / 2) <= 1e-14
    assert abs(log_gamma(3.0 + 0j) - math.log(2.0)) <= 1e-14


@pytest.mark.parametrize("re", [-0.5, -0.3, -0.05, 0.1, 0.5, 1.0, 2.5, 7.7,
                                10.0, 42.0, 1e4, 1e9])
@pytest.mark.parametrize("im", [-2.0, -0.7, 0.0, 1e-7, 1.3, 2.0])
def test_log_gamma_accuracy_grid(re, im):
    z = complex(re, im)
    if im == 0.0 and re <= 0 and re == round(re):
        return
    assert rel_or_abs(log_gamma(z), ref_loggamma(z)) <= 1e-13


def test_log_gamma_dense_unit_circle():
    thetas = np.linspace(0.01, 2 * math.pi - 0.01, 400)
    zs = np.cos(thetas) + 1j * np.sin(thetas)
    got = log_gamma(zs + 2.0)
    worst = max(
        rel_or_abs(g, ref_loggamma(z)) for g, z in zip(got, zs + 2.0)
    )
    assert worst <= 1e-13


def test_log_gamma_array_shape_and_scalar_type():
    zs = np.array([[1.0 + 0j, 2.0 + 1j], [0.5 - 1j, 9.0 + 2j]])
    out = log_gamma(zs)
    assert out.shape == zs.shape
    assert isinstance(log_gamma(1.5 + 0.5j), complex)


@pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0, 0j, -3.0 + 0.0j])
def test_log_gamma_poles_raise(pole):
    with pytest.raises(ValueError):
        log_gamma(pole)


def test_log_gamma_pole_in_array_raises():
    with pytest.raises(ValueError):
        log_gamma(np.array([1.0 + 0j, -2.0 + 0j]))


# ------------------------------------------------- recip_gamma_abs_sq

def test_recip_gamma_endpoint_values():
    assert recip_gamma_abs_sq(0.0) == pytest.approx(1.0, abs=5e-15)
    assert recip_gamma_abs_sq(2 * math.pi) == pytest.approx(1.0, abs=5e-15)
    assert recip_gamma_abs_sq(math.pi) == 0.0  # exact: the pole factor is 0


@pytest.mark.parametrize(
    "theta, want",
    [(math.pi / 2, math.sinh(math.pi) / math.pi), (3 * math.pi / 2, math.sinh(math.pi) / math.pi)]
    + [(k * math.pi / 3, math.cosh(math.pi * math.sqrt(3) / 2) / math.pi) for k in (1, 2, 4, 5)]
    + [(0.0, 1.0), (2 * math.pi, 1.0)],
)
def test_recip_gamma_closed_forms(theta, want):
    # 1/|Gamma(i)|^2 = sinh(pi)/pi; |Gamma(1/2 + iy)|^2 = pi/cosh(pi y),
    # and Gamma(-1/2 + iy) = Gamma(1/2 + iy)/(-1/2 + iy) with |-1/2 + iy| = 1
    # at y = sqrt(3)/2.
    assert abs(recip_gamma_abs_sq(theta) - want) <= 1e-15 * want


def test_recip_gamma_is_nonnegative_on_every_kernel_table():
    # The circle batches rely on f >= 0: the weight is their only factor
    # that is not an exp.  Every node's weight, as a batch computes it.
    for intervals in range(8, 4097, 8):
        cosines = analytic._node_table(intervals)[1]
        weights = [analytic._node_weight(cosines, j) for j in range(intervals + 1)]
        assert min(weights) >= 0.0, intervals


def test_recip_gamma_memory_is_bounded_per_block():
    # Each angle is evaluated alone: no per-angle table exists for the
    # whole array, only the angles and the values (about 40 bytes an
    # angle), and the bytes are those of each angle on its own.  2^13 + 3
    # angles put the fixed cost near 1 byte an angle, and the angles
    # checked one by one are a proper prefix.
    theta = np.linspace(0.0, 2 * math.pi, 2**13 + 3)
    tracemalloc.start()
    try:
        got = recip_gamma_abs_sq(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * theta.size
    t = theta[: 2**13 + 1]
    alone = np.array([recip_gamma_abs_sq(x) for x in t.tolist()])
    assert recip_gamma_abs_sq(t).tobytes() == alone.tobytes()
    assert got[: t.size].tobytes() == alone.tobytes()


def test_recip_gamma_nonnegative_and_accurate():
    thetas = np.linspace(0.0, 2 * math.pi, 257)
    vals = recip_gamma_abs_sq(thetas)
    assert (vals >= 0.0).all()
    grid = recip_gamma_abs_sq(thetas[1:].reshape(16, 16))
    assert grid.shape == (16, 16)
    assert np.array_equal(grid.reshape(-1), recip_gamma_abs_sq(thetas[1:]))
    for theta in (0.4, 1.5, 2.9, 3.6, 4.8, 6.1):
        z = mpmath.mpc(math.cos(theta), math.sin(theta))
        want = float(1 / abs(mpmath.gamma(z)) ** 2)
        assert recip_gamma_abs_sq(theta) == pytest.approx(want, rel=1e-12)


def test_recip_gamma_dense_accuracy():
    # Within 1e-15 of the weight's peak (3.70) everywhere on the circle.
    thetas = np.linspace(0.01, 2 * math.pi - 0.01, 400)
    got = recip_gamma_abs_sq(thetas)
    want = np.array([
        float(1 / abs(mpmath.gamma(mpmath.expj(mpmath.mpf(float(t))))) ** 2) for t in thetas
    ])
    assert np.max(np.abs(got - want)) <= 1e-15 * want.max()


def test_recip_gamma_theta_domain():
    with pytest.raises(ValueError):
        recip_gamma_abs_sq(-0.1)
    with pytest.raises(ValueError):
        recip_gamma_abs_sq(2 * math.pi + 0.1)
    for theta in (math.nan, np.array([0.5, math.nan]), np.array([[math.nan]]), "0.5",
                  np.array(["0.5"]), [0.5, b"1"], 1 + 0j, np.array([1 + 0j])):
        with pytest.raises(ValueError, match="theta"):
            recip_gamma_abs_sq(theta)


def test_recip_gamma_scalar_equals_array():
    # Each angle is evaluated alone, so a lone angle has its bits inside
    # an array, as a float or as a 0-d array, which gives a float too.
    theta = np.random.default_rng(7).uniform(0.0, 2 * math.pi, 600)
    want = recip_gamma_abs_sq(theta)
    alone = [recip_gamma_abs_sq(float(t)) for t in theta]
    assert np.array(alone).tobytes() == want.tobytes()
    zero_d = [recip_gamma_abs_sq(np.array(t)) for t in theta[:50]]
    assert {type(v) for v in zero_d} == {float}
    assert np.array(zero_d).tobytes() == want[:50].tobytes()
    assert recip_gamma_abs_sq(theta[:1]).tobytes() == want[:1].tobytes()


# --------------------------------------------------- weierstrass_partial

def test_weierstrass_one_term():
    assert weierstrass_partial(1.0 + 0j, 1) == pytest.approx(2.0 / math.e, rel=1e-15)


def test_weierstrass_limits():
    # full product equals e^{-gamma z} / Gamma(z); truncation ~ z^2 / (2 terms)
    got = weierstrass_partial(1.0 + 0j, 200000)
    assert got.real == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-5)
    assert abs(got.real - 0.5614594836) <= 1e-5
    got2 = weierstrass_partial(2.0 + 0j, 10**6)
    assert got2.real == pytest.approx(math.exp(-2 * EULER_GAMMA), rel=1e-5)
    assert abs(got2.real - 0.3152366801) <= 1e-5


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_weierstrass_converges_on_circle(theta):
    z = complex(math.cos(theta), math.sin(theta))
    target = complex(mpmath.exp(-mpmath.euler * z) / mpmath.gamma(mpmath.mpc(z)))
    errors = [
        abs(weierstrass_partial(z, terms) - target) / abs(target)
        for terms in (1000, 2000, 4000, 8000)
    ]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3


def test_weierstrass_rejects_bad_input():
    with pytest.raises(ValueError):
        weierstrass_partial(0j, 10)
    with pytest.raises(ValueError):
        weierstrass_partial(1.0 + 0j, 0)


def test_weierstrass_rejects_an_infinite_z():
    with pytest.raises(ValueError, match="finite"):
        weierstrass_partial(complex("inf"), 10)


def test_weierstrass_rejects_a_nan_z():
    with pytest.raises(ValueError, match="finite"):
        weierstrass_partial(complex(math.nan, 0.5), 10)


def test_weierstrass_rejects_terms_that_are_not_integers():
    with pytest.raises(ValueError, match="terms must be an integer"):
        weierstrass_partial(1.0 + 0j, 2.5)


def test_weierstrass_memory_is_bounded_per_chunk():
    # 10^6 terms in chunks of 2^14: at most three complex temporaries of
    # 256 KiB at a time.
    tracemalloc.start()
    try:
        weierstrass_partial(0.5 + 0.8j, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
