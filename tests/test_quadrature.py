import math

import numpy as np
import pytest

from cyclecollide import (
    IntegrandKind,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
    integrand,
    quadrature,
)


def test_cosine_over_full_period_is_zero():
    # A zero integral is resolved only to the evaluation-error floor,
    # 64 eps * integral |cos| ~ 6e-14, so abs_tol must sit above it.
    config = QuadratureConfig(abs_tol=1e-12)
    res = quadrature(np.cos, 0.0, 2 * math.pi, config)
    assert abs(res.value - 0.0) <= config.abs_tol
    assert abs(res.value - 0.0) <= res.abs_error_estimate
    assert res.evaluations > 0


def test_exp_cosine_over_half_period_converges_geometrically():
    # integral_0^pi e^{cos t} dt = pi I_0(1), I_0(1) = sum_k 1 / (4^k (k!)^2)
    want = math.pi * math.fsum(1.0 / (4**k * math.factorial(k) ** 2) for k in range(20))
    res = quadrature(lambda t: np.exp(np.cos(t)), 0.0, math.pi, QuadratureConfig(rel_tol=1e-13))
    assert res.value == pytest.approx(want, rel=1e-15)
    assert abs(res.value - want) <= res.abs_error_estimate
    assert res.evaluations == 17


def test_parabola():
    # Not periodic: the rule converges only as h^2, and the difference of
    # successive levels (3x the error) still bounds it.
    config = QuadratureConfig(rel_tol=1e-8, abs_tol=0.0)
    res = quadrature(lambda x: x * x, 0.0, 1.0, config)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert abs(res.value - 1.0 / 3.0) <= res.abs_error_estimate
    assert res.evaluations == 2**14 + 1


def test_product_integrand_mean_n2():
    # (1/2pi) * integral of |(e^{it})(e^{it}+1)|^2 / (2!)^2 = (1/2pi) int (2+2cos)/4 = 1/2
    f = lambda t: integrand(IntegrandKind.EXACT_PRODUCT, 2, t)
    res = quadrature(f, 0.0, 2 * math.pi)
    mean = res.value / (2 * math.pi)
    assert mean == pytest.approx(0.5, rel=1e-12)
    assert abs(mean - 0.5) <= res.abs_error_estimate / (2 * math.pi)


def test_peaked_gaussian_like():
    # sharp bump: adaptivity has to refine near 0
    res = quadrature(lambda x: np.exp(-500.0 * x * x), -1.0, 1.0)
    want = math.sqrt(math.pi / 500.0) * math.erf(math.sqrt(500.0))
    assert res.value == pytest.approx(want, rel=1e-10)
    assert abs(res.value - want) <= res.abs_error_estimate
    assert res.evaluations > 15  # must have subdivided


def test_error_estimate_contract_on_success():
    config = QuadratureConfig(rel_tol=1e-8, abs_tol=0.0)
    res = quadrature(np.sin, 0.0, 1.0, config)
    assert res.abs_error_estimate <= max(config.abs_tol, config.rel_tol * abs(res.value))


def test_evaluations_accounting():
    # The rule is exact for a line, so it stops at the first comparison:
    # 8 intervals, then 16, endpoints included.
    res = quadrature(lambda x: x, 0.0, 1.0)
    assert res.evaluations == 17
    # Each halving evaluates only the new midpoints, in one call.
    seen = []

    def bump(x):
        seen.append(x.size)
        return np.exp(-500.0 * x * x)

    res = quadrature(bump, -1.0, 1.0)
    assert seen == [9] + [2**k for k in range(3, 3 + len(seen) - 1)]
    assert res.evaluations == sum(seen)


def test_convergence_error_carries_best_estimate():
    # rel_tol 1e-16 is below the evaluation-error floor: the rule gives up
    # at its first error estimate instead of refining to the node cap.
    config = QuadratureConfig(rel_tol=1e-16, abs_tol=0.0)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        quadrature(lambda x: np.cos(40.0 * x) ** 2 + x, 0.0, 3.0, config)
    best = exc_info.value.best
    want = 4.5 + (math.sin(240.0) / 160.0 + 1.5)  # int cos(40x)^2 = x/2 + sin(80x)/160
    assert best.value == pytest.approx(want, rel=0.5)  # rough: 16 nodes on 19 periods
    assert best.abs_error_estimate > 0
    assert best.evaluations == 17
    assert exc_info.value.tolerance == pytest.approx(1e-16 * abs(best.value))


def test_node_cap_raises_with_best_estimate():
    # x^2 needs ~1.2e5 intervals for rel_tol 1e-10; the cap is 2^16 + 1 nodes.
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        quadrature(lambda x: x * x, 0.0, 1.0)
    best = exc_info.value.best
    assert best.evaluations == 2**16 + 1
    assert abs(best.value - 1.0 / 3.0) <= best.abs_error_estimate


def test_interval_validation():
    with pytest.raises(ValueError):
        quadrature(np.cos, 1.0, 1.0)
    with pytest.raises(ValueError):
        quadrature(np.cos, 2.0, 1.0)


def test_nonfinite_integrand_rejected():
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(ValueError):
            quadrature(lambda x: 1.0 / x, 0.0, 1.0)


def _bump(x):
    return np.exp(-500.0 * x * x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_value_in_a_later_batch_rejected(bad):
    # One bad node in the fourth batch (32 new midpoints) is enough; the
    # bump needs more batches than that.
    calls = []

    def f(x):
        calls.append(x.size)
        y = _bump(x)
        if len(calls) == 4:
            y[5] = bad
        return y

    with pytest.raises(ValueError, match="not finite"):
        quadrature(f, -1.0, 1.0)
    assert calls == [9, 8, 16, 32]


def test_large_finite_values_whose_sum_fits_are_integrated():
    res = quadrature(lambda x: 1e300 * _bump(x), -1.0, 1.0)
    ref = quadrature(_bump, -1.0, 1.0)
    assert res.evaluations == ref.evaluations
    assert res.value == pytest.approx(1e300 * ref.value, rel=1e-14)
    assert res.abs_error_estimate == pytest.approx(1e300 * ref.abs_error_estimate, rel=1e-6)


@pytest.mark.parametrize("value", [1e308, 1.5e307])
def test_overflowing_sum_of_finite_values_rejected(value):
    # 1e308 overflows sum|f| in the first batch (fsum raised OverflowError
    # there); 1.5e307 only once the second batch is added (an infinite
    # value was returned).  Either way the floor would be infinite.
    with pytest.raises(ValueError, match="integrand sum overflows"):
        quadrature(lambda x: np.full_like(x, value), 0.0, math.pi)


def test_first_nodes_are_linspace_nodes():
    # The first batch is built as np.linspace builds it, bit for bit.
    rng = np.random.default_rng(7)
    scales = 10.0 ** rng.uniform(-300, 300, 200)
    bounds = [(0.0, math.pi), (-1.0, 1.0), (0.0, 1.0), (1e-300, 2e-300)]
    bounds += [tuple(sorted(pair)) for pair in rng.normal(size=(200, 2)) * scales[:, None]]
    for a, b in bounds:
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.ones_like(x)

        quadrature(f, a, b)
        assert seen[0].tobytes() == np.linspace(a, b, 9).tobytes(), (a, b)
    # Below 8 subnormal steps h is 0 and np.linspace spreads its nodes
    # another way, but every value and estimate is 0 either way.
    assert quadrature(np.cos, 0.0, 5e-324) == QuadratureResult(0.0, 0.0, 17)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=bad)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=bad)
    with pytest.raises(TypeError):
        QuadratureConfig(max_subdivisions=1)  # the subdivision knob is gone


def test_bit_stable_across_runs():
    f = lambda t: integrand(IntegrandKind.GAMMA_RATIO, 100, t)
    first = quadrature(f, 0.0, math.pi)
    second = quadrature(f, 0.0, math.pi)
    assert first == second
