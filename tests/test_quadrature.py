import math

import numpy as np
import pytest

from cyclecollide import (
    IntegrandKind,
    QuadratureConfig,
    QuadratureConvergenceError,
    analytic,
    integrand,
    p_exact,
    p_quadrature_result,
)
from cyclecollide.quadrature import quadrature

EP = IntegrandKind.EXACT_PRODUCT


def _exp_cos(t):
    return np.exp(np.cos(t))


def _strip_intervals(n, config):
    # The N that the strip bound of GAMMA_RATIO gives at n, which the
    # product takes too.
    return analytic._strip_choice(n, 2.0 * math.log(n), config, analytic._series_coeffs(n))[0]


def _inflated_strip(monkeypatch, extra, narrow=1.0):
    # The strip term times e^extra, on a strip `narrow` times narrower: a
    # batch misses its tolerance until N has grown enough to pay for it,
    # and on a strip narrow enough never does.
    real = analytic._strip_choice

    def choice(*args):
        intervals, half_inv_a, log_m = real(*args)
        return intervals, half_inv_a * narrow, log_m + extra

    monkeypatch.setattr(analytic, "_strip_choice", choice)


def test_exp_cosine_over_half_period_converges_geometrically():
    # integral_0^pi e^{cos t} dt = pi I_0(1), I_0(1) = sum_k 1 / (4^k (k!)^2).
    # The rule on N intervals of [0, pi], ends at half weight, is the
    # full-period rule on 2N: its error falls by more than 40x a node.
    want = math.pi * math.fsum(1.0 / (4**k * math.factorial(k) ** 2) for k in range(20))
    errors = [abs(quadrature(_exp_cos, intervals).value - want) for intervals in range(1, 7)]
    assert all(e < prev / 40 for prev, e in zip(errors, errors[1:])), errors
    res = quadrature(_exp_cos, 8)
    assert abs(res.value - want) <= res.abs_error_estimate
    assert res.evaluations == 9


def test_product_integrand_mean_n2():
    # (1/2pi) * integral of |(e^{it})(e^{it}+1)|^2 / (2!)^2 = (1/pi) int_0^pi (2+2cos)/4 = 1/2
    res = quadrature(lambda t: integrand(EP, 2, t), 8)
    mean = res.value / math.pi
    assert mean == pytest.approx(0.5, rel=1e-15)
    assert abs(mean - 0.5) <= res.abs_error_estimate / math.pi


def test_error_estimate_contract_on_success():
    for rel_tol in (1e-8, 1e-10, 1e-13):
        config = QuadratureConfig(rel_tol=rel_tol)
        for n in (2, 3, 10, 100, 1000):
            res = p_quadrature_result(n, EP, config)
            assert res.abs_error_estimate <= config.rel_tol * abs(res.value), (n, rel_tol)


def test_evaluations_accounting(monkeypatch):
    # One batch evaluates its N + 1 nodes in one call.
    seen = []

    def ones(x):
        seen.append(x.size)
        return np.ones_like(x)

    assert quadrature(ones, 24).evaluations == 25
    assert seen == [25]
    # The product takes the strip bound's N, a multiple of 8, and each
    # doubling evaluates every node of the doubled batch again.
    for n in (2, 17, 100, 2000):
        intervals = _strip_intervals(n, analytic.DEFAULT_CONFIG)
        assert intervals % 8 == 0
        assert p_quadrature_result(n, EP).evaluations == intervals + 1
    real = analytic._exact_product_values

    def values(n, theta):
        seen.append(theta.size)
        return real(n, theta)

    monkeypatch.setattr(analytic, "_exact_product_values", values)
    _inflated_strip(monkeypatch, 40.0)
    seen.clear()
    res = p_quadrature_result(100, EP)
    intervals = _strip_intervals(100, analytic.DEFAULT_CONFIG)
    assert len(seen) > 1
    assert seen == [intervals * 2**k + 1 for k in range(len(seen))]
    assert res.evaluations == seen[-1]


def test_convergence_error_carries_best_estimate():
    # rel_tol 1e-16 is below the evaluation-error floor: the route gives up
    # at its first batch instead of doubling to the node cap.
    config = QuadratureConfig(rel_tol=1e-16)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        p_quadrature_result(100, EP, config)
    best = exc_info.value.best
    assert best.value == pytest.approx(p_exact(100).approx, rel=1e-14)
    assert best.abs_error_estimate > 0
    assert best.evaluations == _strip_intervals(100, config) + 1
    assert exc_info.value.tolerance == pytest.approx(1e-16 * abs(best.value))


def test_node_cap_raises_with_best_estimate(monkeypatch):
    # On a strip 10^6 times narrower no batch meets the tolerance: the
    # route doubles N while 2N + 1 nodes fit the cap of 2^16 + 1.
    intervals = _strip_intervals(10, analytic.DEFAULT_CONFIG)
    _inflated_strip(monkeypatch, 0.0, 1e6)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        p_quadrature_result(10, EP)
    best = exc_info.value.best
    while 2 * intervals + 1 <= 2**16 + 1:
        intervals *= 2
    assert best.evaluations == intervals + 1 > 2**15
    assert abs(best.value - p_exact(10).approx) <= best.abs_error_estimate


def _corrupted(monkeypatch, bad, call):
    # The product's values, with one node of the `call`-th batch set to bad.
    real = analytic._exact_product_values
    calls = []

    def values(n, theta):
        calls.append(theta.size)
        y = real(n, theta)
        if len(calls) == call:
            y[3] = bad
        return y

    monkeypatch.setattr(analytic, "_exact_product_values", values)
    return calls


def test_nonfinite_integrand_rejected(monkeypatch):
    # One bad node in the first batch is enough.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            quadrature(lambda x: np.where(np.arange(x.size) == 3, bad, 1.0), 8)
        calls = _corrupted(monkeypatch, bad, 1)
        with pytest.raises(ValueError, match="not finite"):
            p_quadrature_result(10, EP)
        assert calls == [_strip_intervals(10, analytic.DEFAULT_CONFIG) + 1]
        monkeypatch.undo()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_value_in_a_later_batch_rejected(monkeypatch, bad):
    # One bad node in the first doubled batch is enough.
    _inflated_strip(monkeypatch, 40.0)
    calls = _corrupted(monkeypatch, bad, 2)
    with pytest.raises(ValueError, match="not finite"):
        p_quadrature_result(10, EP)
    intervals = _strip_intervals(10, analytic.DEFAULT_CONFIG)
    assert calls == [intervals + 1, 2 * intervals + 1]


def test_first_nodes_are_linspace_nodes():
    # The nodes are pi j / N, j = 0..N, with the bytes np.linspace gives:
    # 0 and pi exactly at the ends.
    for intervals in (1, 8, 24, 256, 2**16):
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.ones_like(x)

        assert quadrature(f, intervals).value == pytest.approx(math.pi, rel=1e-15)
        (x,) = seen
        assert x.tobytes() == np.linspace(0.0, math.pi, intervals + 1).tobytes()
        assert x[0] == 0.0 and x[-1] == math.pi
        j = np.arange(intervals + 1)
        assert np.all(np.abs(x - math.pi * j / intervals) <= 4e-16 * x)


def test_config_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=bad)
    with pytest.raises(TypeError):
        QuadratureConfig(max_subdivisions=1)  # the subdivision knob is gone
    with pytest.raises(TypeError):
        QuadratureConfig(abs_tol=1e-14)  # so is the absolute tolerance


def test_bit_stable_across_runs():
    f = lambda t: integrand(EP, 100, t)
    assert quadrature(f, 40) == quadrature(f, 40)
    for config in (analytic.DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-13)):
        assert p_quadrature_result(100, EP, config) == p_quadrature_result(100, EP, config)
