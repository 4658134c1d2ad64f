"""Nested trapezoid rule with an error estimate that bounds the error.

Every integrand in this package is smooth, 2 pi-periodic and even, and is
integrated over the half period [0, pi].  For such an integrand the
trapezoid rule with its endpoints at half weight is the full-period
trapezoid rule folded in two, so it is exact for a trigonometric
polynomial of degree below 2N on N intervals (discrete Parseval) and
converges geometrically for an analytic one (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014).

The rule starts at 8 intervals and halves the step until converged; each
halving evaluates only the new midpoints, in one vectorized call, and
adds them with exact float summation, so the result is bit-identical
across runs for a given config.  The error estimate of T_N is

    |T_N - T_{N/2}| + 64 eps h sum|f(x_k)|

Under geometric convergence the difference exceeds the error of T_N by
the convergence factor; the second term is a floor for the rounding
error of integrand values accurate to a few ulps and of the sum.

`quadrature` runs this ladder for any integrand of numpy arrays, and
imports numpy when it runs; the package runs it for the EXACT_PRODUCT
oracle only, and does not re-export it: it is
`cyclecollide.quadrature.quadrature`.  The circle routes (I_n and the
Gamma-ratio identity) know an analytic bound on their integrand instead:
`analytic` evaluates them in one batch of N + 1 nodes in Python floats,
N from the Trefethen-Weideman strip bound, and reports that bound plus
the same floor, whose sum|f| there is the rule's exactly rounded sum
(f >= 0), plus a bound on the nodes too small to reach that sum, which
it leaves out.  This module loads no numpy on import, so those routes
never do.  Every route meets rel_tol |value|, its one setting, so a
rel_tol below the floor's 64 eps (about 1.42e-14) is out of reach.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import _args

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        rel_tol = _args.real(self.rel_tol)
        if not 0.0 < rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        object.__setattr__(self, "rel_tol", rel_tol)


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """The tolerance is out of reach: the evaluation-error floor alone
    exceeds it, or the node cap was hit first.

    Carries the best estimate so callers can still report it.
    """

    def __init__(self, best: QuadratureResult, tolerance: float):
        super().__init__(
            f"quadrature did not converge: error estimate "
            f"{best.abs_error_estimate:.3e} > tolerance {tolerance:.3e} "
            f"after {best.evaluations} evaluations"
        )
        self.best = best
        self.tolerance = tolerance


_START_INTERVALS = 8
_MAX_NODES = 2**16 + 1
_FLOOR = 64.0 * sys.float_info.epsilon


def _values(
    y: np.ndarray, x: np.ndarray, a: float, b: float, acc: float
) -> tuple[np.ndarray, float]:
    # The integrand values y = f(x) as a float64 array, and acc + sum|y|:
    # a finite sum means every value is finite, so one float is tested per
    # batch.
    import numpy as np

    y = np.asarray(y, dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError(
            f"integrand must map a length-{x.size} array to a length-{x.size} array"
        )
    # np.add.reduce is ndarray.sum without its Python wrapper: same bits.
    with np.errstate(over="ignore"):
        acc += float(np.add.reduce(np.abs(y)))
    if not math.isfinite(acc):
        if not np.isfinite(y).all():
            raise ValueError(f"integrand not finite on [{a}, {b}]")
        raise ValueError(f"integrand sum overflows on [{a}, {b}]")
    return y, acc


def quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Estimate the integral of f over [a, b] to the configured tolerance.

    `f` must accept a float ndarray of evaluation points and return the
    integrand values; it is evaluated at both endpoints and at 2^k + 1
    equispaced nodes in all, k >= 4.  On success the returned error
    estimate satisfies ``abs_error_estimate <= rel_tol * |value|``.  A
    QuadratureConvergenceError carrying the best estimate is raised once
    the evaluation-error floor alone exceeds that tolerance, or when
    2^16 + 1 nodes did not reach it.  ValueError is
    raised if f is not finite at a node, or if sum|f| over the nodes
    overflows, which would make the floor infinite.
    """
    import numpy as np

    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")

    intervals = _START_INTERVALS
    h = (b - a) / intervals
    # The bytes of np.linspace(a, b, intervals + 1) whenever h > 0.
    x = a + h * np.arange(intervals + 1)
    x[-1] = b
    y, total_abs = _values(f(x), x, a, b, 0.0)
    # fsum over Python floats: the same doubles, summed faster than as
    # numpy scalars.
    ys = y.tolist()
    total = math.fsum([0.5 * ys[0], *ys[1:-1], 0.5 * ys[-1]])
    total_abs -= 0.5 * (abs(ys[0]) + abs(ys[-1]))
    value = h * total
    while True:
        h *= 0.5
        x = a + h * np.arange(1, 2 * intervals, 2)
        y, total_abs = _values(f(x), x, a, b, total_abs)
        intervals *= 2
        total += math.fsum(y.tolist())
        floor = _FLOOR * h * total_abs
        previous, value = value, h * total
        error = abs(value - previous) + floor
        tolerance = config.rel_tol * abs(value)
        if error <= tolerance:
            return QuadratureResult(value, error, intervals + 1)
        if floor > tolerance or intervals + 1 >= _MAX_NODES:
            raise QuadratureConvergenceError(
                QuadratureResult(value, error, intervals + 1), tolerance
            )
