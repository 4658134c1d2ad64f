"""Integral and closed-form routes to the cycle-count collision probability.

The starting point is the coefficient power-sum identity: for a polynomial
g(z) = sum a_k z^k with real coefficients,

    sum_k a_k^2 = (1/2pi) integral_0^{2pi} |g(e^{i theta})|^2 d theta.

Applied to the rising factorial x (x+1) ... (x+n-1), whose coefficients
count permutations by cycle number, the collision probability becomes an
integral that can be evaluated three ways:

* EXACT_PRODUCT - |prod_{j<n} (e^{i theta} + j)|^2 / (n!)^2 as
  n^-2 prod_{j=1}^{n-1} (1 + 2 cos(theta)/j + 1/j^2), summed term by term
  as log1p values, O(n) per evaluation.  It is a trigonometric polynomial
  of degree n - 1, so the trapezoid rule on N >= n/2 intervals of [0, pi]
  integrates it exactly; quadrature tolerance is the only error.
* GAMMA_RATIO - the same quantity through Gamma(z+n)/Gamma(z), O(1) per
  evaluation, at any integer n, including n above the double range.
  From n = 2^60 on, where log_gamma_ratio is (z - 1) log n to double
  resolution, it is evaluated as the LIMIT_KERNEL integrand.
* LIMIT_KERNEL - the large-n kernel exp(2(cos theta - 1) log n) /
  |Gamma(e^{i theta})|^2 whose integral I(n) tends to sqrt(pi / log n);
  dividing by 2 pi gives the asymptotic collision estimate.  cos theta - 1
  is taken as -2 sin^2(theta/2), free of cancellation near theta = 0, so
  the kernel is within 2.8e-15 relative of mpmath up to n = 2^1030.

The two identity integrands are accurate to ~1e-14 relative away from
theta = pi, which the quadrature error estimate relies on.  All
integrands are 2 pi-periodic and even about theta = pi, so integration
is done on [0, pi], endpoints included, and doubled.

The kernel routes - I_n, and GAMMA_RATIO from n = 2^60 on - take one
batch of N + 1 nodes, N = pi / h, from the strip bound of Trefethen &
Weideman (Thm 3.2).  On |Im theta| <= a < ln 2 the kernel is at most

    M(a) = exp(2 log n (cosh a - 1)) (2 + 2 cosh a) exp(2 sum_k |a_k| cosh ka)

with a_k the weight's cosine coefficients (gammafn), so the rule on N
intervals of [0, pi] is within 2 pi M(a) / (e^{2aN} - 1) of the integral.
N is the smallest, over a fixed grid of a, that meets half the tolerance
laplace_I(n) / 2 would give (below the integral at every n measured),
rounded up to a multiple of 8; it is doubled, evaluating the new
midpoints, only if the estimate then misses the computed value's
tolerance.  The error estimate is that bound plus the floor 64 eps h
sum|f| of `quadrature`, so it is proved rather than inferred from
|T_N - T_{N/2}|, and `evaluations` is N + 1.  The other routes,
EXACT_PRODUCT and GAMMA_RATIO below 2^60, use the halving ladder of
`quadrature`.

The n-independent part of the Gamma-ratio and kernel integrands -
cos(theta) - 1, e^{i theta} and the weight 1/|Gamma(e^{i theta})|^2 - is
cached per process for each node array, read-only: the ladder evaluates
the same node batches on [0, pi] for every n, so the weight is paid once
per batch, not once per call.  The cache holds at most 16 node arrays of
at most 2^15 nodes each, at 40 bytes a node with its key (about 21 MiB at
most; a full quadrature ladder, 2^16 + 1 nodes, is 2.5 MiB); larger
arrays are computed directly and not stored.  The kernel routes keep
their own tables, keyed by N: at most 32, of N <= 2^12 (about 2 MiB).
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable

import numpy as np

from .gammafn import (
    _CIRCLE_COEFFS,
    _LOG_ONLY_MIN_N,
    EULER_GAMMA,
    _check_theta,
    _circle_weight,
    log_gamma_ratio,
)
from .quadrature import (
    _FLOOR,
    _MAX_NODES,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
    _values,
    quadrature,
)

# Largest n for which the auto-selected quadrature route uses the O(n)
# exact-product integrand; above it the O(1) Gamma-ratio form takes over.
# Measured (p_quadrature_result, best of 7 x 33 calls): at n = 1024 the
# product route takes 0.20 ms and GAMMA_RATIO 0.13 ms; GAMMA_RATIO is the
# faster from some n between 384 and 512.  Moving the constant changes the
# bits of every auto result in between and re-pins the quadrature digest,
# so it needs its own change.
EXACT_PRODUCT_AUTO_MAX = 1024


class IntegrandKind(Enum):
    """Which unit-circle integrand to evaluate."""

    EXACT_PRODUCT = "exact-product"
    GAMMA_RATIO = "gamma-ratio"
    LIMIT_KERNEL = "limit-kernel"


def harmonic(m: int) -> float:
    """Harmonic number H_m = 1 + 1/2 + ... + 1/m (H_0 = 0).

    Exact-rounded summation up to 1e6 terms; beyond that the asymptotic
    expansion log m + gamma + 1/(2m) - 1/(12 m^2), whose next omitted term
    is ~ 1/(120 m^4) < 1e-26 there.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m <= 10**6:
        return math.fsum(1.0 / r for r in range(1, m + 1))
    inv = 1.0 / m
    return math.log(m) + EULER_GAMMA + 0.5 * inv - inv * inv / 12.0


def _exact_product_values(n: int, theta: np.ndarray) -> np.ndarray:
    # |prod_{j=0}^{n-1} (e^{i theta} + j)|^2 / (n!)^2
    #     = n^-2 prod_{j=1}^{n-1} (1 + 2 cos(theta) / j + 1 / j^2),
    # summed as log1p terms, so no sum of size log n! is cancelled.  The
    # j = 1 factor is 2 + 2 cos, exactly 0 at theta = pi, where
    # log1p(-1) = -inf gives the exact 0.
    ct2 = 2.0 * np.cos(theta)
    acc = np.zeros_like(theta)
    chunk = max(1, (1 << 22) // max(1, theta.size))
    with np.errstate(divide="ignore"):
        for start in range(1, n, chunk):
            r = 1.0 / np.arange(start, min(n, start + chunk), dtype=np.float64)
            acc += np.log1p(np.multiply.outer(ct2, r) + r * r).sum(axis=-1)
    return np.exp(acc) / (float(n) * n)


# The node-table cache: the quadrature driver's largest batch is 2^15 new
# midpoints, and its whole ladder on [0, pi] is 14 batches (9 nodes, then
# 8, 16, ..., 2^15), so 16 entries hold one ladder with room to spare.
_NODE_TABLE_MAX_NODES = _MAX_NODES // 2
_NODE_TABLE_ENTRIES = 16


def _build_node_table(
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # cos(theta) - 1, z = e^{i theta} and 1/|Gamma(z)|^2 in its entire,
    # pole-free form, exactly 0 at theta = pi.  cos(theta) - 1 is taken as
    # -2 sin^2(theta / 2): np.cos(theta) - 1 cancels near theta = 0, where
    # the kernel's exponent (cos(theta) - 1) 2 log n would carry an error
    # of eps 2 log n, 7.8e-14 relative to mpmath at n = 2^1030.
    half = np.sin(0.5 * theta)
    z = np.cos(theta) + 1j * np.sin(theta)
    return -2.0 * half * half, z, _circle_weight(z)


@functools.lru_cache(maxsize=_NODE_TABLE_ENTRIES)
def _cached_node_table(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    table = _build_node_table(np.frombuffer(key, dtype=np.float64))
    for arr in table:
        arr.flags.writeable = False
    return table


def _node_table(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # theta is a 1-d float64 array; the table depends on it alone.
    if theta.size > _NODE_TABLE_MAX_NODES:
        return _build_node_table(theta)
    return _cached_node_table(theta.tobytes())


def _gamma_ratio_values(n: int, theta: np.ndarray) -> np.ndarray:
    # |Gamma(z+n) / (Gamma(z) n!)|^2 = w |Gamma(z+n) / n!|^2 with the
    # weight w = 1/|Gamma(z)|^2.  For n = 1 the integrand is |z|^2 = 1
    # everywhere, theta = pi included.
    if n == 1:
        return np.ones_like(theta)
    if n >= _LOG_ONLY_MIN_N:
        # log_gamma_ratio is (z - 1) log n here: the kernel's integrand,
        # whose table holds cos(theta) - 1 without cancellation.
        return _limit_kernel_values(n, theta)
    _, z, w = _node_table(theta)
    return w * np.exp(2.0 * np.real(log_gamma_ratio(n, z)))


def _limit_kernel_values(n: float, theta: np.ndarray) -> np.ndarray:
    # math.log takes n as given, so an int n above the double range works;
    # the factor 2 is exact wherever it is applied.
    cos_m1, _, w = _node_table(theta)
    return np.exp(cos_m1 * (2.0 * math.log(n))) * w


def _integrand_fn(kind: IntegrandKind, n: float) -> Callable[[np.ndarray], np.ndarray]:
    if kind is IntegrandKind.EXACT_PRODUCT:
        if n < 1 or int(n) != n:
            raise ValueError(f"EXACT_PRODUCT requires integer n >= 1, got {n}")
        return lambda t: _exact_product_values(int(n), t)
    if kind is IntegrandKind.GAMMA_RATIO:
        if n < 1 or int(n) != n:
            raise ValueError(f"GAMMA_RATIO requires integer n >= 1, got {n}")
        return lambda t: _gamma_ratio_values(int(n), t)
    if kind is IntegrandKind.LIMIT_KERNEL:
        if not n > 1:
            raise ValueError(f"LIMIT_KERNEL requires real n > 1, got {n}")
        return lambda t: _limit_kernel_values(n, t)
    raise ValueError(f"unknown integrand kind: {kind!r}")


def integrand(
    kind: IntegrandKind, n: float, theta: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate one of the unit-circle integrands at theta in [0, 2*pi].

    EXACT_PRODUCT and GAMMA_RATIO take integer n >= 1 and agree to
    ~1e-14 relative away from theta = pi (the product form is the oracle);
    LIMIT_KERNEL takes real n > 1.
    """
    f = _integrand_fn(kind, n)
    arr = np.asarray(theta, dtype=np.float64)
    _check_theta(arr)
    out = f(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# The strip half-widths a for the kernel's node count (module docstring),
# 0.68 down to 0.0045 in steps of 1.4: between two of them N is within 2%
# of its value at the best a, and the smallest is best up to log n ~ 1e6.
# N is a multiple of 8, so that few kernel tables exist; each holds
# -2 sin^2(theta/2) and the weight at the N + 1 nodes.
_STRIP_WIDTHS = tuple(0.68 / 1.4**k for k in range(16))
_KERNEL_TABLE_ENTRIES = 32
_KERNEL_TABLE_MAX_INTERVALS = 2**12


@functools.cache
def _strip_table() -> tuple[tuple[float, float, float], ...]:
    # Per width a: (1 / 2a, cosh a - 1, log(2 pi M(a)) at log n = 0).
    k = np.arange(1, _CIRCLE_COEFFS.size + 1)
    return tuple(
        (
            0.5 / a,
            math.cosh(a) - 1.0,
            math.log(2.0 * math.pi * (2.0 + 2.0 * math.cosh(a)))
            + 2.0 * float(np.abs(_CIRCLE_COEFFS) @ np.cosh(k * a)),
        )
        for a in _STRIP_WIDTHS
    )


def _build_kernel_table(intervals: int) -> tuple[np.ndarray, np.ndarray]:
    theta = (math.pi / intervals) * np.arange(intervals + 1)
    theta[-1] = math.pi
    cos_m1, _, w = _build_node_table(theta)
    return cos_m1, w


@functools.lru_cache(maxsize=_KERNEL_TABLE_ENTRIES)
def _cached_kernel_table(intervals: int) -> tuple[np.ndarray, np.ndarray]:
    table = _build_kernel_table(intervals)
    for arr in table:
        arr.flags.writeable = False
    return table


def _kernel_table(intervals: int) -> tuple[np.ndarray, np.ndarray]:
    if intervals > _KERNEL_TABLE_MAX_INTERVALS:
        return _build_kernel_table(intervals)
    return _cached_kernel_table(intervals)


def _kernel_quadrature(n: float, config: QuadratureConfig) -> QuadratureResult:
    # The kernel's integral over [0, pi] (module docstring).  laplace_I(n)
    # / 2 is the guess of it: I_n / laplace_I is 1.997 at n = 2 and 1.034
    # at 1e8, above 1 at every n measured.
    log_n2 = 2.0 * math.log(n)
    guess = 0.5 * laplace_I(n)
    # No N takes the error below the rounding floor, about _FLOOR * value.
    target = 0.5 * max(config.abs_tol, (config.rel_tol + _FLOOR) * guess)
    # Smallest N over the widths with 2aN >= log(2 pi M(a) / target) + log 2,
    # which implies e^{2aN} - 1 >= 2 pi M(a) / target.
    shift = math.log(2.0 / target)
    need, half_inv_a, cosh_m1, log_m0 = min(
        ((shift + log_m0 + log_n2 * cosh_m1) * half_inv_a, half_inv_a, cosh_m1, log_m0)
        for half_inv_a, cosh_m1, log_m0 in _strip_table()
    )
    intervals = min(max(8, 8 * math.ceil(need / 8)), _MAX_NODES - 1)
    log_m = log_m0 + log_n2 * cosh_m1
    cos_m1, w = _kernel_table(intervals)
    ys, total_abs = _values(np.exp(cos_m1 * log_n2) * w, cos_m1, 0.0, math.pi, 0.0)
    total = math.fsum([0.5 * ys[0], *ys[1:-1], 0.5 * ys[-1]])
    total_abs -= 0.5 * (abs(ys[0]) + abs(ys[-1]))
    while True:
        h = math.pi / intervals
        value = h * total
        floor = _FLOOR * h * total_abs
        # 2 pi M(a) / (e^{2aN} - 1), without overflow at large 2aN.
        strip = math.exp(log_m - intervals / half_inv_a) / -math.expm1(-intervals / half_inv_a)
        error = strip + floor
        tolerance = max(config.abs_tol, config.rel_tol * abs(value))
        result = QuadratureResult(value, error, intervals + 1)
        if error <= tolerance:
            return result
        if floor > tolerance or 2 * intervals + 1 > _MAX_NODES:
            raise QuadratureConvergenceError(result, tolerance)
        intervals *= 2
        cos_m1, w = (arr[1::2] for arr in _kernel_table(intervals))
        ys, total_abs = _values(np.exp(cos_m1 * log_n2) * w, cos_m1, 0.0, math.pi, total_abs)
        total += math.fsum(ys)


def _half_range(
    integrate: Callable[[], QuadratureResult], scale: float
) -> QuadratureResult:
    # Integrands are even about theta = pi: integrate [0, pi], then apply
    # scale (2 for the full circle, 1/pi for the normalized mean).
    def scaled(r: QuadratureResult) -> QuadratureResult:
        return QuadratureResult(
            r.value * scale, r.abs_error_estimate * abs(scale), r.evaluations
        )

    try:
        return scaled(integrate())
    except QuadratureConvergenceError as exc:
        raise QuadratureConvergenceError(
            scaled(exc.best), exc.tolerance * abs(scale)
        ) from None


def I_n(n: float, config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Full-circle integral of the LIMIT_KERNEL integrand for real n >= 2.

    For large n the value behaves like sqrt(pi / log n); `laplace_I` gives
    that closed form and the ratio of the two tends to 1 from above with a
    leading correction of order 1/log n.

    One trapezoid batch on N intervals of [0, pi], N the smallest multiple
    of 8 that the kernel's strip bound certifies for half the tolerance
    laplace_I(n) would give; `evaluations` is N + 1.  abs_error_estimate is
    twice that bound plus twice the floor 64 eps h sum|f|, a proved upper
    bound on the error of the value.
    """
    if not n >= 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _half_range(lambda: _kernel_quadrature(n, config), 2.0)


def p_quadrature_result(
    n: int,
    kind: IntegrandKind | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Collision probability by quadrature, with its error estimate.

    kind=None picks EXACT_PRODUCT for n <= EXACT_PRODUCT_AUTO_MAX (1024)
    and GAMMA_RATIO above.  From n = 2^60 on GAMMA_RATIO is the kernel and
    is integrated as in `I_n`, with the strip bound in its estimate; below,
    every route runs the halving ladder of `quadrature`.
    This route evaluates an identity, so it reproduces the exact-arithmetic
    value for every n, large or small, to within the returned
    abs_error_estimate.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if kind is None:
        kind = (
            IntegrandKind.EXACT_PRODUCT
            if n <= EXACT_PRODUCT_AUTO_MAX
            else IntegrandKind.GAMMA_RATIO
        )
    if kind is IntegrandKind.LIMIT_KERNEL:
        raise ValueError("LIMIT_KERNEL is not a collision-probability identity; "
                         "use I_n for the asymptotic kernel")
    if kind is IntegrandKind.GAMMA_RATIO and n >= _LOG_ONLY_MIN_N:
        return _half_range(lambda: _kernel_quadrature(n, config), 1.0 / math.pi)
    f = _integrand_fn(kind, n)
    return _half_range(lambda: quadrature(f, 0.0, math.pi, config), 1.0 / math.pi)


def p_quadrature(
    n: int,
    kind: IntegrandKind | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Collision probability as the normalized mean of |g|^2 on the circle."""
    return p_quadrature_result(n, kind, config).value


def laplace_I(n: float) -> float:
    """Closed-form large-n value sqrt(pi / log n) of the kernel integral.

    The kernel concentrates at theta = 0 where it is a Gaussian of width
    1/sqrt(2 log n); integrating that Gaussian gives this expression.
    """
    if not n > 1:
        raise ValueError(f"n must be > 1, got {n}")
    return math.sqrt(math.pi / math.log(n))


def p_asymptotic(n: float) -> float:
    """Limiting collision probability 1 / (2 sqrt(pi log n)).

    Identically laplace_I(n) / (2 pi).
    """
    if not n > 1:
        raise ValueError(f"n must be > 1, got {n}")
    return 1.0 / (2.0 * math.sqrt(math.pi * math.log(n)))
