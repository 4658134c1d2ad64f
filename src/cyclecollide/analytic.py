"""Integral and closed-form routes to the cycle-count collision probability.

The starting point is the coefficient power-sum identity: for a polynomial
g(z) = sum a_k z^k with real coefficients,

    sum_k a_k^2 = (1/2pi) integral_0^{2pi} |g(e^{i theta})|^2 d theta.

Applied to the rising factorial x (x+1) ... (x+n-1), whose coefficients
count permutations by cycle number, the collision probability becomes the
mean over the circle of |Gamma(z+n) / (Gamma(z) n!)|^2, z = e^{i theta}.
Three integrands:

* EXACT_PRODUCT - n^-2 prod_{j=1}^{n-1} (1 + 2 cos(theta)/j + 1/j^2) as
  log1p terms, O(n) per evaluation: the oracle.  A trigonometric
  polynomial of degree n - 1, integrated exactly by the trapezoid rule on
  N >= n/2 intervals of [0, pi].
* LIMIT_KERNEL - K_n = exp(2(cos theta - 1) log n) w, w the weight
  1/|Gamma(e^{i theta})|^2, whose integral I(n) tends to sqrt(pi / log n).
  cos theta - 1 is taken as -2 sin^2(theta/2), free of cancellation near
  theta = 0: within 2.8e-15 relative of mpmath up to n = 2^1030.
* GAMMA_RATIO - the identity in O(1) per evaluation, as the kernel times
  a factor that tends to 1 (log|1 + z/j|^2 summed over j as cosine series):

      f_n = K_n exp(sum_{k=1}^{54} d_k(n) (cos k theta - 1)),
      d_1 = 2 (H_{n-1} - log n - gamma),  d_k = 2 (-1)^k zeta(k, n) / k,

  with the Hurwitz zeta(k, n) from Euler-Maclaurin for n >= 64 and from a
  table built once by zeta(k, m) = zeta(k, m+1) + m^-k below.  From
  n = 2^60 on every d_k is below double resolution and f_n is the kernel,
  bit for bit; f_1 is the constant 1.  Within 1.1e-14 relative of mpmath
  for n <= 1e6 (3.2e-14 near 2^60) away from theta = pi.

All integrands are 2 pi-periodic and even about theta = pi, so integration
is done on [0, pi], endpoints included, and doubled.

I_n and GAMMA_RATIO (the default) take one batch of N + 1 nodes, N from
the strip bound of Trefethen & Weideman (Thm 3.2): on |Im theta| <= a <
ln 2 the integrand is at most

    M(a) = exp(2 log n (cosh a - 1)) (2 + 2 cosh a) exp(2 sum_k |a_k| cosh ka)
           exp(sum_k (|d_k| cosh ka - d_k))

(a_k the weight's coefficients, gammafn; the last factor is 1 for the
kernel), so the rule on N intervals of [0, pi] is within
2 pi M(a) / (e^{2aN} - 1) of the integral.  N is the smallest, over a
fixed grid of a, that meets half the tolerance laplace_I(n) / 2 would
give (below the integral at every n measured), rounded up to a multiple
of 8, and doubled only if the estimate then misses the computed value's
tolerance.  The estimate is that bound plus the floor 64 eps h sum|f| of
`quadrature`, and `evaluations` is N + 1.  EXACT_PRODUCT, and n = 1, run
the halving ladder of `quadrature`.

The tables are cached per process, read-only: cos(theta) - 1 and the
weight, 16 bytes a node, for at most 32 N <= 2^12 (2.1 MB); and for
GAMMA_RATIO cos(k theta) - 1, k = 1..54, 432 bytes a node, for the six
N <= 48 (75 kB), every N it took at rel_tol >= 1e-13 when measured.
Larger tables are built and not stored, so the cache holds at most 2.2 MB.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from typing import Callable

import numpy as np

from .gammafn import _CIRCLE_COEFFS, EULER_GAMMA, _check_theta, _circle_weight
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

# No code in this package reads this constant.  It stays only because the
# benchmark in bench/ imports it; ROADMAP item 6 moves it there.
EXACT_PRODUCT_AUTO_MAX = 1024


class IntegrandKind(Enum):
    """Which unit-circle integrand to evaluate."""

    EXACT_PRODUCT = "exact-product"
    GAMMA_RATIO = "gamma-ratio"
    LIMIT_KERNEL = "limit-kernel"


# k = 1..54, the terms of the weight's series and of d_k(n).
_K = np.arange(1.0, _CIRCLE_COEFFS.size + 1)
# From here on every d_k(n) is below double resolution (d_1 ~ -1/n).
_KERNEL_MIN_N = 2**60
# Euler-Maclaurin for zeta(k, n) from here on; a table below.
_EULER_MACLAURIN_MIN_N = 64
# B_2j / (2j)! (k)_{2j-1}, j = 1..6 (rows) and k = 1..54 (columns), with
# (k)_m the rising factorial: zeta(k, n) = n^{1-k} / (k - 1) + n^-k / 2
# + sum_j row_j[k] n^{-k-2j+1}, where for k = 1 the first term is replaced
# by -log n, giving -psi(n).  The first omitted term is below 5e-12 of
# zeta(k, 64) at k = 54 and far smaller at lower k.
_EULER_MACLAURIN = np.array([
    [b / math.factorial(2 * j) * math.prod(range(k, k + 2 * j - 1)) for k in range(1, 55)]
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), start=1)
])
_ODD_POWERS = np.arange(1.0, 12.0, 2.0)
# n / (k - 1) for k >= 2 as n * this; 0 for k = 1.
_LEADING = np.concatenate(([0.0], 1.0 / _K[:-1]))


def _hurwitz_row(n: int) -> np.ndarray:
    # log n - psi(n), then zeta(k, n) for k = 2..54; n >= 2.
    if n < _EULER_MACLAURIN_MIN_N:
        row = _small_hurwitz_table()[n - 1].copy()
        row[0] += math.log(n)
        return row
    inv = 1.0 / n
    return inv**_K * (n * _LEADING + 0.5 + inv**_ODD_POWERS @ _EULER_MACLAURIN)


@functools.cache
def _small_hurwitz_table() -> np.ndarray:
    # Row m - 1, m = 1..64: -psi(m), then zeta(k, m) for k = 2..54, by
    # zeta(k, m) = zeta(k, m + 1) + m^-k down from m = 64 (psi follows the
    # same recurrence with k = 1), adding the smallest terms first.
    top = _hurwitz_row(_EULER_MACLAURIN_MIN_N)
    top[0] -= math.log(_EULER_MACLAURIN_MIN_N)
    steps = (1.0 / np.arange(_EULER_MACLAURIN_MIN_N - 1, 0, -1))[:, None] ** _K
    return np.cumsum(np.vstack([top, steps]), axis=0)[::-1]


def _series_coeffs(n: int) -> np.ndarray | None:
    # d_k(n) of the GAMMA_RATIO integrand, n >= 2; None from n = 2^60 on.
    # d_1 = -2 (log n - psi(n)) = 2 (H_{n-1} - log n - gamma).
    if n >= _KERNEL_MIN_N:
        return None
    return (2.0 * (-1.0) ** _K / _K) * _hurwitz_row(n)


def harmonic(m: int) -> float:
    """Harmonic number H_m = 1 + 1/2 + ... + 1/m (H_0 = 0) for integer m >= 0.

    Exact-rounded summation below m = 64; from there the Euler-Maclaurin
    expansion H_m = log m + gamma + 1/m - (log m - psi(m)) that the
    GAMMA_RATIO integrand uses, within 1e-15 relative; from m = 2^60 on,
    log m + gamma, also above the double range.  ValueError for a
    negative or non-integer m.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError(f"m must be an integer, got {m!r}") from None
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m < _EULER_MACLAURIN_MIN_N:
        return math.fsum(1.0 / r for r in range(1, m + 1))
    if m >= _KERNEL_MIN_N:
        return math.log(m) + EULER_GAMMA
    return math.log(m) + EULER_GAMMA + (1.0 / m - float(_hurwitz_row(m)[0]))


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


def _build_node_table(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cos(theta) - 1 and 1/|Gamma(e^{i theta})|^2 in its entire, pole-free
    # form, exactly 0 at theta = pi.  cos(theta) - 1 is taken as
    # -2 sin^2(theta / 2): np.cos(theta) - 1 cancels near theta = 0, where
    # the kernel's exponent (cos(theta) - 1) 2 log n would carry an error
    # of eps 2 log n, 7.8e-14 relative to mpmath at n = 2^1030.
    half = np.sin(0.5 * theta)
    return -2.0 * half * half, _circle_weight(np.cos(theta) + 1j * np.sin(theta))


def _build_series_table(theta: np.ndarray) -> np.ndarray:
    # cos(k theta) - 1 = -2 sin^2(k theta / 2), one row per k = 1..54.
    half = np.sin(np.multiply.outer(0.5 * _K, theta))
    return -2.0 * half * half


def _circle_values(
    log_n2: float,
    delta: np.ndarray | None,
    cos_m1: np.ndarray,
    w: np.ndarray,
    series: np.ndarray | None,
) -> np.ndarray:
    # K_n exp(sum_k d_k (cos k theta - 1)), or the kernel K_n alone; log_n2
    # is 2 log n, exact wherever the factor 2 is applied.
    exponent = cos_m1 * log_n2
    if delta is not None:
        exponent += delta @ series
    return np.exp(exponent) * w


def _circle_fn(n: float, delta: np.ndarray | None) -> Callable[[np.ndarray], np.ndarray]:
    # math.log takes n as given, so an int n above the double range works.
    log_n2 = 2.0 * math.log(n)

    def block(theta: np.ndarray) -> np.ndarray:
        series = None if delta is None else _build_series_table(theta)
        return _circle_values(log_n2, delta, *_build_node_table(theta), series)

    def values(theta: np.ndarray) -> np.ndarray:
        # In blocks of 2^12 nodes: the weight's power table and the series
        # table take 1.3 kB a node while they live.
        return np.concatenate([block(t) for t in np.split(theta, range(4096, theta.size, 4096))])

    return values


def _integrand_fn(kind: IntegrandKind, n: float) -> Callable[[np.ndarray], np.ndarray]:
    if kind is IntegrandKind.EXACT_PRODUCT:
        if n < 1 or int(n) != n:
            raise ValueError(f"EXACT_PRODUCT requires integer n >= 1, got {n}")
        return lambda t: _exact_product_values(int(n), t)
    if kind is IntegrandKind.GAMMA_RATIO:
        if n < 1 or int(n) != n:
            raise ValueError(f"GAMMA_RATIO requires integer n >= 1, got {n}")
        return np.ones_like if n == 1 else _circle_fn(n, _series_coeffs(int(n)))
    if kind is IntegrandKind.LIMIT_KERNEL:
        if not n > 1:
            raise ValueError(f"LIMIT_KERNEL requires real n > 1, got {n}")
        return _circle_fn(n, None)
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


# The strip half-widths a for the node count (module docstring), 0.68
# down to 0.0045 in steps of 1.4: between two of them N is within 2% of
# its value at the best a, and the smallest is best up to log n ~ 1e6.
# N is a multiple of 8, so that few tables exist.
_STRIP_WIDTHS = tuple(0.68 / 1.4**k for k in range(16))
_KERNEL_TABLE_ENTRIES = 32
_KERNEL_TABLE_MAX_INTERVALS = 2**12
_SERIES_TABLE_ENTRIES = 6
_SERIES_TABLE_MAX_INTERVALS = 48


@functools.cache
def _strip_table() -> tuple[tuple[tuple[float, float, float], ...], np.ndarray]:
    # Per width a: (1 / 2a, cosh a - 1, log(2 pi M(a)) at log n = 0 for the
    # kernel), and cosh(k a) for the d_k factor, one row per a.
    rows = tuple(
        (
            0.5 / a,
            math.cosh(a) - 1.0,
            math.log(2.0 * math.pi * (2.0 + 2.0 * math.cosh(a)))
            + 2.0 * float(np.abs(_CIRCLE_COEFFS) @ np.cosh(_K * a)),
        )
        for a in _STRIP_WIDTHS
    )
    return rows, np.cosh(np.multiply.outer(_STRIP_WIDTHS, _K))


def _nodes(intervals: int) -> np.ndarray:
    # The bytes of np.linspace(0, pi, intervals + 1).
    theta = (math.pi / intervals) * np.arange(intervals + 1)
    theta[-1] = math.pi
    return theta


@functools.lru_cache(maxsize=_KERNEL_TABLE_ENTRIES)
def _cached_kernel_table(intervals: int) -> tuple[np.ndarray, np.ndarray]:
    table = _build_node_table(_nodes(intervals))
    for arr in table:
        arr.flags.writeable = False
    return table


def _kernel_table(intervals: int) -> tuple[np.ndarray, np.ndarray]:
    if intervals > _KERNEL_TABLE_MAX_INTERVALS:
        return _build_node_table(_nodes(intervals))
    return _cached_kernel_table(intervals)


@functools.lru_cache(maxsize=_SERIES_TABLE_ENTRIES)
def _cached_series_table(intervals: int) -> np.ndarray:
    table = _build_series_table(_nodes(intervals))
    table.flags.writeable = False
    return table


def _series_table(intervals: int) -> np.ndarray:
    if intervals > _SERIES_TABLE_MAX_INTERVALS:
        return _build_series_table(_nodes(intervals))
    return _cached_series_table(intervals)


def _kernel_quadrature(
    n: float, config: QuadratureConfig, delta: np.ndarray | None = None
) -> QuadratureResult:
    # The integral over [0, pi] of the kernel, or with delta of the
    # GAMMA_RATIO integrand (module docstring).  laplace_I(n) / 2 is the
    # guess of it: I_n / laplace_I is 1.997 at n = 2 and 1.034 at 1e8, and
    # pi p(n) is above it too, by r(n) > 1.
    log_n2 = 2.0 * math.log(n)
    guess = 0.5 * laplace_I(n)
    # No N takes the error below the rounding floor, about _FLOOR * value.
    target = 0.5 * max(config.abs_tol, (config.rel_tol + _FLOOR) * guess)
    # Smallest N over the widths with 2aN >= log(2 pi M(a) / target) + log 2,
    # which implies e^{2aN} - 1 >= 2 pi M(a) / target.
    shift = math.log(2.0 / target)
    rows, cosh_ka = _strip_table()
    extra = [0.0] * len(rows) if delta is None else (cosh_ka @ np.abs(delta) - delta.sum()).tolist()
    need, half_inv_a, log_m = min(
        (
            (shift + log_m0 + log_n2 * cosh_m1 + e) * half_inv_a,
            half_inv_a,
            log_m0 + log_n2 * cosh_m1 + e,
        )
        for (half_inv_a, cosh_m1, log_m0), e in zip(rows, extra)
    )
    intervals = min(max(8, 8 * math.ceil(need / 8)), _MAX_NODES - 1)
    cos_m1, w = _kernel_table(intervals)
    series = None if delta is None else _series_table(intervals)
    ys, total_abs = _values(
        _circle_values(log_n2, delta, cos_m1, w, series), cos_m1, 0.0, math.pi, 0.0
    )
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
        series = None if delta is None else _series_table(intervals)[:, 1::2]
        ys, total_abs = _values(
            _circle_values(log_n2, delta, cos_m1, w, series), cos_m1, 0.0, math.pi, total_abs
        )
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

    kind=None is GAMMA_RATIO, integrated at every n >= 2 as `I_n` is: one
    batch on the N intervals of [0, pi] that the strip bound certifies,
    with that bound in its estimate.  EXACT_PRODUCT, the O(n) oracle, and
    n = 1, where both identity integrands are the constant 1, run the
    halving ladder of `quadrature`.
    This route evaluates an identity, so it reproduces the exact-arithmetic
    value for every n, large or small, to within the returned
    abs_error_estimate.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if kind is IntegrandKind.LIMIT_KERNEL:
        raise ValueError("LIMIT_KERNEL is not a collision-probability identity; "
                         "use I_n for the asymptotic kernel")
    if kind is None or kind is IntegrandKind.GAMMA_RATIO:
        if n > 1:
            n = int(n)
            return _half_range(
                lambda: _kernel_quadrature(n, config, _series_coeffs(n)), 1.0 / math.pi
            )
        kind = IntegrandKind.EXACT_PRODUCT
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
