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
  1 - cos theta is taken as 2 sin^2(theta/2), free of cancellation near
  theta = 0: within 2.8e-15 relative of mpmath up to n = 2^1030.
* GAMMA_RATIO - the identity in O(1) per evaluation, as the kernel times
  a factor that tends to 1 (log|1 + z/j|^2 summed over j as cosine series):

      f_n = K_n exp(sum_{k=1}^{K(n)} d_k(n) (cos k theta - 1)),
      d_1 = 2 (H_{n-1} - log n - gamma),  d_k = 2 (-1)^k zeta(k, n) / k,

  with the Hurwitz zeta(k, n) from Euler-Maclaurin in floats for n >= 64
  and from a table built once by zeta(k, m) = zeta(k, m+1) + m^-k below.
  The d_1 term is taken with the kernel's, as -(1 - cos theta) 2 psi(n)
  (2 psi(n) = 2 log n + d_1): one product per node, as exact as the
  kernel's; a matrix product on the rows cos(k theta) - 1 adds d_2..d_K.
  f_1 is the constant 1.

  K(n) is the fewest leading terms whose tail moves the exponent by at
  most 2^-58: as |cos k theta - 1| <= 2 and |d_k| <= (2/k) (n^-k +
  n^{1-k} / (k - 1)) for k >= 2, bounds that fall by 1/n or more, the
  tail past K is at most 4 (n + K) / (K (K + 1) (n - 1) n^K), compared
  with 2^-58 in integers.  K is 54 (all the table has) at n = 2, where
  that tail is 2^-57.8; 35, 17, 9, 6, 3, 2 at n = 3, 10, 64, 1e3, 1e6,
  1e9; 1 from 2^59 + 2; and 0 from 2^60, where f_n is the kernel bit for
  bit, dropping d_1 and d_2, each about 1/n.
  The rule integrates the K-term function f_K, for which the strip bound
  below is exact; on the real line f_K is within 2^-58 (about eps/64) of
  f_n relative, so the rule's sum moves by at most 2^-58 h sum f, which
  the floor 64 eps h sum|f| = 2^-46 h sum f covers 4096 times over, as it
  covers the rounding of the values.  Against mpmath, on 117 equally
  spaced angles in [0, 2 pi] less the three within 0.1 of pi, f_n is
  within 1e-14 relative for n <= 1e3, 2e-14 at 1e6, 4e-14 at 2^58 and
  6e-14 at 2^59 and 2^60 - 1 (measured 8.1e-15, 1.5e-14, 2.8e-14, 4.6e-14
  and 4.1e-14), where the rounding of an exponent up to 4 log n in size
  sets the error.

All integrands are 2 pi-periodic and even about theta = pi, so integration
is done on [0, pi], endpoints included, and doubled.

I_n and GAMMA_RATIO (the default) take one batch of N + 1 nodes, N from
the strip bound of Trefethen & Weideman (Thm 3.2): on |Im theta| <= a <
ln 2 the integrand is at most

    M(a) = exp(2 log n (cosh a - 1)) (2 + 2 cosh a) exp(2 sum_k |a_k| cosh ka)
           exp(sum_{k<=K} (|d_k| cosh ka - d_k))

(a_k the weight's coefficients, gammafn; the last factor is 1 for the
kernel), so the rule on N intervals of [0, pi] is within
2 pi M(a) / (e^{2aN} - 1) of the integral.  N is the smallest, over a
fixed grid of a, that meets half the tolerance laplace_I(n) / 2 would
give (below the integral at every n measured), rounded up to a multiple
of 8, and doubled only if the estimate then misses the computed value's
tolerance.  The walk over the grid stops where N starts to rise, which
finds the smallest (see _STRIP_WIDTHS).  A batch, the first and each
doubling's midpoints, evaluates only its head, the nodes where the
kernel's exponent -(1 - cos theta) 2 log n is at least -C, C = 120 (one
searchsorted, 1 - cos theta rising along the nodes); up to log n = C/4
(n ~ 1.07e13) the head is every node.  On the real line cosh ka >= 1 >=
|cos k theta|, so the weight times the d_k factor is at most e^L_w / 2 pi,
L_w = log(2 pi M(a)) - 2 log n (cosh a - 1) at the chosen a, and every
node left out is at most e^(L_w - C) / 2 pi.  Its values are in
[0, 3.70] (the weight's peak; GAMMA_RATIO is at most 1), so one math.fsum
of the head, exactly rounded and unable to overflow, is the rule's sum
less the nodes left out, and because f >= 0 also the sum|f| of the
floor; it is not finite only if a value is not.  The estimate is that
bound plus the floor 64 eps h sum|f| of `quadrature` plus h e^(L_w - C)
/ 2 pi for each node left out, and `evaluations` is N + 1.  With C = 120
the last term is below 2^-101 h at every n and width (at most 2^16 + 1
nodes, L_w - log 2 pi <= 11.61), under half an ulp of the floor since
sum f >= f(0) / 2 = 1/2: it never moves the estimate's bits, and the
mass left out is below 2^-100 of the sum.
EXACT_PRODUCT, and n = 1, run the halving ladder of `quadrature`.

Every circle function is built from one table, the powers z^k, k =
1..54, of gammafn._circle_table: 1 - cos(theta), the weight and the rows
cos(k theta) - 1.  It is cached per process, read-only, one per N, 448
bytes a node, for every N <= 2^8: the 32 multiples of 8, and every N the
routes took at rel_tol >= 1e-13 when measured (at most 168).  Larger
tables are built and not stored, so the cache holds at most 1.9 MB.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable

import numpy as np

from . import _args

# p_asymptotic is not used here; it stays importable from this module.
from .asymptotic import laplace_I, p_asymptotic
from .gammafn import _CIRCLE_COEFFS, EULER_GAMMA, _blockwise, _check_theta, _circle_table
from .quadrature import (
    _FLOOR,
    _MAX_NODES,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
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
_TERMS = _CIRCLE_COEFFS.size
_K = np.arange(1.0, _TERMS + 1)
# From here on every d_k(n) is below double resolution (d_1 ~ -1/n): K(n) = 0.
_KERNEL_MIN_N = 2**60
# Euler-Maclaurin for zeta(k, n) from here on; a table below.
_EULER_MACLAURIN_MIN_N = 64
# The d_k left out move the exponent by at most 2^-_SERIES_TAIL_BITS
# (module docstring).
_SERIES_TAIL_BITS = 58
# d_k(n) / zeta(k, n) = 2 (-1)^k / k (and d_1 = -2 (log n - psi(n))).
_SERIES_SCALE = tuple(2.0 * (-1.0) ** k / k for k in range(1, _TERMS + 1))
# Row k - 1, k = 1..54: B_2j / (2j)! (k)_{2j-1}, j = 1..6, with (k)_m the
# rising factorial.
_EULER_MACLAURIN = tuple(
    tuple(
        b / math.factorial(2 * j) * math.prod(range(k, k + 2 * j - 1))
        for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), start=1)
    )
    for k in range(1, _TERMS + 1)
)


def _euler_maclaurin(n: int, terms: int) -> list[float]:
    # d_k(n) for k = 1..terms, n >= 64, by Euler-Maclaurin in floats:
    # zeta(k, n) = n^{1-k} / (k - 1) + n^-k / 2 + sum_j row_j[k] n^{-k-2j+1},
    # where for k = 1 the first term is replaced by -log n, giving
    # log n - psi(n).  The first omitted term is below 5e-12 of zeta(k, 64)
    # at k = 54 and far smaller at lower k.
    inv = 1.0 / n
    x = inv * inv
    out = []
    power = 1.0
    for k, scale, (c1, c2, c3, c4, c5, c6) in zip(
        range(1, terms + 1), _SERIES_SCALE, _EULER_MACLAURIN
    ):
        power *= inv
        lead = n / (k - 1) + 0.5 if k > 1 else 0.5
        corr = inv * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * c6)))))
        out.append(scale * power * (lead + corr))
    return out


def _series_terms(n: int) -> int:
    # K(n), n >= 2: the fewest leading d_k whose bound
    # 4 (n + k) / (k (k + 1) (n - 1) n^k) on what d_{k+1}, d_{k+2}, ...
    # move the exponent (module docstring) does not exceed
    # 2^-_SERIES_TAIL_BITS, checked in integers, so exactly; at most 54, and
    # 0 from n = 2^60 on.  For k <= 54, k (k + 1) <= 2970 < 2^11.6, so the
    # bound exceeds 4 / (2^11.6 n^k) and no k with
    # k log2 n < _SERIES_TAIL_BITS + 2 - 11.6 meets it: the check starts
    # at the first k not below that, K(n) or one short of it from n = 30.
    if n >= _KERNEL_MIN_N:
        return 0
    k = math.ceil((_SERIES_TAIL_BITS + 2 - 11.6) / math.log2(n))
    while k < _TERMS and (n + k) << _SERIES_TAIL_BITS + 2 > k * (k + 1) * (n - 1) * n**k:
        k += 1
    return k


@functools.cache
def _small_series_table() -> np.ndarray:
    # Row n - 2, n = 2..63: d_k(n), k = 1..54, read-only.  2 psi(m) and
    # d_k(m), k >= 2, run down from m = 64 by
    # d_k(m) = d_k(m + 1) + 2 (-1)^k m^-k / k, adding the smallest terms
    # first; 2 psi(m) follows with step -2 / m, and d_1 = 2 psi(m) - 2 log m.
    top = _euler_maclaurin(_EULER_MACLAURIN_MIN_N, _TERMS)
    top[0] += 2.0 * math.log(_EULER_MACLAURIN_MIN_N)
    steps = (1.0 / np.arange(_EULER_MACLAURIN_MIN_N - 1, 1, -1))[:, None] ** _K * _SERIES_SCALE
    table = np.cumsum(np.vstack([top, steps]), axis=0)[:0:-1]
    table[:, 0] -= [2.0 * math.log(n) for n in range(2, _EULER_MACLAURIN_MIN_N)]
    table.flags.writeable = False
    return table


def _series_coeffs(n: int) -> np.ndarray | None:
    # d_1..d_K(n) of the GAMMA_RATIO integrand, n >= 2, read-only below
    # n = 64; None from n = 2^60 on.
    # d_1 = -2 (log n - psi(n)) = 2 (H_{n-1} - log n - gamma).
    if n >= _KERNEL_MIN_N:
        return None
    if n < _EULER_MACLAURIN_MIN_N:
        return _small_series_table()[n - 2, : _series_terms(n)]
    return np.array(_euler_maclaurin(n, _series_terms(n)))


def harmonic(m: int) -> float:
    """Harmonic number H_m = 1 + 1/2 + ... + 1/m (H_0 = 0) for integer m >= 0.

    Exact-rounded summation below m = 64; from there the Euler-Maclaurin
    expansion H_m = log m + gamma + 1/m - (log m - psi(m)) that the
    GAMMA_RATIO integrand uses, within 1e-15 relative; from m = 2^60 on,
    log m + gamma, also above the double range.  m follows the package's
    integer contract (README, "Inputs").
    """
    m = _args.integer("m", m, 0)
    if m < _EULER_MACLAURIN_MIN_N:
        return math.fsum(1.0 / r for r in range(1, m + 1))
    if m >= _KERNEL_MIN_N:
        return math.log(m) + EULER_GAMMA
    return math.log(m) + EULER_GAMMA + (1.0 / m + 0.5 * _euler_maclaurin(m, 1)[0])


# Factors per chunk of the product, and elements per angles-by-factors
# block of its log1p terms: 128 KiB of float64 a temporary at any n and
# any number of angles.  The chunks start at j = 1, 1 + 2^14, ..., so an
# angle sums the same chunks alone as inside an array.
_PRODUCT_CHUNK = 1 << 14


def _exact_product_values(n: int, theta: np.ndarray) -> np.ndarray:
    # |prod_{j=0}^{n-1} (e^{i theta} + j)|^2 / (n!)^2
    #     = n^-2 prod_{j=1}^{n-1} (1 + 2 cos(theta) / j + 1 / j^2),
    # summed as log1p terms, so no sum of size log n! is cancelled.  The
    # j = 1 factor is 2 + 2 cos, exactly 0 at theta = pi, where
    # log1p(-1) = -inf gives the exact 0.
    ct2 = 2.0 * np.cos(theta)
    acc = np.zeros_like(theta)
    rows = _PRODUCT_CHUNK // max(1, min(n - 1, _PRODUCT_CHUNK))
    with np.errstate(divide="ignore"):
        for start in range(1, n, _PRODUCT_CHUNK):
            r = 1.0 / np.arange(start, min(n, start + _PRODUCT_CHUNK), dtype=np.float64)
            r2 = r * r
            for a in range(0, theta.size, rows):
                block = np.multiply.outer(ct2[a : a + rows], r) + r2
                acc[a : a + rows] += np.log1p(block).sum(axis=-1)
    return np.exp(acc) / (float(n) * n)


def _circle_values(
    log_n2: float,
    delta: np.ndarray | None,
    one_m_cos: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    # K_n exp(sum_{k<=K} d_k (cos k theta - 1)), or K_n alone; log_n2 is
    # 2 log n, exact wherever the factor 2 is applied.  The d_1 term joins
    # the kernel's, as -(1 - cos theta) (2 log n + d_1), 2 log n + d_1
    # = 2 psi(n).
    if delta is None:
        exponent = one_m_cos * -log_n2
    else:
        exponent = one_m_cos * -(log_n2 + delta[0])
        if len(delta) > 1:
            exponent += rows[:, 1 : len(delta)] @ delta[1:]
    np.exp(exponent, out=exponent)
    exponent *= w
    return exponent


def _circle_fn(n: float, delta: np.ndarray | None) -> Callable[[np.ndarray], np.ndarray]:
    # math.log takes n as given, so an int n above the double range works.
    log_n2 = 2.0 * math.log(n)

    def block(theta: np.ndarray) -> np.ndarray:
        return _circle_values(log_n2, delta, *_circle_table(theta))

    # In blocks of 2^12 nodes: the power table and the rows take 1.3 kB a
    # node while they live.
    return functools.partial(_blockwise, block)


def _integrand_fn(kind: IntegrandKind, n: float) -> Callable[[np.ndarray], np.ndarray]:
    if kind is IntegrandKind.EXACT_PRODUCT:
        n = _args.integer("n", n, 1)
        return lambda t: _exact_product_values(n, t)
    if kind is IntegrandKind.GAMMA_RATIO:
        n = _args.integer("n", n, 1)
        return np.ones_like if n == 1 else _circle_fn(n, _series_coeffs(n))
    if kind is IntegrandKind.LIMIT_KERNEL:
        return _circle_fn(_args.real_n(n), None)
    raise ValueError(f"unknown integrand kind: {kind!r}")


def integrand(
    kind: IntegrandKind, n: float, theta: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate one of the unit-circle integrands at theta in [0, 2*pi].

    EXACT_PRODUCT and GAMMA_RATIO take integer n >= 1 and agree to
    ~1e-14 relative away from theta = pi (the product form is the oracle);
    LIMIT_KERNEL takes real n > 1.  ValueError for an angle outside
    [0, 2*pi], NaN included.

    A scalar angle gives the bits of the same angle inside an array.  For
    EXACT_PRODUCT this holds at every n, as it sums the factors in chunks
    of 2^14 from j = 1 however many angles it is given, and no temporary
    outgrows 2^14 elements.  The exception is GAMMA_RATIO below
    n = 438353266, where K(n) > 2: its matrix product
    sum_{k=2}^K d_k (cos k theta - 1), of two or more terms, rounds
    differently for different array lengths, which moved the last bits
    at 220, 99, 2, 0 and 0 of 600 uniform random angles at n = 2, 3, 20,
    100 and 1000.
    """
    f = _integrand_fn(kind, n)
    arr = np.asarray(theta, dtype=np.float64)
    _check_theta(arr)
    out = f(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# The strip half-widths a for the node count (module docstring), 0.68
# down to 0.0045 in steps of 1.4: between two of them N is within 2% of
# its value at the best a.  need(a) = g(a) / 2a with g(a) = log(4 pi M(a)
# / target) convex in a, so (need)' has the sign of a g' - g, which grows
# with a: need falls to one minimum and then rises, and `_strip_choice`
# walks from the widest a and stops at the first rise.  For n <= 2^1030
# at rel_tol 1e-3 ... 1e-12 the best a is one of the five widest, 0.68
# down to 0.177, so the walk takes at most six steps.  N is a multiple
# of 8, so that few tables exist.
_STRIP_WIDTHS = tuple(0.68 / 1.4**k for k in range(16))
# The kernel's need(a) has no d_k term.
_NO_EXTRA = (0.0,) * len(_STRIP_WIDTHS)
# The cached tables: every N <= 2^8, the 32 multiples of 8 (module
# docstring).
_TABLE_ENTRIES = 32
_TABLE_MAX_INTERVALS = 2**8
# C of the head cut (module docstring): a batch leaves out the nodes where
# the kernel's exponent is below -C.
_HEAD_CUT = 120.0


@functools.cache
def _strip_table() -> tuple[tuple[tuple[float, float, float], ...], np.ndarray]:
    # Per width a: (1 / 2a, cosh a - 1, log(2 pi M(a)) at log n = 0 for the
    # kernel), and (-1)^k cosh(k a) - 1, k = 1..54, for the d_k factor, one
    # row per a, read-only.
    rows = tuple(
        (
            0.5 / a,
            math.cosh(a) - 1.0,
            math.log(2.0 * math.pi * (2.0 + 2.0 * math.cosh(a)))
            + 2.0 * float(np.abs(_CIRCLE_COEFFS) @ np.cosh(_K * a)),
        )
        for a in _STRIP_WIDTHS
    )
    signed_rows = (-1.0) ** _K * np.cosh(np.multiply.outer(_STRIP_WIDTHS, _K)) - 1.0
    signed_rows.flags.writeable = False
    return rows, signed_rows


def _nodes(intervals: int) -> np.ndarray:
    # The bytes of np.linspace(0, pi, intervals + 1).
    theta = (math.pi / intervals) * np.arange(intervals + 1)
    theta[-1] = math.pi
    return theta


def _new_node_table(intervals: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The circle table at the N + 1 nodes, read-only.  A batch leaves out
    # the nodes past its head unseen, so a weight that is not finite is
    # rejected here, before any batch uses the table.
    table = _circle_table(_nodes(intervals))
    if not np.isfinite(table[1]).all():
        raise ValueError("circle weight not finite")
    for arr in table:
        arr.flags.writeable = False
    return table


_cached_node_table = functools.lru_cache(maxsize=_TABLE_ENTRIES)(_new_node_table)


def _node_table(intervals: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if intervals > _TABLE_MAX_INTERVALS:
        return _new_node_table(intervals)
    return _cached_node_table(intervals)


def _strip_choice(
    n: float, log_n2: float, config: QuadratureConfig, delta: np.ndarray | None
) -> tuple[int, float, float, float]:
    # (N, 1 / 2a, log(2 pi M(a)), L_w) at the strip width a with the
    # smallest need(a), ties to the wider a, L_w the part of log(2 pi M(a))
    # without the kernel's growth: the min over every width, found by the
    # walk that stops at need's first rise (_STRIP_WIDTHS).  laplace_I(n)
    # / 2 is the guess of the integral over [0, pi]: I_n / laplace_I is
    # 1.997 at n = 2 and 1.034 at 1e8, and pi p(n) is above it too, by
    # r(n) > 1.
    guess = 0.5 * laplace_I(n)
    # No N takes the error below the rounding floor, about _FLOOR * value.
    target = 0.5 * max(config.abs_tol, (config.rel_tol + _FLOOR) * guess)
    # need(a) is the N with 2aN = log(2 pi M(a) / target) + log 2, and
    # 2aN >= that implies e^{2aN} - 1 >= 2 pi M(a) / target.
    shift = math.log(2.0 / target)
    rows, signed_rows = _strip_table()
    # sum_k (|d_k| cosh ka - d_k) = sum_k d_k ((-1)^k cosh ka - 1), since
    # d_k has the sign of (-1)^k (zeta(k, n) > 0 and psi(n) < log n), over
    # the K kept terms.
    if delta is None:
        extra = _NO_EXTRA
    else:
        extra = (signed_rows[:, : len(delta)] @ delta).tolist()
    best = math.inf
    for (half_inv_a, cosh_m1, log_m0), e in zip(rows, extra):
        grow = log_n2 * cosh_m1
        need = (shift + log_m0 + grow + e) * half_inv_a
        if need < best:
            best, best_half_inv_a = need, half_inv_a
            best_log_m0, best_grow, best_e = log_m0, grow, e
        elif need > best:
            break
    intervals = min(max(8, 8 * math.ceil(best / 8)), _MAX_NODES - 1)
    return intervals, best_half_inv_a, best_log_m0 + best_grow + best_e, best_log_m0 + best_e


def _batch_sum(
    log_n2: float, delta: np.ndarray | None, one_m_cos: np.ndarray, w: np.ndarray,
    rows: np.ndarray, ends: bool = False,
) -> tuple[float, int]:
    # sum f over one batch's head, `ends` at half weight, exactly rounded,
    # and the number of nodes left out.  Every f is in [0, 3.70], so this
    # is also the head's sum|f| and, on at most 2^16 + 1 nodes, not finite
    # only if a value is not.  The head is the nodes with the kernel's
    # exponent >= -_HEAD_CUT (module docstring).
    head = one_m_cos.searchsorted(_HEAD_CUT / log_n2, "right")
    ys = _circle_values(log_n2, delta, one_m_cos[:head], w[:head], rows[:head]).tolist()
    # A Python int, from the list: numpy's would make the estimate a numpy
    # float.
    left_out = one_m_cos.size - len(ys)
    if ends:
        ys[0] *= 0.5
        if not left_out:
            ys[-1] *= 0.5
    total = math.fsum(ys)
    if not math.isfinite(total):
        raise ValueError(f"integrand not finite on [0.0, {math.pi}]")
    return total, left_out


def _kernel_quadrature(
    n: float, config: QuadratureConfig, delta: np.ndarray | None, scale: float
) -> QuadratureResult:
    # scale > 0 times the integral over [0, pi] of the kernel, or with
    # delta of the GAMMA_RATIO integrand (module docstring): 2 for the
    # full circle, 1/pi for the normalized mean.  The tolerance applies to
    # the integral over [0, pi].
    log_n2 = 2.0 * math.log(n)
    intervals, half_inv_a, log_m, log_w = _strip_choice(n, log_n2, config, delta)
    total, left_out = _batch_sum(log_n2, delta, *_node_table(intervals), ends=True)
    while True:
        h = math.pi / intervals
        value = h * total
        floor = _FLOOR * h * total
        # 2 pi M(a) / (e^{2aN} - 1), without overflow at large 2aN.
        strip = math.exp(log_m - intervals / half_inv_a) / -math.expm1(-intervals / half_inv_a)
        error = strip + floor
        if left_out:
            # h times the most each node left out of a head can be (module
            # docstring).
            error += h * left_out * math.exp(log_w - _HEAD_CUT) / (2.0 * math.pi)
        tolerance = max(config.abs_tol, config.rel_tol * abs(value))
        if error <= tolerance:
            return QuadratureResult(value * scale, error * scale, intervals + 1)
        if floor > tolerance or 2 * intervals + 1 > _MAX_NODES:
            raise QuadratureConvergenceError(
                QuadratureResult(value * scale, error * scale, intervals + 1),
                tolerance * scale,
            )
        intervals *= 2
        midpoints = (arr[1::2] for arr in _node_table(intervals))
        more, more_left_out = _batch_sum(log_n2, delta, *midpoints)
        total += more
        left_out += more_left_out


def _scaled(r: QuadratureResult, scale: float) -> QuadratureResult:
    # The ladder integrates [0, pi]; the integrands are even about pi.
    return QuadratureResult(r.value * scale, r.abs_error_estimate * scale, r.evaluations)


def I_n(n: float, config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Full-circle integral of the LIMIT_KERNEL integrand for real n >= 2.

    For large n the value behaves like sqrt(pi / log n); `laplace_I` gives
    that closed form and the ratio of the two tends to 1 from above with a
    leading correction of order 1/log n.

    One trapezoid batch on N intervals of [0, pi], N the smallest multiple
    of 8 that the kernel's strip bound certifies for half the tolerance
    laplace_I(n) would give; `evaluations` is N + 1.  abs_error_estimate is
    twice that bound plus twice the floor 64 eps h sum|f| plus twice h
    times a bound on each node too small to reach the sum, which the batch
    leaves out (module docstring): a proved upper bound on the error of
    the value.
    """
    n = _args.real_n(n)
    if n < 2:
        raise ValueError(f"n must be finite and >= 2, got {n!r}")
    return _kernel_quadrature(n, config, None, 2.0)


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
    n = _args.integer("n", n, 1)
    if kind is IntegrandKind.LIMIT_KERNEL:
        raise ValueError("LIMIT_KERNEL is not a collision-probability identity; "
                         "use I_n for the asymptotic kernel")
    scale = 1.0 / math.pi
    if kind is None or kind is IntegrandKind.GAMMA_RATIO:
        if n > 1:
            return _kernel_quadrature(n, config, _series_coeffs(n), scale)
        kind = IntegrandKind.EXACT_PRODUCT
    f = _integrand_fn(kind, n)
    try:
        return _scaled(quadrature(f, 0.0, math.pi, config), scale)
    except QuadratureConvergenceError as exc:
        raise QuadratureConvergenceError(
            _scaled(exc.best, scale), exc.tolerance * scale
        ) from None


def p_quadrature(
    n: int,
    kind: IntegrandKind | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Collision probability as the normalized mean of |g|^2 on the circle."""
    return p_quadrature_result(n, kind, config).value

