"""Integral and closed-form routes to the cycle-count collision probability.

The starting point is the coefficient power-sum identity: for a polynomial
g(z) = sum a_k z^k with real coefficients,

    sum_k a_k^2 = (1/2pi) integral_0^{2pi} |g(e^{i theta})|^2 d theta.

Applied to the rising factorial x (x+1) ... (x+n-1), whose coefficients
count permutations by cycle number, the collision probability becomes the
mean over the circle of |Gamma(z+n) / (Gamma(z) n!)|^2, z = e^{i theta}.
Three integrands:

* EXACT_PRODUCT - n^-2 prod_{j=1}^{n-1} (1 + 2 cos(theta)/j + 1/j^2) as
  log1p terms in numpy, O(n) per evaluation: the oracle.  A trigonometric
  polynomial of degree n - 1, integrated exactly by the trapezoid rule on
  N >= n/2 intervals of [0, pi].
* LIMIT_KERNEL - K_n = exp(2(cos theta - 1) log n) w, w the weight
  1/|Gamma(e^{i theta})|^2, whose integral I(n) tends to sqrt(pi / log n).
  1 - cos theta is taken as 2 sin^2(theta/2), free of cancellation near
  theta = 0: within 3.6e-15 relative of mpmath up to n = 2^1030.
* GAMMA_RATIO - the identity in O(1) per evaluation, as the kernel times
  a factor that tends to 1 (log|1 + z/j|^2 summed over j as cosine series):

      f_n = K_n exp(sum_{k=1}^{K(n)} d_k(n) (cos k theta - 1)),
      d_1 = 2 (H_{n-1} - log n - gamma),  d_k = 2 (-1)^k zeta(k, n) / k,

  with the Hurwitz zeta(k, n) from Euler-Maclaurin in floats for n >= 64
  and from a table built once by zeta(k, m) = zeta(k, m+1) + m^-k below.
  The d_1 term is taken with the kernel's, as -(1 - cos theta) 2 psi(n)
  (2 psi(n) = 2 log n + d_1): one product per node, as exact as the
  kernel's.  d_K (cos K theta - 1) + ... + d_2 (cos 2 theta - 1) is summed
  from the smallest term, one pass over the nodes a kept d_k, and added
  to that exponent.  f_1 is the constant 1.

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
  6e-14 at 2^59 and 2^60 - 1 (measured 7.8e-15, 1.4e-14, 2.8e-14, 4.5e-14
  and 4.1e-14), where the rounding of an exponent up to 4 log n in size
  sets the error.

All integrands are 2 pi-periodic and even about theta = pi, so integration
is done on [0, pi], endpoints included, and doubled.

Every route takes one batch of N + 1 nodes, N from the strip bound of
Trefethen & Weideman (Thm 3.2): on |Im theta| <= a < ln 2 the integrand
is at most

    M(a) = exp(2 log n (cosh a - 1)) (2 + 2 cosh a) exp(2 sum_k |a_k| cosh ka)
           exp(sum_{k<=K} (|d_k| cosh ka - d_k))

(a_k the weight's coefficients, gammafn; the last factor is 1 for the
kernel), so the rule on N intervals of [0, pi] is within
2 pi M(a) / (e^{2aN} - 1) of the integral.  N is the smallest, over a
fixed grid of a, that meets half the tolerance laplace_I(n) / 2 would
give (below the integral at every n measured), rounded up to a multiple
of 8.  If the estimate then misses the computed value's tolerance, N
doubles and the whole batch runs again on the doubled table, so a
result's bits depend on its final N alone.  An n whose N exceeds the
node cap, 2^16, is refused with a ValueError before any batch runs: from
about log2 n = 4.04e7 at rel_tol 1e-10.  The walk over the grid
stops where N starts to rise, which finds the smallest (see
_STRIP_WIDTHS).  A circle batch evaluates only its head, the nodes where
the kernel's exponent -(1 - cos theta) 2 log n is at least -C, C = 120 (one
bisection, 1 - cos theta rising along the nodes); up to log n = C/4
(n ~ 1.07e13) the head is every node.  Its values are in [0, 3.70] (the
weight's peak; GAMMA_RATIO is at most 1), so one math.fsum of the head,
exactly rounded and unable to overflow, is the rule's sum less the nodes
left out, and because f >= 0 also the sum|f| of the floor; it is not
finite only if a value is not.  The estimate has two terms, that bound
and the floor 64 eps h sum|f| of `quadrature`, and `evaluations` is
N + 1.  The floor covers the nodes left out: on the real line
cosh ka >= 1 >= |cos k theta|, so the weight times the d_k factor is at
most e^L_w / 2 pi, L_w = log(2 pi M(a)) - 2 log n (cosh a - 1) at the
chosen a, and a node left out is at most e^(L_w - C) / 2 pi.  With
L_w - log 2 pi <= 11.61 at every n and width, h times at most 2^16 + 1
such nodes is below 2^-101 h, and since sum f >= f(0) / 2 = 1/2 that is
below 2^-100 of the sum, and under half an ulp of the floor 2^-46 h sum f.

EXACT_PRODUCT is the same function as GAMMA_RATIO, so it takes its N and
strip term at the same n, in the same loop, with every node's value (in
[0, 1], no head cut) from `quadrature`'s batch in numpy.  Proved: the
strip term bounds the rule's error for f_K, and the floor covers the
exactly rounded sum and f_K's 2^-58 from f_n.  Not proved: that values
are within a few ulps of f_n, measured against mpmath for the circle
routes (above).  For the product's own rounding (n - 1 log1p terms a
value) the only evidence is the test against p(n) in `Fraction`: over
n = 2..2000 at rel_tol 1e-8 to 1e-13 the gap was at most 0.11 of the
estimate.  p(1) is 1 exactly, with no integrand evaluated.

The circle routes are Python floats and `math`: I_n, GAMMA_RATIO and
`integrand` never import numpy for them.  `integrand` and a batch
evaluate f_K by one formula (_f_k), the kernel its case K = 0.
`integrand` evaluates each angle alone, cos(k theta) - 1 as
-2 sin^2(k theta / 2) and the weight from cos(k theta) (gammafn).  A
batch reads the same quantities at the nodes theta_j = pi j / N from a
table per N: cos(k theta_j) = cos(pi m / N) at m = k j, of period 2N and
even about m = N, so two tuples of 54 N + 1 slots hold cos(pi m / N) - 1
= -2 sin^2(pi m / 2N) and cos(pi m / N) at slot m, the values at
m = 0..N repeated, and d_k's pass takes every k-th slot.  The weight of a node is computed from its slots
when a head first reaches it, and kept with its cos theta_j - 1 as a
pair in the table's list, which holds the nodes 0, 1, ... as far as a
head has reached; the kernel's pass reads only that list.  Tables are
cached per process, one per N, for every N <= 2^8: the 32 multiples of
8, and every N the routes took at rel_tol >= 1e-13 when measured (at
most 168).  With every weight built a table takes at most 1001 N + 337
bytes (its tuples hold 8-byte references to the 2 (N + 1) floats at
m = 0..N), so the cache holds at most 4.3 MB.  Larger tables are built
and not stored.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from enum import Enum

from . import _args

# p_asymptotic is not used here; it stays importable from this module.
from .asymptotic import laplace_I, p_asymptotic
from .gammafn import _CIRCLE_COEFFS, _circle_weight, _on_angles, _weight
from .quadrature import (
    _FLOOR,
    _MAX_NODES,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
    quadrature,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

    import numpy as np

# No code in this package reads this constant.  It stays only because the
# benchmark in bench/ imports it; ROADMAP item 32 deletes it.
EXACT_PRODUCT_AUTO_MAX = 1024


class IntegrandKind(Enum):
    """Which unit-circle integrand to evaluate."""

    EXACT_PRODUCT = "exact-product"
    GAMMA_RATIO = "gamma-ratio"
    LIMIT_KERNEL = "limit-kernel"


# k = 1..54, the terms of the weight's series and of d_k(n).
_TERMS = len(_CIRCLE_COEFFS)
# From here on every d_k(n) is below double resolution (d_1 ~ -1/n): K(n) = 0.
_KERNEL_MIN_N = 2**60
# Euler-Maclaurin for zeta(k, n) from here on; a table below.
_EULER_MACLAURIN_MIN_N = 64
# The d_k left out move the exponent by at most 2^-_SERIES_TAIL_BITS
# (module docstring).
_SERIES_TAIL_BITS = 58
# d_k(n) / zeta(k, n) = 2 (-1)^k / k (and d_1 = -2 (log n - psi(n))).
_SERIES_SCALE = tuple(2.0 * (-1.0) ** k / k for k in range(1, _TERMS + 1))
# Row k - 1, k = 1..54: B_2j / (2j)! (k)_{2j-1}, j = 1..5, with (k)_m the
# rising factorial.
_EULER_MACLAURIN = tuple(
    tuple(
        b / math.factorial(2 * j) * math.prod(range(k, k + 2 * j - 1))
        for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66), start=1)
    )
    for k in range(1, _TERMS + 1)
)


def _euler_maclaurin(n: int, terms: int) -> list[float]:
    # d_k(n) for k = 1..terms, n >= 64, by Euler-Maclaurin in floats:
    # zeta(k, n) = n^{1-k} / (k - 1) + n^-k / 2 + sum_j row_j[k] n^{-k-2j+1},
    # where for k = 1 the first term is replaced by -log n, giving
    # log n - psi(n).  The first omitted term, B_12 / 12! (k)_11 n^{-k-11},
    # is below 3e-18 of zeta(k, n) (or of log n - psi(n)) at every kept
    # k <= K(n), and below 5e-18 of zeta(k, m) at every kept entry of the
    # table below n = 64, which starts from all 54 columns at n = 64.
    inv = 1.0 / n
    x = inv * inv
    out = []
    power = 1.0
    for k, scale, (c1, c2, c3, c4, c5) in zip(
        range(1, terms + 1), _SERIES_SCALE, _EULER_MACLAURIN
    ):
        power *= inv
        lead = n / (k - 1) + 0.5 if k > 1 else 0.5
        corr = inv * (c1 + x * (c2 + x * (c3 + x * (c4 + x * c5))))
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
def _small_series_table() -> tuple[tuple[float, ...], ...]:
    # Row n - 2, n = 2..63: d_k(n), k = 1..54.  2 psi(m) and d_k(m),
    # k >= 2, run down from m = 64 by d_k(m) = d_k(m + 1) + 2 (-1)^k m^-k / k,
    # adding the smallest terms first; 2 psi(m) follows with step -2 / m,
    # and d_1 = 2 psi(m) - 2 log m.
    row = _euler_maclaurin(_EULER_MACLAURIN_MIN_N, _TERMS)
    row[0] += 2.0 * math.log(_EULER_MACLAURIN_MIN_N)
    rows = []
    for m in range(_EULER_MACLAURIN_MIN_N - 1, 1, -1):
        r = 1.0 / m
        row = [d + r**k * scale for k, d, scale in zip(range(1, _TERMS + 1), row, _SERIES_SCALE)]
        rows.append((row[0] - 2.0 * math.log(m), *row[1:]))
    return tuple(reversed(rows))


def _series_coeffs(n: int) -> Sequence[float]:
    # d_1..d_K(n) of the GAMMA_RATIO integrand, n >= 2; () from n = 2^60
    # on, where it is the kernel.  d_1 = -2 (log n - psi(n))
    # = 2 (H_{n-1} - log n - gamma).
    if n >= _KERNEL_MIN_N:
        return ()
    if n < _EULER_MACLAURIN_MIN_N:
        return _small_series_table()[n - 2][: _series_terms(n)]
    return _euler_maclaurin(n, _series_terms(n))


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
    import numpy as np

    theta = np.asarray(theta, dtype=np.float64)
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


def _cos_m1(x: float) -> float:
    # cos 2x - 1 as -2 sin^2 x, free of cancellation near x = 0.
    s = math.sin(x)
    return -2.0 * s * s


def _f_k(psi2: float, delta: Sequence[float], pairs, cos_k) -> list[float]:
    # f_K = exp((cos theta - 1) psi2 + sum_{k=K..2} d_k (cos k theta - 1)) w
    # at the angles of `pairs`, the (cos theta - 1, w) of each, where
    # psi2 = 2 log n + d_1 = 2 psi(n) (2 log n for the kernel) and cos_k(k)
    # gives the cos k theta - 1 of the same angles.  One list pass a kept
    # d_k, k = K down to 2, the smallest first; the pass of d_2 also takes
    # the exp.
    exp = math.exp
    if not delta or len(delta) == 1:
        return [exp(c * psi2) * w for c, w in pairs]
    extra = itertools.repeat(0.0)
    for k in range(len(delta), 2, -1):
        d = delta[k - 1]
        extra = [e + d * c for e, c in zip(extra, cos_k(k))]
    d = delta[1]
    return [exp(c * psi2 + (e + d * c2)) * w for (c, w), e, c2 in zip(pairs, extra, cos_k(2))]


def integrand(
    kind: IntegrandKind, n: float, theta: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate one of the unit-circle integrands at theta in [0, 2*pi].

    EXACT_PRODUCT and GAMMA_RATIO take integer n >= 1 and agree to
    ~1e-14 relative away from theta = pi (the product form is the oracle);
    LIMIT_KERNEL takes real n > 1.  ValueError for an angle that is text,
    bytes, complex or outside [0, 2*pi], NaN included.

    A scalar angle gives the bits of the same angle inside an array, at
    every n: GAMMA_RATIO and LIMIT_KERNEL evaluate each angle alone, in
    plain `math`, and EXACT_PRODUCT sums the factors in chunks of 2^14
    from j = 1 however many angles it is given, so no temporary outgrows
    2^14 elements.
    """
    if kind is IntegrandKind.EXACT_PRODUCT:
        n = _args.integer("n", n, 1)
        return _on_angles(lambda angles: _exact_product_values(n, angles), theta)
    if kind is IntegrandKind.GAMMA_RATIO:
        n = _args.integer("n", n, 1)
        if n == 1:
            return _on_angles(lambda angles: [1.0] * len(angles), theta)
        delta = _series_coeffs(n)
    elif kind is IntegrandKind.LIMIT_KERNEL:
        n, delta = _args.real_n(n), ()
    else:
        raise ValueError(f"unknown integrand kind: {kind!r}")
    # math.log takes n as given, so an int n above the double range works.
    log_n2 = 2.0 * math.log(n)
    psi2 = log_n2 + delta[0] if delta else log_n2

    def f(theta: float) -> float:
        # f_K at one angle, cos k theta - 1 from sin(k theta / 2).
        half = 0.5 * theta
        pair = (_cos_m1(half), _circle_weight(theta))
        (value,) = _f_k(psi2, delta, (pair,), lambda k: (_cos_m1(k * half),))
        return value

    return _on_angles(lambda angles: map(f, angles), theta)


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
# The cached tables: every N <= 2^8, the 32 multiples of 8 (module
# docstring).
_TABLE_MAX_INTERVALS = 2**8
_TABLE_ENTRIES = _TABLE_MAX_INTERVALS // 8
# C of the head cut (module docstring): a batch leaves out the nodes where
# the kernel's exponent is below -C.
_HEAD_CUT = 120.0


@functools.cache
def _strip_table() -> tuple[tuple[float, float, float, tuple[float, ...]], ...]:
    # Per width a: 1 / 2a, cosh a - 1, log(2 pi M(a)) at log n = 0 for the
    # kernel, and (-1)^k cosh(k a) - 1, k = 1..54, for the d_k factor.
    return tuple(
        (
            0.5 / a,
            math.cosh(a) - 1.0,
            math.log(2.0 * math.pi * (2.0 + 2.0 * math.cosh(a)))
            + 2.0 * math.fsum(abs(c) * math.cosh(k * a) for k, c in enumerate(_CIRCLE_COEFFS, 1)),
            tuple((-1.0) ** k * math.cosh(a * k) - 1.0 for k in range(1, _TERMS + 1)),
        )
        for a in _STRIP_WIDTHS
    )


def _strip_choice(
    n: float, log_n2: float, config: QuadratureConfig, delta: Sequence[float]
) -> tuple[int, float, float]:
    # (N, 1 / 2a, log(2 pi M(a))) at the strip width a with the smallest
    # need(a), ties to the wider a: the min over every width, found by the
    # walk that stops at need's first rise (_STRIP_WIDTHS).  laplace_I(n)
    # / 2 is the guess of the integral over [0, pi]: I_n / laplace_I is
    # 1.997 at n = 2 and 1.034 at 1e8, and pi p(n) is above it too, by
    # r(n) > 1.
    guess = 0.5 * laplace_I(n)
    # No N takes the error below the rounding floor, about _FLOOR * value.
    target = 0.5 * (config.rel_tol + _FLOOR) * guess
    # need(a) is the N with 2aN = log(2 pi M(a) / target) + log 2, and
    # 2aN >= that implies e^{2aN} - 1 >= 2 pi M(a) / target.
    shift = math.log(2.0 / target)
    best = math.inf
    for half_inv_a, cosh_m1, log_m0, signed in _strip_table():
        grow = log_n2 * cosh_m1
        # sum_k (|d_k| cosh ka - d_k) = sum_k d_k ((-1)^k cosh ka - 1), as
        # d_k has the sign of (-1)^k (zeta(k, n) > 0 and psi(n) < log n),
        # over the K kept terms.
        e = math.fsum(map(operator.mul, signed, delta)) if delta else 0.0
        need = (shift + log_m0 + grow + e) * half_inv_a
        if need < best:
            best, best_half_inv_a = need, half_inv_a
            best_log_m0, best_grow, best_e = log_m0, grow, e
        elif need > best:
            break
    intervals = max(8, 8 * math.ceil(best / 8))
    if intervals >= _MAX_NODES:
        # No N within the node cap certifies n.  This width certifies every
        # n whose kernel growth log n^2 (cosh a - 1) fits in `room`, as
        # shift, taken at this n, only falls with n.
        log2_n = log_n2 / math.log(4.0)
        room = (_MAX_NODES - 1) / best_half_inv_a - shift - best_log_m0 - best_e
        raise ValueError(
            f"n = 2**{log2_n:.6g} needs {intervals} intervals at rel_tol {config.rel_tol:g}, "
            f"above the node cap; this rel_tol takes every n up to "
            f"2**{math.floor(log2_n * room / best_grow)}"
        )
    return intervals, best_half_inv_a, best_log_m0 + best_grow + best_e


def _new_node_table(intervals: int) -> tuple[tuple[float, ...], tuple[float, ...], list]:
    # For the nodes theta_j = pi j / N, j = 0..N: cos(k theta_j) - 1 and
    # cos(k theta_j) at slot m = k j of two tuples of 54 N + 1 slots, and
    # the list of the pairs (cos theta_j - 1, weight at theta_j) of nodes
    # 0, 1, ..., as far as a batch's head has reached.  cos(pi m / N) has
    # period 2N in m and is even about m = N, so the slots repeat the
    # values at m = 0..N: cos(pi m / N) - 1 as -2 sin^2(pi m / 2N), free of
    # cancellation near m = 0 and rising in size along the nodes, and
    # cos(pi m / N) by math.cos.
    half_step = math.pi / (2 * intervals)
    cos_m1 = [_cos_m1(half_step * m) for m in range(intervals + 1)]
    cosines = [math.cos(2.0 * half_step * m) for m in range(intervals + 1)]
    periods = _TERMS // 2
    return (
        tuple((cos_m1 + cos_m1[-2:0:-1]) * periods + cos_m1[:1]),
        tuple((cosines + cosines[-2:0:-1]) * periods + cosines[:1]),
        [],
    )


def _node_weight(cosines: tuple[float, ...], j: int) -> float:
    # The weight at node j, from cos(k theta_j) at the slots k j, k = 1..54.
    return _weight(cosines[j : _TERMS * j + 1 : j] if j else cosines[:1] * _TERMS)


_cached_node_table = functools.lru_cache(maxsize=_TABLE_ENTRIES)(_new_node_table)


def _node_table(intervals: int) -> tuple[tuple[float, ...], tuple[float, ...], list]:
    if intervals > _TABLE_MAX_INTERVALS:
        return _new_node_table(intervals)
    return _cached_node_table(intervals)


def _batch_sum(psi2: float, delta: Sequence[float], table, log_n2: float) -> float:
    # sum f over one batch's head, exactly rounded: the nodes of the table,
    # its ends at half weight, where the kernel's exponent
    # -(1 - cos theta) 2 log n is at least -_HEAD_CUT, found by one
    # bisection, 1 - cos theta rising along the nodes.  The floor covers
    # the nodes past the head (module docstring).  f is _f_k, in
    # [0, 3.70], so this is also the head's sum|f| and, on at most
    # 2^16 + 1 nodes, not finite only if a value is not.
    cos_m1, cosines, nodes = table
    intervals = (len(cos_m1) - 1) // _TERMS
    # 1 - cos theta <= 2, so up to log n = C / 4 the head is every node.
    limit = _HEAD_CUT / log_n2
    if limit >= 2.0:
        cut = intervals + 1
    else:
        cut = bisect.bisect_right(cos_m1, limit, 0, intervals + 1, key=operator.neg)
    have = len(nodes)
    if cut > have:
        new = []
        for j in range(have, cut):
            w = _node_weight(cosines, j)
            # Never stored, so a cached table holds finite weights only.
            if not math.isfinite(w):
                raise ValueError("circle weight not finite")
            new.append((cos_m1[j], w))
        # One slice assignment, atomic, of the pairs any thread would store
        # there: threads may share a table.
        nodes[have:cut] = new
    ys = _f_k(psi2, delta, nodes[:cut], lambda k: cos_m1[: k * cut : k])
    ys[0] *= 0.5
    if cut > intervals:
        ys[-1] *= 0.5
    total = math.fsum(ys)
    if not math.isfinite(total):
        raise ValueError(f"integrand not finite on [0.0, {math.pi}]")
    return total


def _kernel_quadrature(
    n: float,
    config: QuadratureConfig,
    delta: Sequence[float],
    scale: float,
    values: Callable[[np.ndarray], np.ndarray] | None = None,
) -> QuadratureResult:
    # scale > 0 times the integral over [0, pi] of f_K, the kernel for an
    # empty delta, or with `values` of the GAMMA_RATIO function
    # computed as EXACT_PRODUCT (module docstring): 2 for the full circle,
    # 1/pi for the normalized mean.  The tolerance applies to the integral
    # over [0, pi].
    log_n2 = 2.0 * math.log(n)
    # The d_1 term is taken with the kernel's: 2 log n + d_1 = 2 psi(n).
    psi2 = log_n2 + delta[0] if delta else log_n2
    intervals, half_inv_a, log_m = _strip_choice(n, log_n2, config, delta)
    while True:
        h = math.pi / intervals
        if values is None:
            total = _batch_sum(psi2, delta, _node_table(intervals), log_n2)
            value = h * total
            floor = _FLOOR * h * total
        else:
            value, floor, _ = quadrature(values, intervals)
        # 2 pi M(a) / (e^{2aN} - 1), without overflow at large 2aN; N >= need
        # keeps log M - 2aN <= log(target / 2) < 709 (_strip_choice).
        strip = math.exp(log_m - intervals / half_inv_a) / -math.expm1(-intervals / half_inv_a)
        error = strip + floor
        tolerance = config.rel_tol * value
        if error <= tolerance:
            return QuadratureResult(value * scale, error * scale, intervals + 1)
        if floor > tolerance or 2 * intervals + 1 > _MAX_NODES:
            raise QuadratureConvergenceError(
                QuadratureResult(value * scale, error * scale, intervals + 1),
                tolerance * scale,
            )
        intervals *= 2


def I_n(n: float, config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Full-circle integral of the LIMIT_KERNEL integrand for real n >= 2.

    For large n the value behaves like sqrt(pi / log n); `laplace_I` gives
    that closed form and the ratio of the two tends to 1 from above with a
    leading correction of order 1/log n.

    One trapezoid batch on N intervals of [0, pi], N the smallest multiple
    of 8 that the kernel's strip bound certifies for half the tolerance
    laplace_I(n) would give; `evaluations` is N + 1.  abs_error_estimate is
    twice that bound plus twice the floor 64 eps h sum|f|, which also
    covers the nodes too small to reach the sum that the batch leaves out
    (module docstring): a proved upper bound on the error of the value.
    """
    n = _args.real_n(n)
    if n < 2:
        raise ValueError(f"n must be finite and >= 2, got {n!r}")
    _args.instance("config", config, QuadratureConfig)
    return _kernel_quadrature(n, config, (), 2.0)


def p_quadrature_result(
    n: int,
    kind: IntegrandKind | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Collision probability by quadrature, with its error estimate.

    kind=None is GAMMA_RATIO, integrated at every n >= 2 as `I_n` is: one
    batch on the N intervals of [0, pi] that the strip bound certifies,
    with that bound plus the floor in its estimate, the floor also
    covering the nodes the batch leaves out.  EXACT_PRODUCT, the
    O(n) oracle, takes the same N and estimate, at O(n N) a batch.  The
    estimate is proved for the rule on GAMMA_RATIO's K-term function,
    given values accurate to a few ulps; that accuracy is measured, for
    the product only by the test against p(n) in exact arithmetic (module
    docstring).  p(1) is (1.0, 0.0, 0): both identity integrands are the
    constant 1, and none is evaluated.  A rel_tol below 64 eps raises
    QuadratureConvergenceError at every n >= 2.
    """
    n = _args.integer("n", n, 1)
    if kind is IntegrandKind.LIMIT_KERNEL:
        raise ValueError("LIMIT_KERNEL is not a collision-probability identity; "
                         "use I_n for the asymptotic kernel")
    circle = kind is None or kind is IntegrandKind.GAMMA_RATIO
    if not circle and kind is not IntegrandKind.EXACT_PRODUCT:
        raise ValueError(f"unknown integrand kind: {kind!r}")
    _args.instance("config", config, QuadratureConfig)
    if n == 1:
        return QuadratureResult(1.0, 0.0, 0)
    values = None if circle else functools.partial(_exact_product_values, n)
    return _kernel_quadrature(n, config, _series_coeffs(n), 1.0 / math.pi, values)


def p_quadrature(
    n: int,
    kind: IntegrandKind | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Collision probability as the normalized mean of |g|^2 on the circle."""
    return p_quadrature_result(n, kind, config).value

