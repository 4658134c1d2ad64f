"""Independent brute-force oracles used across the test suite.

Everything here counts or enumerates directly from definitions; nothing
imports the recurrence/quadrature code paths under test.  The
exception is the BERNOULLI_SUM batch `bernoulli_batch_by_index`, the
reference the faster batch must equal bit for bit: it makes the same
stream calls, looks each draw up in a row of counts the caller passes,
and tracks each draw's index through the jumps, as the jump batch was
first written.  It is the only oracle that needs numpy, and imports it
itself, so that `tests/core_check.py` can use the others without numpy.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction


def count_cycles(perm: tuple[int, ...]) -> int:
    """Cycle count by explicit traversal of one permutation of 0..n-1."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def count_records(perm: tuple[int, ...]) -> int:
    """Left-to-right minima of a sequence: the entries at or below every
    entry before them (a tie with the running minimum counts again)."""
    records, low = 0, math.inf
    for x in perm:
        if x <= low:
            records, low = records + 1, x
    return records


def cycle_histogram(n: int) -> list[int]:
    """Histogram of cycle counts over all n! permutations."""
    hist = [0] * n
    for perm in itertools.permutations(range(n)):
        hist[count_cycles(perm) - 1] += 1
    return hist


def collision_probability(n: int) -> Fraction:
    """Probability of equal cycle counts over all ordered pairs of
    permutations, by direct double enumeration."""
    counts = [count_cycles(p) for p in itertools.permutations(range(n))]
    equal = sum(1 for a in counts for b in counts if a == b)
    return Fraction(equal, len(counts) ** 2)


def rising_factorial(n: int, x: Fraction | int) -> Fraction:
    """x (x+1) ... (x+n-1), exactly, for n >= 1 and a rational x: the
    generating polynomial sum_k c(n, k) x^k of row n evaluated at x."""
    if not isinstance(x, (Fraction, int)):
        raise TypeError(f"x must be a Fraction or an int, got {x!r}")
    return math.prod((Fraction(x) + j for j in range(n)), start=Fraction(1))


def _rising_row_mod(r: int, p: int) -> list[int]:
    """Coefficients of x^0 .. x^r in x (x+1) ... (x+r-1), mod p, multiplied
    out one factor at a time (the empty product 1 at r = 0)."""
    poly = [1]
    for j in range(r):
        poly = [(j * a + b) % p for a, b in zip([*poly, 0], [0, *poly])]
    return poly


def _binomial_mod(a: int, b: int, p: int) -> int:
    """C(a, b) mod a prime p by Lucas' theorem: the product of the
    binomials of the base-p digits of a and b."""
    result = 1
    while b:
        (a, a_digit), (b, b_digit) = divmod(a, p), divmod(b, p)
        result = result * math.comb(a_digit, b_digit) % p
    return result


def stirling_row_mod(n: int, p: int) -> tuple[int, ...]:
    """c(n, k) mod a prime p for k = 1..n, by a congruence.

    Over F_p, x (x+1) ... (x+p-1) = x^p - x, whose roots are all of F_p.
    So with n = qp + r, 0 <= r < p, the rising factorial x^(n) is
    (x^p - x)^q x^(r) = sum_i C(q, i) (-1)^(q-i) x^(q + i(p-1)) x^(r)
    mod p: the row of r mod p, shifted and signed once per term.
    """
    q, r = divmod(n, p)
    low = _rising_row_mod(r, p)
    poly = [0] * (n + 1)
    for i in range(q + 1):
        c = _binomial_mod(q, i, p) * (-1) ** (q - i)
        for j, a in enumerate(low, q + i * (p - 1)):
            poly[j] = (poly[j] + c * a) % p
    return tuple(poly[1:])


def square_sum_mod(n: int, p: int) -> int:
    """f(n) = sum_k c(n, k)^2 mod a prime p, as C(2q, q) f(r), f(0) = 1.

    The terms of `stirling_row_mod` do not overlap, since x^(r) has degree
    r < p and no constant term when r >= 1, so f(n) is sum_i C(q, i)^2
    f(r), and Vandermonde's identity sums the C(q, i)^2 to C(2q, q).
    """
    q, r = divmod(n, p)
    f_r = sum(a * a for a in _rising_row_mod(r, p))
    return _binomial_mod(2 * q, q, p) * f_r % p


def bernoulli_batch_by_index(n: int, row, size: int, rng):
    """BERNOULLI_SUM cycle counts, tracking each running draw's index.

    Letters 1..m, m = len(row) = min(n, 12), by inversion: `row` holds
    c(m, 1) .. c(m, m), and a draw is one integer v uniform on
    0 .. m! - 1 from `rng.integers`, which counts 1 + the running sums
    c(m, 1) + ... + c(m, k), k < m, at or below v, found by bisection
    over Python ints.  Letters m + 1..n by the success-to-success jumps
    of the Feller coupling: after a success at j, or from j = m, the next
    is at floor(j / U) + 1, U = 1 - rng.random() on (0, 1].  Each round
    draws one uniform per running draw and adds one to the count of
    every draw that goes on.
    """
    import numpy as np

    m = len(row)
    cuts = list(itertools.accumulate(row[:-1]))
    v = rng.integers(0, math.factorial(m), size, dtype=np.uint32)
    counts = np.array([1 + bisect.bisect_right(cuts, x) for x in v.tolist()], dtype=np.int64)
    active = np.arange(size if m < n else 0)
    j = np.full(active.size, float(m))
    while active.size:
        j = np.floor(j / (1.0 - rng.random(active.size)))  # next success - 1
        alive = j < n
        active, j = active[alive], j[alive] + 1.0
        counts[active] += 1
    return counts
