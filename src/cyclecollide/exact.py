"""Exact arbitrary-precision cycle-count combinatorics.

The number of permutations of n letters with exactly k cycles is the
unsigned Stirling number of the first kind, here written c(n, k).  Row n
of the triangle is built from the additive recurrence

    c(n, k) = (n - 1) * c(n-1, k) + c(n-1, k-1),        c(1, 1) = 1,

which is equivalent to reading off the coefficients of the rising
factorial x (x+1) ... (x+n-1).  Everything in this module is exact:
Python integers for the counts, ``fractions.Fraction`` for probabilities.

A walk up the triangle starts from one packed product (Kronecker
substitution).  The rising factorial to row m is evaluated at X = 2^B,
one shift-and-add of a single big int per factor, with B = 8 ceil(bits(m!)
/ 8).  Every coefficient is a nonnegative integer of at most m! < 2^B, so
no B-bit slot carries into its neighbour, and the base-2^B digits of the
product are the row, read off once from its bytes.  Each slot is sized
for row m from the first factor, so the packed walk does more big-int
work than the list recurrence; it wins while the list's per-entry
interpreter cost dominates, up to about m = 200 (`_PACKED_MAX`).

From there the walk multiplies the row by three factors a pass while
m < 1024 (`_PASS_BELOW`),

    (x+m)(x+m+1)(x+m+2) = x^3 + (3m+3) x^2 + (3m^2+6m+2) x + m(m+1)(m+2),

in one list comprehension over four shifted copies of the row.  The
coefficients are exact integers, so the row is the one the additive
recurrence gives, entry for entry.  The big-int work per factor is the
same while m(m+1)(m+2) fits one digit; what a pass saves is the
per-entry interpreter cost of two of its three steps.  Every other
factor takes the single-factor step c(m+1, k) = m c(m, k) + c(m, k-1),
also one list comprehension: the factors from m = 1024 on, the last
one or two before a requested row, so that a pass never steps over
one, and the steps between consecutive rows of a sweep.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from . import _args

# Practical ceiling for the exact route: the point past which row
# construction (O(n^2) big-int adds on entries with tens of thousands of
# digits) stops being worth the wait and callers should switch to the
# quadrature route.  The functions below do not enforce it; the CLI
# refuses n above it and `table` records a per-row error.
EXACT_ROUTE_CEILING = 20000

# Longest packed start of a row walk (see the module docstring).
# `stirling_row` with the cap at 150 / 200 / 250, best of 11 interleaved
# runs on 2 cores (Python 3.11.7): n = 200 2.54 / 2.37 / 2.50 ms, n = 250
# 4.59 / 4.54 / 5.04 ms, n = 400 14.5 / 14.9 / 16.2 ms.  Past about 175
# a packed factor costs more than a list step.
_PACKED_MAX = 200

# Rows below m = 1024 take three factors a pass (module docstring).  There
# the pass's m(m+1)(m+2) fits one 30-bit CPython digit; from 1024 on it
# takes two, and a product by it costs as much as two.  36 factors from row
# m, timed against the single-factor step (median ratio of 41 interleaved
# runs, Python 3.11.7) with 2 / 3 / 4 factors a pass: 0.99 / 0.96 / 0.99
# at m = 300, 1.00 / 0.93 / 0.99 at 600, 0.99 / 0.93 / 1.11 at 900,
# 1.02 / 1.09 / 1.15 at 1030, 0.99 / 1.08 / 1.10 at 1500.
_PASS_BELOW = 1024


@dataclass(frozen=True)
class StirlingRow:
    """Row n of the cycle-count triangle.

    ``coeffs[k-1]`` is the number of permutations of ``n`` letters with
    exactly ``k`` cycles; the row sums to n!.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n:
            raise ValueError("row must have exactly n entries")

    def coeff(self, k: int) -> int:
        """Number of permutations of n letters with exactly k cycles."""
        return self.coeffs[_index(k, self.n)]

    def row_sum(self) -> int:
        """Total count over all cycle numbers; equals n!."""
        return sum(self.coeffs)

    def square_sum(self) -> int:
        """sum_k c(n, k)^2, the numerator of the collision probability."""
        return sum(map(operator.mul, self.coeffs, self.coeffs))

    def collision_probability(self) -> "ExactProbability":
        """sum_k c(n, k)^2 / (n!)^2, reduced; the row sums to n!."""
        return ExactProbability.from_fraction(
            Fraction(self.square_sum(), self.row_sum() ** 2)
        )


@dataclass(frozen=True)
class ExactProbability:
    """A probability as a reduced fraction plus a float rendering."""

    numerator: int
    denominator: int
    approx: float

    @classmethod
    def from_fraction(cls, value: Fraction) -> "ExactProbability":
        if not 0 < value.numerator <= value.denominator:
            raise ValueError(f"probability out of (0, 1]: {value}")
        return cls(value.numerator, value.denominator, float(value))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class CycleDistribution:
    """Exact distribution of the cycle count of a uniform n-permutation.

    ``probs[k-1] = c(n, k) / n!`` and the entries sum to exactly 1.
    """

    n: int
    probs: tuple[Fraction, ...]

    def prob(self, k: int) -> Fraction:
        return self.probs[_index(k, self.n)]


def _index(k: int, n: int) -> int:
    # The tuple index of cycle count k in a row of n entries.
    k = _args.integer("k", k, 1)
    if k > n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return k - 1


def exact_ceiling_error(n: int) -> str | None:
    """Why the CLI and `table` refuse n on the exact route, or None."""
    if n <= EXACT_ROUTE_CEILING:
        return None
    return (
        f"n={n} above the documented exact-route ceiling "
        f"{EXACT_ROUTE_CEILING}; use the quadrature route"
    )


def stirling_rows(n_values: Iterable[int]) -> Iterator[StirlingRow]:
    """Rows of the triangle at each n of a strictly increasing sequence.

    One upward walk serves every requested n, so rows 1..N cost the same
    O(N^2) big-int steps as row N alone.  The walk starts at row
    min(first n, `_PACKED_MAX`) from one packed product (module
    docstring); only the current row is held.  Packing stops at the
    first target, because unpacking again at each later n of a sweep
    costs more than the list steps it saves, and at the cap, past which
    a packed factor costs more than a list step.  From there each gap to
    the next n is closed three factors a pass while three remain and m
    is below `_PASS_BELOW`, then one factor at a time, so a pass never
    steps over a requested row; the steps between consecutive n of a
    sweep are single factors.

    The sequence is read and checked before any row is built: each n
    follows the package's integer contract (README, "Inputs"), and a
    non-increasing step is a ValueError.
    """
    targets = tuple(_args.integer("n", n, 1) for n in n_values)
    if not targets:
        return
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError(f"n values must be strictly increasing, got {targets}")
    # Row m as the base-2^B digits of the rising factorial at X = 2^B.
    m = min(targets[0], _PACKED_MAX)
    slot = -(-math.factorial(m).bit_length() // 8)
    bits = 8 * slot
    packed = 1
    for w in range(m):
        packed = (packed << bits) + w * packed
    view = memoryview(packed.to_bytes(slot * (m + 1), "little"))
    row = [
        int.from_bytes(view[i : i + slot], "little")
        for i in range(slot, slot * (m + 1), slot)
    ]
    for n in targets:
        while m + 3 <= n and m < _PASS_BELOW:
            a, b, c = m * (m + 1) * (m + 2), 3 * m * m + 6 * m + 2, 3 * m + 3
            row = [
                a * w + b * x + c * y + z
                for w, x, y, z in zip(
                    row + [0, 0, 0], [0, *row, 0, 0], [0, 0, *row, 0], [0, 0, 0, *row]
                )
            ]
            m += 3
        while m < n:
            row = [m * x + y for x, y in zip(row + [0], [0, *row])]
            m += 1
        yield StirlingRow(n, tuple(row))


def stirling_row(n: int) -> StirlingRow:
    """Counts of permutations of n letters by number of cycles.

    n >= 1: the n = 0 row is deliberately undefined here rather than
    adopting an empty-product convention.
    """
    return next(stirling_rows((n,)))


def rising_factorial_eval(n: int, x: Fraction | int) -> Fraction:
    """Exact value of x (x+1) ... (x+n-1) for rational x.

    Identical to sum_k c(n, k) x^k, which makes it an independent check on
    `stirling_row`.
    """
    n = _args.integer("n", n, 1)
    acc = Fraction(x)
    for j in range(1, n):
        acc *= x + j
    return acc


def f_exact(n: int) -> int:
    """Sum of the squared row entries, sum_k c(n, k)^2.

    This is the numerator of the collision probability before reduction.
    """
    return stirling_row(n).square_sum()


def p_exact(n: int) -> ExactProbability:
    """Probability that two independent uniform n-permutations have the
    same number of cycles: sum_k c(n, k)^2 / (n!)^2, reduced."""
    return stirling_row(n).collision_probability()


def cycle_distribution(n: int) -> CycleDistribution:
    """Exact cycle-count law of a uniform random n-permutation."""
    row = stirling_row(n)
    fact = row.row_sum()
    return CycleDistribution(row.n, tuple(Fraction(c, fact) for c in row.coeffs))
