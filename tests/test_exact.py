import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecollide import (
    cycle_distribution,
    p_exact,
    stirling_row,
    stirling_rows,
)
from cyclecollide import exact
from cyclecollide.exact import _PACKED_MAX, _PASS_BELOW
from oracles import (
    collision_probability,
    cycle_histogram,
    rising_factorial,
    square_sum_mod,
    stirling_row_mod,
)


# ---------------------------------------------------------------- rows

@pytest.mark.parametrize("n", range(1, 8))
def test_rows_match_exhaustive_enumeration(n):
    assert list(stirling_row(n).coeffs) == cycle_histogram(n)


def test_known_rows():
    assert stirling_row(1).coeffs == (1,)
    assert stirling_row(3).coeffs == (2, 3, 1)
    assert stirling_row(5).coeffs == (24, 50, 35, 10, 1)


@given(st.integers(min_value=1, max_value=120))
def test_row_structure(n):
    row = stirling_row(n)
    assert len(row.coeffs) == n
    assert row.row_sum() == math.factorial(n)
    assert row.coeffs[n - 1] == 1
    assert row.coeffs[0] == math.factorial(n - 1)
    if n >= 2:
        assert row.coeffs[n - 2] == n * (n - 1) // 2
    assert all(c > 0 for c in row.coeffs)


def rising_factorial_coeffs(n):
    """Coefficients of x (x+1) ... (x+n-1), multiplied out from scratch."""
    poly = [1]  # constant polynomial 1
    for j in range(n):
        poly = [j * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly[1:]


@pytest.mark.parametrize(
    "n_values",
    [(1, 2, 7, 8, 64, 300), (7, 8, 64, 300), (300,), (1, 5, 9, 203, 207, 211, 400)],
)
def test_ascending_walk_matches_from_scratch_rows(n_values):
    rows = list(stirling_rows(n_values))
    assert [row.n for row in rows] == list(n_values)
    for row in rows:
        assert list(row.coeffs) == rising_factorial_coeffs(row.n)
        assert row == stirling_row(row.n)


@pytest.fixture(scope="module")
def rows_to_twice_the_cap():
    """rising_factorial_coeffs(n) for n = 1..2 * _PACKED_MAX, kept at each
    step of one pass of its product."""
    rows, poly = {}, [1]
    for j in range(2 * _PACKED_MAX):
        poly = [j * a + b for a, b in zip(poly + [0], [0] + poly)]
        rows[j + 1] = poly[1:]
    assert rows[2 * _PACKED_MAX] == rising_factorial_coeffs(2 * _PACKED_MAX)
    return rows


def test_packed_start_matches_from_scratch_rows(rows_to_twice_the_cap):
    # Up to the cap the row is the packed product alone; above it the
    # list recurrence continues from the packed row at the cap.
    for n, coeffs in rows_to_twice_the_cap.items():
        assert list(stirling_row(n).coeffs) == coeffs, n


@pytest.mark.parametrize("first", [_PACKED_MAX - 1, _PACKED_MAX, _PACKED_MAX + 1])
def test_walk_from_either_side_of_the_packed_cap(first, rows_to_twice_the_cap):
    n_values = range(first, first + 9)
    rows = list(stirling_rows(n_values))
    assert [row.n for row in rows] == list(n_values)
    assert [list(row.coeffs) for row in rows] == [rows_to_twice_the_cap[n] for n in n_values]


@pytest.mark.parametrize("first", [1, _PACKED_MAX - 1, _PACKED_MAX, _PACKED_MAX + 1])
def test_walk_over_gaps_of_every_residue(first, rows_to_twice_the_cap):
    # Gaps of 1..9 factors: each residue mod 3 three times, so every gap
    # ends in zero, one or two single steps after its three-factor passes.
    n_values = [first]
    for gap in range(1, 10):
        n_values.append(n_values[-1] + gap)
    rows = list(stirling_rows(n_values))
    assert [row.n for row in rows] == n_values
    assert [list(row.coeffs) for row in rows] == [rows_to_twice_the_cap[n] for n in n_values]


@pytest.mark.parametrize("pass_below", [_PASS_BELOW, 2 * _PASS_BELOW])
def test_walk_across_the_pass_cap(pass_below, monkeypatch):
    # From m = 1024 on, a pass's m(m+1)(m+2) needs two 30-bit digits: the
    # walk stops its passes there, and with the cap raised they go on.
    monkeypatch.setattr(exact, "_PASS_BELOW", pass_below)
    n_values = (1019, 1023, 1024, 1025, 1027, 1031, 1034)
    want, poly = {}, [1]
    for j in range(n_values[-1]):
        poly = [j * a + b for a, b in zip(poly + [0], [0] + poly)]
        if j + 1 in n_values:
            want[j + 1] = poly[1:]
    assert [list(row.coeffs) for row in stirling_rows(n_values)] == [want[n] for n in n_values]


def test_packed_rows_in_the_tightest_slots(rows_to_twice_the_cap, monkeypatch):
    # bits(n!) a multiple of 8: the largest coefficient may fill its slot.
    # With the cap doubled every such row is the packed product alone.
    monkeypatch.setattr(exact, "_PACKED_MAX", 2 * _PACKED_MAX)
    tight = [n for n in rows_to_twice_the_cap if math.factorial(n).bit_length() % 8 == 0]
    assert tight[0] < _PACKED_MAX < tight[-1]
    for n in tight:
        assert list(stirling_row(n).coeffs) == rows_to_twice_the_cap[n], n


@pytest.mark.parametrize("n_values", [(3, 3), (5, 2), (2, 9, 9), (0, 1), (-1,)])
def test_walk_rejects_bad_sequences_before_any_row(n_values):
    walk = stirling_rows(iter(n_values))
    with pytest.raises(ValueError):
        next(walk)


def test_walk_over_nothing_is_empty():
    assert list(stirling_rows(())) == []


# ------------------------------------------------------- congruences

def _prime_at_most(m):
    return next(p for p in range(m, 1, -1) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def assert_row_congruent(row):
    """Every coefficient and the square sum of `row` mod eight primes: six
    small ones, where q = n // p is large, and the largest at most n and
    n / 2, where q is 1 or 2 and the row of r = n mod p is short."""
    n, square_sum = row.n, row.square_sum()
    for p in (2, 3, 5, 7, 11, 13, _prime_at_most(n), _prime_at_most(n // 2)):
        assert tuple(c % p for c in row.coeffs) == stirling_row_mod(n, p), (n, p)
        assert square_sum % p == square_sum_mod(n, p), (n, p)


# The packed start (_PACKED_MAX = 200) on either side of its cap, and the
# three-factor passes ending at every residue on either side of
# _PASS_BELOW = 1024.
@pytest.mark.parametrize("n", [199, 200, 201, *range(1022, 1028)])
def test_rows_are_congruent_to_the_rising_factorial_mod_p(n):
    assert (_PACKED_MAX, _PASS_BELOW) == (200, 1024)
    assert_row_congruent(stirling_row(n))


def test_sweep_across_both_caps_is_congruent_mod_p():
    # Packed to 150, a pass from 199 over the packed cap to 202, one from
    # 1023 over the pass cap to 1026, then single steps to two rows above
    # any from-scratch reference.  One walk serves them all.
    n_values = (150, 199, 202, 1000, 1023, 1030, 1501, 2003)
    rows = list(stirling_rows(n_values))
    assert [row.n for row in rows] == list(n_values)
    for row in rows:
        assert_row_congruent(row)


# ------------------------------------------------- rising factorial

def test_rising_factorial_examples():
    # The oracle itself: exact values, and no float arithmetic.
    assert rising_factorial(4, 1) == 24
    assert rising_factorial(3, 2) == 24
    assert rising_factorial(3, Fraction(1, 2)) == Fraction(15, 8)
    assert type(rising_factorial(3, 2)) is Fraction
    with pytest.raises(TypeError):
        rising_factorial(3, 1.5)


@pytest.mark.parametrize("x", [1, 2, 3, Fraction(1, 2), Fraction(5, 3)])
@pytest.mark.parametrize("n", [1, 2, 7, 23, 50])
def test_rising_factorial_matches_row_polynomial(n, x):
    row = stirling_row(n)
    poly = sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(row.coeffs, start=1))
    assert rising_factorial(n, x) == poly


# ---------------------------------------------------------- f and p

def test_square_sum_values():
    assert stirling_row(1).square_sum() == 1
    assert stirling_row(3).square_sum() == 14  # 4 + 9 + 1 from row (2, 3, 1)
    assert stirling_row(4).square_sum() == 194  # 36 + 121 + 36 + 1 from row (6, 11, 6, 1)


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=30)
def test_square_sum_is_sum_of_squared_row(n):
    row = stirling_row(n)
    assert row.square_sum() == sum(c * c for c in row.coeffs)
    assert row.collision_probability() == p_exact(n)


def test_p_exact_small_cases():
    assert p_exact(1).fraction == 1
    assert p_exact(2).fraction == Fraction(1, 2)
    assert p_exact(3).fraction == Fraction(7, 18)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_p_exact_matches_pair_enumeration(n):
    assert p_exact(n).fraction == collision_probability(n)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=40)
def test_p_exact_reduced_and_rendered(n):
    prob = p_exact(n)
    assert math.gcd(prob.numerator, prob.denominator) == 1
    assert 0 < prob.numerator <= prob.denominator
    assert 0.0 < prob.approx <= 1.0
    rel = abs(Fraction(prob.approx) - prob.fraction) / prob.fraction
    assert rel <= 1e-14


# ------------------------------------------------------ distribution

def test_cycle_distribution_small():
    assert cycle_distribution(1).probs == (Fraction(1),)
    assert cycle_distribution(2).probs == (Fraction(1, 2), Fraction(1, 2))
    assert cycle_distribution(3).probs == (
        Fraction(2, 6), Fraction(3, 6), Fraction(1, 6))


@given(st.integers(min_value=1, max_value=150))
@settings(max_examples=30)
def test_cycle_distribution_sums_to_one(n):
    dist = cycle_distribution(n)
    assert sum(dist.probs) == 1
    assert all(p > 0 for p in dist.probs)


# ------------------------------------------------------------ errors

@pytest.mark.parametrize("bad", [0, -1, -7])
@pytest.mark.parametrize(
    "op", [stirling_row, p_exact, cycle_distribution],
)
def test_nonpositive_n_rejected(op, bad):
    with pytest.raises(ValueError):
        op(bad)


_EXACT_ENTRY_POINTS = [
    p_exact, stirling_row, lambda n: list(stirling_rows((n,))),
    cycle_distribution,
]


@pytest.mark.parametrize(
    "bad",
    [5.0, np.float64(5), Fraction(5), Decimal(5), 5.5, math.nan, math.inf, "5", 5 + 0j],
    ids=repr,
)
@pytest.mark.parametrize("op", _EXACT_ENTRY_POINTS)
def test_exact_entry_points_reject_non_integers(op, bad):
    # An integral value is an integer, taken as its int (README, "Inputs").
    if bad == 5 and not isinstance(bad, complex):
        assert op(bad) == op(5)
    else:
        with pytest.raises(ValueError, match="n must be an integer"):
            op(bad)


@pytest.mark.parametrize("bad", [5.5, math.inf, math.nan, "5", Decimal("NaN")], ids=repr)
def test_walk_rejects_non_integers_before_any_row(bad, monkeypatch):
    def no_row(m):
        raise AssertionError(f"a row was started for n = {bad!r}")

    monkeypatch.setattr(math, "factorial", no_row)
    with pytest.raises(ValueError):
        stirling_row(bad)
    with pytest.raises(ValueError):
        next(stirling_rows(iter((1, 2, bad))))


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("op", _EXACT_ENTRY_POINTS)
def test_exact_entry_points_reject_nonpositive_n(op, bad):
    with pytest.raises(ValueError):
        op(bad)


@pytest.mark.parametrize("n, same", [(True, 1), (np.int64(5), 5)], ids=repr)
@pytest.mark.parametrize("op", _EXACT_ENTRY_POINTS)
def test_exact_entry_points_take_bool_and_numpy_ints(op, n, same):
    assert op(n) == op(same)
