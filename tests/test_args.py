"""The two argument contracts (README, "Inputs") at every public entry point.

An integer argument is any value whose int() equals it, taken as that
int; a real n is an int unchanged or a finite double > 1.  Everything
else is one ValueError.  The exact walk, the EXACT_PRODUCT routes and the
counts of work (pairs, size, terms, workers) are unbounded in their
argument, so they are never called on an accepted value above 50.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecollide import (
    I_n,
    IntegrandKind,
    ReportConfig,
    SamplerKind,
    cycle_distribution,
    estimate_collision,
    f_exact,
    harmonic,
    integrand,
    laplace_I,
    p_asymptotic,
    p_exact,
    p_quadrature_result,
    rising_factorial_eval,
    sample_cycle_count,
    sample_cycle_counts,
    stirling_row,
    stirling_rows,
    weierstrass_partial,
)
from cyclecollide import _args
from cyclecollide.montecarlo import _stream

EP, GR, LK = IntegrandKind.EXACT_PRODUCT, IntegrandKind.GAMMA_RATIO, IntegrandKind.LIMIT_KERNEL
BERN, PERM = SamplerKind.BERNOULLI_SUM, SamplerKind.PERMUTATION_DIRECT
ROW, DIST = stirling_row(6), cycle_distribution(6)

# Integer arguments: (id, entry point, minimum, bounded in its argument).
INTEGER_ENTRY_POINTS = [
    ("p_exact", p_exact, 1, False),
    ("stirling_row", stirling_row, 1, False),
    ("stirling_rows", lambda n: list(stirling_rows((n,))), 1, False),
    ("f_exact", f_exact, 1, False),
    ("cycle_distribution", cycle_distribution, 1, False),
    ("rising_factorial_eval", lambda n: rising_factorial_eval(n, Fraction(1, 3)), 1, False),
    ("coeff", ROW.coeff, 1, True),
    ("prob", DIST.prob, 1, True),
    ("p_quadrature_result", p_quadrature_result, 1, True),
    ("p_quadrature_result-GR", lambda n: p_quadrature_result(n, GR), 1, True),
    ("p_quadrature_result-EP", lambda n: p_quadrature_result(n, EP), 1, False),
    ("integrand-GR", lambda n: integrand(GR, n, 0.5), 1, True),
    ("integrand-EP", lambda n: integrand(EP, n, 0.5), 1, False),
    ("harmonic", harmonic, 0, True),
    ("estimate_collision-n", lambda n: estimate_collision(n, 50, seed=1), 1, True),
    ("estimate_collision-n-PERM", lambda n: estimate_collision(n, 50, PERM, seed=1), 1, True),
    ("estimate_collision-pairs", lambda p: estimate_collision(7, p, seed=1), 1, False),
    ("estimate_collision-seed", lambda s: estimate_collision(7, 50, seed=s), 0, True),
    ("estimate_collision-workers", lambda w: estimate_collision(7, 50, workers=w), 1, False),
    ("sample_cycle_counts-n", lambda n: sample_cycle_counts(BERN, n, 3, _stream(0, 0)), 1, True),
    ("sample_cycle_counts-n-PERM", lambda n: sample_cycle_counts(PERM, n, 3, _stream(0, 0)), 1, True),
    ("sample_cycle_counts-size", lambda s: sample_cycle_counts(PERM, 9, s, _stream(0, 0)), 1, False),
    ("sample_cycle_count", lambda n: sample_cycle_count(BERN, n, _stream(0, 0)), 1, True),
    ("sample_cycle_count-PERM", lambda n: sample_cycle_count(PERM, n, _stream(0, 0)), 1, True),
    ("ReportConfig-n", lambda n: ReportConfig((n,), ("quadrature",)), 1, True),
    ("ReportConfig-mc_pairs", lambda p: ReportConfig((3,), ("montecarlo",), mc_pairs=p), 1, True),
    ("ReportConfig-seed", lambda s: ReportConfig((3,), ("montecarlo",), seed=s), 0, True),
    ("weierstrass_partial-terms", lambda t: weierstrass_partial(0.5 + 0.5j, t), 1, False),
]
# Real n: (id, entry point).
REAL_ENTRY_POINTS = [
    ("I_n", I_n),
    ("integrand-LK", lambda n: integrand(LK, n, 0.5)),
    ("laplace_I", laplace_I),
    ("p_asymptotic", p_asymptotic),
]

# value, the int the integer contract takes it as, the n the real contract
# takes it as (None: rejected).
TABLE = [
    (5.0, 5, 5),
    (np.float64(5), 5, 5),
    (Fraction(5), 5, 5),
    (Decimal(5), 5, 5),
    (5.5, None, 5.5),
    ("5", None, None),
    (5 + 0j, None, None),
    (np.array([5]), None, None),
    (Decimal("NaN"), None, None),
    # float() takes both to inf or past it, so the limit is not 0.0.
    (Decimal("1e400"), 10**400, None),
    (Fraction(10**400), 10**400, None),
    (True, 1, None),
    (np.int64(5), 5, 5),
    (0, 0, None),
    (-1, -1, None),
    (math.nan, None, None),
    (math.inf, None, None),
    (-math.inf, None, None),
]

ROWS = pytest.mark.parametrize("value, as_int, as_real", TABLE, ids=[repr(row[0]) for row in TABLE])


def _outcome(op, value):
    # What a call gives: the repr of its value (arrays as lists), so that
    # 5 and 5.0 differ, or the ValueError's message.
    try:
        result = op(value)
    except ValueError as exc:
        return str(exc)
    return repr(result.tolist() if isinstance(result, np.ndarray) else result)


@ROWS
@pytest.mark.parametrize(
    "op, minimum, bounded",
    [entry[1:] for entry in INTEGER_ENTRY_POINTS],
    ids=[entry[0] for entry in INTEGER_ENTRY_POINTS],
)
def test_integer_entry_points(op, minimum, bounded, value, as_int, as_real):
    if as_int is None or as_int < minimum:
        with pytest.raises(ValueError, match="must be an integer >= "):
            op(value)
    elif bounded or as_int <= 50:
        # Past a sampler's limit or a row's length, both are that ValueError.
        assert _outcome(op, value) == _outcome(op, as_int)


@ROWS
@pytest.mark.parametrize(
    "op", [entry[1] for entry in REAL_ENTRY_POINTS], ids=[entry[0] for entry in REAL_ENTRY_POINTS]
)
def test_real_entry_points(op, value, as_int, as_real):
    if as_real is None:
        with pytest.raises(ValueError, match="n must be finite and > 1"):
            op(value)
    else:
        assert _outcome(op, value) == _outcome(op, as_real)


_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=60),
    st.integers(min_value=-(2**70), max_value=2**1100),
    st.floats(),
    st.floats(min_value=-3, max_value=60).map(round).map(float),
    st.fractions(max_denominator=4),
    st.decimals(min_value=-(10**30), max_value=10**30, places=1),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.complex_numbers(max_magnitude=100),
)


def _contract_accepts(contract, value):
    try:
        return True, contract(value)
    except ValueError:
        return False, None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_VALUES)
def test_entry_points_follow_their_contract(value):
    # Each entry point rejects exactly what its contract rejects, with the
    # contract's ValueError; on a value the contract takes it returns or
    # raises a ValueError of its own domain (a sampler limit, k past the
    # row, I_n below 2), never another error type.
    cases = [
        (op, lambda v, m=minimum: _args.integer("x", v, m), bounded, "must be an integer >= ")
        for _, op, minimum, bounded in INTEGER_ENTRY_POINTS
    ] + [(op, _args.real_n, True, "n must be finite and > 1") for _, op in REAL_ENTRY_POINTS]
    for op, contract, bounded, message in cases:
        accepted, taken = _contract_accepts(contract, value)
        if not accepted:
            with pytest.raises(ValueError, match=message):
                op(value)
        elif bounded or taken <= 50:
            try:
                op(value)
            except ValueError as exc:
                assert message not in str(exc)
