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
    QuadratureConfig,
    ReportConfig,
    SamplerKind,
    cycle_distribution,
    estimate_collision,
    integrand,
    laplace_I,
    p_asymptotic,
    p_exact,
    p_quadrature_result,
    recip_gamma_abs_sq,
    render_json,
    run_report,
    sample_cycle_counts,
    stirling_row,
    stirling_rows,
    weierstrass_partial,
)
from cyclecollide import _args
from cyclecollide.montecarlo import _stream

EP, GR, LK = IntegrandKind.EXACT_PRODUCT, IntegrandKind.GAMMA_RATIO, IntegrandKind.LIMIT_KERNEL
BERN, PERM = SamplerKind.BERNOULLI_SUM, SamplerKind.PERMUTATION_DIRECT

# Integer arguments: (id, entry point, minimum, bounded in its argument).
INTEGER_ENTRY_POINTS = [
    ("p_exact", p_exact, 1, False),
    ("stirling_row", stirling_row, 1, False),
    ("stirling_rows", lambda n: list(stirling_rows((n,))), 1, False),
    ("cycle_distribution", cycle_distribution, 1, False),
    ("p_quadrature_result", p_quadrature_result, 1, True),
    ("p_quadrature_result-GR", lambda n: p_quadrature_result(n, GR), 1, True),
    ("p_quadrature_result-EP", lambda n: p_quadrature_result(n, EP), 1, False),
    ("integrand-GR", lambda n: integrand(GR, n, 0.5), 1, True),
    ("integrand-EP", lambda n: integrand(EP, n, 0.5), 1, False),
    ("estimate_collision-n", lambda n: estimate_collision(n, 50, seed=1), 1, True),
    ("estimate_collision-n-PERM", lambda n: estimate_collision(n, 50, PERM, seed=1), 1, True),
    ("estimate_collision-pairs", lambda p: estimate_collision(7, p, seed=1), 1, False),
    ("estimate_collision-seed", lambda s: estimate_collision(7, 50, seed=s), 0, True),
    ("estimate_collision-workers", lambda w: estimate_collision(7, 50, workers=w), 1, False),
    ("sample_cycle_counts-n", lambda n: sample_cycle_counts(BERN, n, 3, _stream(0, 0)), 1, True),
    ("sample_cycle_counts-n-PERM", lambda n: sample_cycle_counts(PERM, n, 3, _stream(0, 0)), 1, True),
    ("sample_cycle_counts-size", lambda s: sample_cycle_counts(PERM, 9, s, _stream(0, 0)), 1, False),
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
        # Past a sampler's limit, both are that ValueError.
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
    # raises a ValueError of its own domain (a sampler limit, I_n below
    # 2), never another error type.
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


# Arguments outside the two contracts, each read by another `_args` reader
# and each once a TypeError or an AttributeError: a tolerance (`real`), z
# of weierstrass_partial, the sequences of n and of methods (`items`,
# `ascending`), and the quadrature config of a report or a route, the rng
# of a sampler and the output path of a report (`instance`).  An angle
# theta that is text was parsed as a number, and a complex one was a
# TypeError (`real`).  A kind that is not an IntegrandKind is refused
# before any n is read, also at n = 1, where p needs no integrand; so is a
# config that is not a QuadratureConfig at n = 1.  A RandomState drew from
# its own stream at n >= 13.  A numpy complex n that does not subclass
# complex (complex64, clongdouble) was read as its real part with a
# ComplexWarning, also when its imaginary part is 0.  weierstrass_partial
# takes one complex z, not an array of them (gammafn docstring).
OUTSIDE_CONTRACTS = [
    ("rel_tol-text", lambda: QuadratureConfig(rel_tol="x"), "rel_tol must be finite"),
    ("rel_tol-None", lambda: QuadratureConfig(rel_tol=None), "rel_tol must be finite"),
    ("z-None", lambda: weierstrass_partial(None, 10), "z must be finite"),
    ("z-text", lambda: weierstrass_partial("0.5", 10), "z must be finite"),
    ("z-array", lambda: weierstrass_partial(np.array([1 + 1j, 2]), 10), "z must be finite"),
    ("n_values-int", lambda: ReportConfig(5, ("exact",)), "n_values must be an iterable"),
    ("methods-None", lambda: ReportConfig((5,), None), "methods must be an iterable"),
    ("stirling_rows-int", lambda: list(stirling_rows(5)), "n_values must be an iterable"),
    ("methods-unhashable", lambda: ReportConfig((5,), [["exact"]]), "methods must be a nonempty"),
    ("methods-unhashable-item", lambda: ReportConfig((5,), ["exact", {}]), "unknown methods"),
    ("quad-None", lambda: ReportConfig((5,), ("quadrature",), quad=None), "quad must be a Quad"),
    ("integrand-theta-text", lambda: integrand(GR, 10, "1"), "theta must be"),
    ("integrand-theta-text-item", lambda: integrand(LK, 10, [0.5, "2"]), "theta must be"),
    ("integrand-theta-complex", lambda: integrand(EP, 10, 1 + 0j), "theta must be"),
    ("recip_gamma_abs_sq-theta-text", lambda: recip_gamma_abs_sq(np.array(["0.5"])), "theta must be"),
    ("recip_gamma_abs_sq-theta-complex", lambda: recip_gamma_abs_sq(1 + 0j), "theta must be"),
    ("integrand-kind-text", lambda: integrand("gamma-ratio", 10, 1.0), "unknown integrand kind"),
    ("p_quadrature_result-kind-text", lambda: p_quadrature_result(1, "gamma-ratio"),
     "unknown integrand kind"),
    ("config-None", lambda: p_quadrature_result(10, None, None), "config must be a Quad"),
    ("config-float", lambda: p_quadrature_result(10, None, 1e-8), "config must be a Quad"),
    ("config-None-n1", lambda: p_quadrature_result(1, None, None), "config must be a Quad"),
    ("I_n-config-None", lambda: I_n(100, None), "config must be a Quad"),
    ("rng-None", lambda: sample_cycle_counts(BERN, 5, 3, None), "rng must be a Generator"),
    ("rng-RandomState", lambda: sample_cycle_counts(PERM, 5, 3, np.random.RandomState(0)),
     "rng must be a Generator"),
    ("rng-RandomState-13", lambda: sample_cycle_counts(BERN, 13, 3, np.random.RandomState(0)),
     "rng must be a Generator"),
    ("output_path-int", lambda: ReportConfig((5,), ("exact",), output_path=5),
     "output_path must be a str"),
    *(
        (f"{name}-{type(n).__name__}", lambda op=op, n=n: op(n), message)
        for n in (np.complex64(100 + 3j), np.clongdouble(100))
        for name, op, message in (
            ("p_asymptotic", p_asymptotic, "n must be finite and > 1"),
            ("I_n", I_n, "n must be finite and > 1"),
            ("stirling_row", stirling_row, "n must be an integer >= 1"),
            ("estimate_collision", lambda n: estimate_collision(n, 50),
             "n must be an integer >= 1"),
        )
    ),
]


@pytest.mark.parametrize(
    "op, message",
    [case[1:] for case in OUTSIDE_CONTRACTS],
    ids=[case[0] for case in OUTSIDE_CONTRACTS],
)
def test_arguments_outside_the_contracts_are_value_errors(op, message):
    with pytest.raises(ValueError, match=message):
        op()


@pytest.mark.parametrize(
    "rel_tol", [Decimal("1e-10"), Fraction(1, 10**10), True, np.float32(1e-10)], ids=repr
)
def test_rel_tol_is_stored_as_its_float(rel_tol):
    # A Decimal failed in the routes, a Fraction in the JSON echo before
    # Python 3.12, and True and a float32 were stored as they came.  Each
    # is now its float: the same routes and the same echo.
    def run(config):
        report = ReportConfig((1000,), ("quadrature", "eq2"), quad=config, output_format="json")
        return config.rel_tol, render_json(run_report(report), report)

    got, want = run(QuadratureConfig(rel_tol)), run(QuadratureConfig(float(rel_tol)))
    assert type(got[0]) is float
    assert got == want
