"""The lazy package: what `import cyclecollide` loads, and what its names are."""

import pickle
import subprocess
import sys

import pytest

import cyclecollide as cc


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "module", ["cyclecollide", "cyclecollide.cli", "cyclecollide.analytic", "cyclecollide.report"]
)
def test_import_does_not_load_numpy(module):
    assert _run(f"import sys, {module}; print('numpy' in sys.modules)") == "False"


def test_circle_routes_do_not_load_numpy():
    # The circle batch and a real angle of the circle integrands are Python
    # floats, and p(1) = 1 needs no integrand; EXACT_PRODUCT, whose batch
    # `quadrature` sums in numpy, imports it.
    calls = (
        "cc.I_n(10), cc.I_n(2**1030), cc.p_quadrature_result(2), cc.p_quadrature(10**6), "
        "cc.p_quadrature_result(1), cc.p_quadrature_result(1, cc.IntegrandKind.EXACT_PRODUCT), "
        "cc.integrand(cc.IntegrandKind.GAMMA_RATIO, 3, 0.5), "
        "cc.integrand(cc.IntegrandKind.LIMIT_KERNEL, 10.5, 1), cc.recip_gamma_abs_sq(2.0)"
    )
    code = f"import sys, cyclecollide as cc; {calls}; print('numpy' in sys.modules)"
    assert _run(code) == "False"
    exact_product = "cc.p_quadrature_result(2, cc.IntegrandKind.EXACT_PRODUCT)"
    assert _run(code.replace("cc.I_n(10)", exact_product)) == "True"


# Checks, in a fresh process, that every public name is the object that
# each submodule holding it holds, and that a loaded submodule is bound
# under its own name.  FIRST runs before the checks: a route that loads
# the quadrature submodule, or nothing.
_NAMES_CHECK = """
import importlib, pkgutil, sys, types
import cyclecollide as cc

assert "cyclecollide.quadrature" not in sys.modules
FIRST
public = {name: getattr(cc, name) for name in [*cc.__all__, "__version__"]}
assert public["__version__"] == cc.VERSION
submodules = [
    importlib.import_module(f"cyclecollide.{info.name}")
    for info in pkgutil.iter_modules(cc.__path__)
    if info.name != "__main__"
]
for name, value in public.items():
    holders = [vars(m)[name] for m in submodules if name in vars(m)]
    assert holders or name in ("METHODS", "VERSION", "__version__"), name
    assert all(held is value for held in holders), name
import cyclecollide.quadrature
qmod = sys.modules["cyclecollide.quadrature"]
assert isinstance(qmod, types.ModuleType)
assert cc.quadrature is qmod and cyclecollide.quadrature is qmod
assert sys.modules["cyclecollide.analytic"].quadrature is qmod.quadrature
cc.p_quadrature(100)
assert cc.quadrature is qmod
assert not hasattr(cc, "f_exact") and not hasattr(cc, "EULER_GAMMA_DIGITS")
assert set(cc.__all__) <= set(dir(cc))
print("ok")
"""


@pytest.mark.parametrize("first", ["pass", "cc.p_quadrature(100)"])
def test_public_names_resolve_to_their_modules(first):
    assert _run(_NAMES_CHECK.replace("FIRST", first)) == "ok"


# The public surface.  Adding or dropping a public name means editing this
# list.
PUBLIC_NAMES = [
    "BERNOULLI_MAX_N",
    "CSV_COLUMNS",
    "CollisionReportRow",
    "CycleDistribution",
    "DEFAULT_CONFIG",
    "EULER_GAMMA",
    "EXACT_ROUTE_CEILING",
    "ExactProbability",
    "I_n",
    "IntegrandKind",
    "METHODS",
    "McEstimate",
    "PERMUTATION_MAX_N",
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "QuadratureResult",
    "ReportConfig",
    "SamplerKind",
    "StirlingRow",
    "VERSION",
    "cycle_distribution",
    "estimate_collision",
    "integrand",
    "laplace_I",
    "log_gamma",
    "p_asymptotic",
    "p_exact",
    "p_quadrature",
    "p_quadrature_result",
    "recip_gamma_abs_sq",
    "render_csv",
    "render_json",
    "run_report",
    "run_verify",
    "sample_cycle_counts",
    "stirling_row",
    "stirling_rows",
    "weierstrass_partial",
]


def test_public_names_are_pinned():
    import cyclecollide

    assert cyclecollide.__all__ == PUBLIC_NAMES


def test_unknown_name_is_an_attribute_error():
    import cyclecollide

    with pytest.raises(AttributeError, match="no_such_name"):
        cyclecollide.no_such_name


# The public records are named tuples: iterable, indexable, equal to the
# plain tuple of their fields and hashed as it, with `_fields`, `_asdict`
# and `_replace`.  Their attribute names and reprs are those they had as
# frozen dataclasses.  (record, its fields, its repr)
_RECORDS = [
    (lambda: cc.DEFAULT_CONFIG, ("rel_tol",), "QuadratureConfig(rel_tol=1e-10)"),
    (
        lambda: cc.p_quadrature_result(10),
        ("value", "abs_error_estimate", "evaluations"),
        "QuadratureResult(value=0.24005636572585648, "
        "abs_error_estimate=4.337468667854213e-15, evaluations=33)",
    ),
    (lambda: cc.stirling_row(4), ("n", "coeffs"), "StirlingRow(n=4, coeffs=(6, 11, 6, 1))"),
    (
        lambda: cc.p_exact(4),
        ("numerator", "denominator", "approx"),
        "ExactProbability(numerator=97, denominator=288, approx=0.3368055555555556)",
    ),
    (
        lambda: cc.cycle_distribution(3),
        ("n", "probs"),
        "CycleDistribution(n=3, probs=(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))",
    ),
    (
        lambda: cc.estimate_collision(10, 1000, seed=1),
        ("n", "samples", "collisions", "p_hat", "std_err"),
        "McEstimate(n=10, samples=1000, collisions=244, p_hat=0.244, "
        "std_err=0.013581752464244074)",
    ),
    (
        lambda: cc.CollisionReportRow(7, p_asymptotic=0.5, errors=("x",)),
        (*cc.CSV_COLUMNS, "errors"),
        "CollisionReportRow(n=7, p_exact=None, p_quadrature=None, "
        "quad_error_estimate=None, p_eq2=None, p_asymptotic=0.5, "
        "ratio_to_asymptotic=None, mc_p_hat=None, mc_std_err=None, errors=('x',))",
    ),
    (
        lambda: cc.ReportConfig([5, 10], ["quadrature", "exact"], seed=3),
        ("n_values", "methods", "quad", "mc_pairs", "seed", "output_format", "output_path"),
        "ReportConfig(n_values=(5, 10), methods=('exact', 'quadrature'), "
        "quad=QuadratureConfig(rel_tol=1e-10), mc_pairs=100000, seed=3, "
        "output_format='csv', output_path=None)",
    ),
]


@pytest.mark.parametrize(
    "record, fields, want", _RECORDS, ids=[r[2].split("(")[0] for r in _RECORDS]
)
def test_public_records_are_frozen_named_tuples(record, fields, want):
    record = record()
    assert type(record).__name__ in cc.__all__
    assert type(record)._fields == fields
    assert repr(record) == want
    assert isinstance(record, tuple)
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    assert tuple(record._asdict().values()) == tuple(record)
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], record[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1


# (record, a field, a value its constructor refuses, the ValueError)
_CHECKED = [
    (lambda: cc.DEFAULT_CONFIG, "rel_tol", -1.0, "rel_tol must be finite and > 0"),
    (lambda: cc.stirling_row(4), "coeffs", (6, 11, 6), "row must have exactly n entries"),
    (lambda: cc.ReportConfig([5], ["exact"]), "methods", ("nope",), "methods must be a nonempty"),
    (lambda: cc.ReportConfig([5], ["exact"]), "n_values", (5, 5), "n_values must be strictly"),
    (lambda: cc.ReportConfig([5], ["exact"]), "quad", 1e-10, "quad must be a QuadratureConfig"),
]


@pytest.mark.parametrize(
    "record, field, bad, message",
    _CHECKED,
    ids=["config-rel_tol", "row-coeffs", "report-methods", "report-n_values", "report-quad"],
)
def test_replace_checks_as_the_constructor_does(record, field, bad, message):
    record = record()
    with pytest.raises(ValueError, match=message):
        record._replace(**{field: bad})
    with pytest.raises(ValueError, match=message):
        type(record)(**{**record._asdict(), field: bad})
    # Each field read back through the constructor gives the same record.
    assert record._replace(**record._asdict()) == record
