"""The lazy package: what `import cyclecollide` loads, and what its names are."""

import subprocess
import sys

import pytest


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
    # floats, and p(1) = 1 needs no integrand; EXACT_PRODUCT, which runs
    # the ladder, imports numpy.
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
