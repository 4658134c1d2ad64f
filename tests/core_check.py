"""The numpy-free core, checked against pinned bytes without pytest or numpy.

With numpy blocked (`sys.modules["numpy"] = None`), and `dataclasses`,
`inspect` and `typing` blocked the same way, so that the lean import
graph is checked too, it runs each command in PINS through
`cyclecollide.cli.main` and compares its stdout with the pinned bytes,
runs each command in NEEDS_NUMPY and compares its exit
code 1 and its one stderr line, compares the `float.hex` of
`p_quadrature_result(n).value` and `I_n(n).value` with VALUE_PINS, and
compares a JSON table at each tolerance in REL_TOLS with the table at its
float.
Exits 0 when everything matches; otherwise exits 1 and names the first
command or n that differs, or, with a traceback, a blocked module that
was imported.  It needs no installed package, so it runs
on any interpreter the package claims:

    PYTHONPATH=src python tests/core_check.py

pytest does not collect this file; tests/test_cli.py imports PINS from it.
"""

import contextlib
import io
import sys
from decimal import Decimal
from fractions import Fraction

# (argv, stdout) of the commands that run without numpy.  The circle
# values come from `math` alone, so from the C library's libm.
PINS = (
    (
        ("exact", "--n", "5", "--row"),
        "n = 5\nf(n) = 4402\np(n) = 2201/7200 = 0.30569444444444444\n"
        "row: 24 50 35 10 1\n",
    ),
    (
        ("collide", "--n", "5", "--method", "exact"),
        "p = 0.30569444444444444\nexact = 2201/7200\n",
    ),
    (
        ("collide", "--n", "10", "--method", "asymptotic"),
        "p = 0.1859033533216066\n",
    ),
    (
        ("collide", "--n", "10", "--method", "quadrature"),
        "p = 0.24005636572585648\nerror estimate = 4.337e-15\nevaluations = 33\n",
    ),
    (
        ("collide", "--n", "10", "--method", "eq2"),
        "p = 0.24864367868641352\nkernel integral = 1.5622743086455555\n",
    ),
    (
        ("table", "--n", "5,10", "--methods", "exact,quadrature,eq2,asymptotic"),
        "n,p_exact,p_quadrature,quad_error_estimate,p_eq2,p_asymptotic,"
        "ratio_to_asymptotic,mc_p_hat,mc_std_err\n"
        "5,0.30569444444444444444,0.3056944444444446,5.3721817949240683e-15,"
        "0.33463012803344688,0.22236065990957299,1.3747685609889837,,\n"
        "10,0.24005636572585638622,0.24005636572585648,4.3374686678542132e-15,"
        "0.24864367868641352,0.1859033533216066,1.2912965873755213,,\n",
    ),
    (
        ("collide", "--n", "1", "--method", "quadrature"),
        "p = 1\nerror estimate = 0.000e+00\nevaluations = 0\n",
    ),
)

# (argv, stderr) of commands that need numpy: each exits 1 with one error
# line and prints nothing on stdout.
NEEDS_NUMPY = (
    (
        ("collide", "--n", "10", "--method", "montecarlo"),
        "error: collide --method montecarlo needs numpy\n",
    ),
    (("verify",), "error: verify needs numpy\n"),
)

# (n, p_quadrature_result(n).value.hex(), I_n(n).value.hex()) at the
# default tolerance.
VALUE_PINS = (
    (2, "0x1.0000000000003p-1", "0x1.1027e099874a4p+2"),
    (10**3, "0x1.e19e61a037832p-4", "0x1.7a4ea37b46db1p-1"),
    (10**6, "0x1.44fe4740e374cp-4", "0x1.fe7f8eb46a438p-2"),
    (2**64, "0x1.5fb3b88570818p-5", "0x1.1439e3c65de9cp-2"),
    (10**300, "0x1.6001df74bf843p-7", "0x1.1477452f499f2p-4"),
)

# Tolerances that are not floats, each stored as its float, so that the
# routes and the JSON config echo are those of the float.  A Fraction
# formats itself one way up to Python 3.11 and another from 3.12.
REL_TOLS = (Decimal("1e-10"), Fraction(1, 10**10), True)


def _run(argv) -> tuple[int, str, str]:
    from cyclecollide.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _table_json(rel_tol) -> str:
    from cyclecollide import QuadratureConfig, ReportConfig, render_json, run_report

    config = ReportConfig(
        (1000,), ("quadrature", "eq2"), QuadratureConfig(rel_tol), output_format="json"
    )
    return render_json(run_report(config), config)


def main() -> int:
    # Importing any of these fails from here on.  A module that site loaded
    # at start-up (a .pth file may load typing) stays usable where it is
    # already held.
    sys.modules.update(dict.fromkeys(("numpy", "dataclasses", "inspect", "typing")))
    from cyclecollide import I_n, p_quadrature_result

    runs = [(argv, _run(argv), (0, want, "")) for argv, want in PINS]
    runs += [(argv, _run(argv), (1, "", want)) for argv, want in NEEDS_NUMPY]
    for argv, got, want in runs:
        if got != want:
            print(f"differs: cyclecollide {' '.join(argv)}", file=sys.stderr)
            print(f"exit, stdout, stderr {got!r}", file=sys.stderr)
            print(f"pinned: {want!r}", file=sys.stderr)
            return 1
    for n, *want in VALUE_PINS:
        got = [p_quadrature_result(n).value.hex(), I_n(n).value.hex()]
        if got != want:
            print(f"differs: p_quadrature_result and I_n at n = {n}", file=sys.stderr)
            print(f"values {got}, pinned {want}", file=sys.stderr)
            return 1
    for rel_tol in REL_TOLS:
        if _table_json(rel_tol) != _table_json(float(rel_tol)):
            print(f"differs: the JSON table at rel_tol {rel_tol!r}", file=sys.stderr)
            return 1
    print(
        f"{len(runs)} commands, {len(VALUE_PINS)} n and {len(REL_TOLS)} tolerances "
        f"match their pins on Python {sys.version.split()[0]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
