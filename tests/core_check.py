"""The numpy-free core, checked against pinned bytes without pytest or numpy.

Runs each command in PINS through `cyclecollide.cli.main` with numpy
blocked (`sys.modules["numpy"] = None`) and compares its stdout with the
pinned bytes.  Exits 0 when every command matches; otherwise exits 1 and
names the first command that differs.  It needs no installed package, so
it runs on any interpreter the package claims:

    PYTHONPATH=src python tests/core_check.py

pytest does not collect this file; tests/test_cli.py imports PINS from it.
"""

import contextlib
import io
import sys

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
)


def main() -> int:
    sys.modules["numpy"] = None
    from cyclecollide.cli import main as cli_main

    for argv, want in PINS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(argv))
        if (code, out.getvalue()) != (0, want):
            print(f"differs: cyclecollide {' '.join(argv)}", file=sys.stderr)
            print(f"exit {code}, stdout {out.getvalue()!r}", file=sys.stderr)
            print(f"pinned: exit 0, stdout {want!r}", file=sys.stderr)
            return 1
    print(f"{len(PINS)} commands match their pins on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
