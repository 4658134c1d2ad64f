"""The numpy-free core, checked against pinned bytes without pytest or numpy.

With numpy, `dataclasses`, `inspect` and `typing` blocked (None in
`sys.modules`), so that the lean import graph is checked too, it compares
the stdout of each command in PINS, the exit code 1 and one stderr line of
each command in NEEDS_NUMPY, every line of tests/pins/circle.txt (through
tests/repin.py), the JSON table at each tolerance in REL_TOLS with the
table at its float, and every coefficient and the square sum of
`stirling_row(n)` for each n in CONGRUENCE_ROWS mod each prime in
CONGRUENCE_PRIMES with the congruences of `tests/oracles.py`, which share
no code with the exact route.  It exits 0 if all match, else 1, naming
the first command, pin file or n that differs, or, with a traceback, a
blocked module that was imported.  It runs on any Python the package
claims, with nothing installed: `PYTHONPATH=src python tests/core_check.py`.

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

# Tolerances that are not floats, each stored as its float, so that the
# routes and the JSON config echo are those of the float.  A Fraction
# formats itself one way up to Python 3.11 and another from 3.12.
REL_TOLS = (Decimal("1e-10"), Fraction(1, 10**10), True)

# The exact route's walk on either side of its packed cap (200) and of the
# end of its three-factor passes (1024), and primes at which q = n // p is
# large (3), 2 to 10 (97) and 1 to 5 (197).
CONGRUENCE_ROWS = (199, 200, 201, *range(1022, 1028))
CONGRUENCE_PRIMES = (3, 97, 197)


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
    from cyclecollide import stirling_row
    from oracles import square_sum_mod, stirling_row_mod
    from repin import circle, compare

    runs = [(argv, _run(argv), (0, want, "")) for argv, want in PINS]
    runs += [(argv, _run(argv), (1, "", want)) for argv, want in NEEDS_NUMPY]
    for argv, got, want in runs:
        if got != want:
            print(f"differs: cyclecollide {' '.join(argv)}", file=sys.stderr)
            print(f"exit, stdout, stderr {got!r}", file=sys.stderr)
            print(f"pinned: {want!r}", file=sys.stderr)
            return 1
    try:
        compare("circle.txt", circle())
    except AssertionError as exc:
        print(f"differs: {exc}", file=sys.stderr)
        return 1
    for rel_tol in REL_TOLS:
        if _table_json(rel_tol) != _table_json(float(rel_tol)):
            print(f"differs: the JSON table at rel_tol {rel_tol!r}", file=sys.stderr)
            return 1
    for n in CONGRUENCE_ROWS:
        row = stirling_row(n)
        for p in CONGRUENCE_PRIMES:
            got = (tuple(c % p for c in row.coeffs), row.square_sum() % p)
            if got != (stirling_row_mod(n, p), square_sum_mod(n, p)):
                print(f"differs: stirling_row({n}) mod {p}", file=sys.stderr)
                return 1
    print(
        f"{len(runs)} commands, tests/pins/circle.txt and {len(REL_TOLS)} tolerances match "
        f"their pins, and {len(CONGRUENCE_ROWS)} rows mod "
        f"{len(CONGRUENCE_PRIMES)} primes their congruences, on Python "
        f"{sys.version.split()[0]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
