"""Command-line front end.

Subcommands:
    exact    - f(n) and p(n) from exact arithmetic, optionally the full row
    collide  - p(n) by one chosen method
    table    - multi-method convergence table as CSV or JSON
    verify   - run the built-in verification suite

`collide` and `table` reach every method through one dispatch, the
package's `_route`, which imports only the route module of the method it
runs: `exact` and `collide --method exact` run without importing numpy,
and `collide` by any other method without importing the exact route.

Exit codes: 0 success, 1 computation/validation failure (or a command
that needs numpy run without it), 2 usage error, 130 interrupted
(SIGINT).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import METHODS, _exact_row, _route

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .quadrature import QuadratureConfig

# The values of montecarlo.SamplerKind.
_SAMPLERS = ("bernoulli", "permutation")


def parse_n_values(spec: str) -> tuple[int, ...]:
    """Either a comma list ("3,5,10") or a geometric "start:stop:factor"
    progression (inclusive of stop when hit exactly)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("geometric spec must be start:stop:factor")
        start, stop, factor = (int(p) for p in parts)
        if start < 1 or stop < start or factor < 2:
            raise ValueError("need 1 <= start <= stop and factor >= 2")
        values = []
        v = start
        while v <= stop:
            values.append(v)
            v *= factor
        return tuple(values)
    return tuple(int(p) for p in spec.split(","))


def _n_spec(spec: str) -> tuple[int, ...]:
    # argparse type: malformed syntax is a usage error (exit 2).
    try:
        return parse_n_values(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n spec {spec!r}: {exc}") from None


def _quad_config(tol: float | None) -> QuadratureConfig:
    from .quadrature import DEFAULT_CONFIG, QuadratureConfig

    if tol is None:
        return DEFAULT_CONFIG
    return QuadratureConfig(rel_tol=tol)


def _cmd_exact(args: argparse.Namespace) -> int:
    n = args.n
    row = _exact_row(n)
    prob = row.collision_probability()
    # p(n) is f(n) / (n!)^2 reduced, so its denominator divides (n!)^2 and
    # f(n) follows without squaring the row a second time.
    f_val = prob.numerator * (row.row_sum() ** 2 // prob.denominator)
    if args.json:
        fields = [
            f'"n": {n}',
            f'"f": {f_val}',
            f'"p_numerator": {prob.numerator}',
            f'"p_denominator": {prob.denominator}',
            f'"p_approx": {prob.approx:.17g}',
        ]
        if args.row:
            fields.append(f'"row": [{", ".join(str(c) for c in row.coeffs)}]')
        print("{" + ", ".join(fields) + "}")
        return 0
    print(f"n = {n}")
    print(f"f(n) = {f_val}")
    print(f"p(n) = {prob.numerator}/{prob.denominator} = {prob.approx:.17g}")
    if args.row:
        print("row:", " ".join(str(c) for c in row.coeffs))
    return 0


def _cmd_collide(args: argparse.Namespace) -> int:
    method = args.method
    # --tol is read, and checked, by the circle routes only.
    quad = _quad_config(args.tol) if method in ("quadrature", "eq2") else None
    p, result, failure = _route(method, args.n, quad, args.pairs, args.seed, args.sampler)
    if p is None:
        raise failure
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        print(f"p = {p:.17g} (not converged)")
        return 1
    print(f"p = {p:.17g}")
    if method == "exact":
        print(f"exact = {result.numerator}/{result.denominator}")
    elif method == "quadrature":
        print(f"error estimate = {result.abs_error_estimate:.3e}")
        print(f"evaluations = {result.evaluations}")
    elif method == "eq2":
        print(f"kernel integral = {result.value:.17g}")
    elif method == "montecarlo":
        print(f"std err = {result.std_err:.17g}")
        print(f"collisions = {result.collisions}/{result.samples}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .report import ReportConfig, render_csv, render_json, run_report

    config = ReportConfig(
        n_values=args.n,
        methods=tuple(args.methods.split(",")),
        quad=_quad_config(args.tol),
        mc_pairs=args.pairs,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )
    rows = run_report(config)
    text = render_csv(rows) if args.format == "csv" else render_json(rows, config)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify

    return run_verify()


def _failures() -> tuple[type[Exception], ...]:
    # Errors that exit 1.  A QuadratureConvergenceError can only come from
    # a loaded quadrature module, so it is looked up there, not imported.
    quadrature = sys.modules.get(f"{__package__}.quadrature")
    if quadrature is None:
        return (ValueError,)
    return (ValueError, quadrature.QuadratureConvergenceError)


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    # argparse's own formatter finds its width with shutil, whose import
    # (with bz2, lzma and fnmatch) would cost each command about 3 ms.  The
    # same width: a positive COLUMNS, else stdout's terminal, else 80.
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecollide",
        description=(
            "Probability that two independent uniform random permutations "
            "of n letters have the same number of cycles."
        ),
        formatter_class=_help_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=_help_formatter)

    p_ex = add_parser("exact", help="exact f(n) and p(n)")
    p_ex.add_argument("--n", type=int, required=True)
    p_ex.add_argument("--row", action="store_true", help="print the full cycle-count row")
    p_ex.add_argument("--json", action="store_true")

    p_co = add_parser("collide", help="p(n) by one method")
    p_co.add_argument("--n", type=int, required=True)
    p_co.add_argument("--method", required=True, choices=METHODS)
    p_co.add_argument("--tol", type=float, help="quadrature relative tolerance")
    p_co.add_argument("--pairs", type=int, default=100000)
    p_co.add_argument("--sampler", choices=_SAMPLERS)
    p_co.add_argument("--seed", type=int, default=0)

    p_ta = add_parser("table", help="multi-method convergence table")
    p_ta.add_argument(
        "--n", required=True, type=_n_spec,
        help="comma list (3,5,10) or geometric start:stop:factor (100:1000000:10)",
    )
    p_ta.add_argument("--methods", required=True, help=f"comma list from {','.join(METHODS)}")
    p_ta.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ta.add_argument("--out", help="output path (default stdout)")
    p_ta.add_argument("--tol", type=float, help="quadrature relative tolerance")
    p_ta.add_argument("--pairs", type=int, default=100000)
    p_ta.add_argument("--seed", type=int, default=0)

    add_parser("verify", help="run the verification suite")

    return parser


def main(argv: list[str] | None = None) -> int:
    # f(n) and the row entries near the exact-route ceiling run to ~1e5
    # digits; lift the interpreter's int-to-str guard so they print.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    args = build_parser().parse_args(argv)
    command = {
        "exact": _cmd_exact,
        "collide": _cmd_collide,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }[args.command]
    try:
        code = command(args)
        # Flush here, not at interpreter exit, so a closed pipe surfaces
        # as the BrokenPipeError handled below.
        sys.stdout.flush()
    except _failures() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        # The samplers and verify need numpy; the rest of the CLI runs
        # without it.  Any other missing module is a bug.
        if exc.name != "numpy":
            raise
        what = args.command
        if what == "collide":
            what += f" --method {args.method}"
        print(f"error: {what} needs numpy", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull
        # so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # e.g. an unwritable `table --out` path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return code


if __name__ == "__main__":
    sys.exit(main())
