"""Multi-method convergence tables for the collision probability.

One `CollisionReportRow` per requested n, with any subset of the five
methods populated:

    exact       - reduced-fraction arithmetic, rendered as a 20-digit
                  decimal string (ground truth, exceeds double precision)
    quadrature  - unit-circle integral identity, the O(1) Gamma-ratio
                  integrand with a certified error estimate
    eq2         - the large-n kernel integral divided by 2 pi
    asymptotic  - closed form 1 / (2 sqrt(pi log n))
    montecarlo  - paired sampling with binomial standard error

Serialization is byte-stable: a fixed CSV column order, floats always
rendered with 17 significant digits, and a hand-assembled JSON document
so both formats carry identical value strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal

from . import METHODS, VERSION, _args, _route
from .asymptotic import p_asymptotic
from .exact import EXACT_ROUTE_CEILING, StirlingRow, stirling_rows
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

CSV_COLUMNS = (
    "n",
    "p_exact",
    "p_quadrature",
    "quad_error_estimate",
    "p_eq2",
    "p_asymptotic",
    "ratio_to_asymptotic",
    "mc_p_hat",
    "mc_std_err",
)


@dataclass(frozen=True)
class CollisionReportRow:
    n: int
    p_exact: str | None = None
    p_quadrature: float | None = None
    quad_error_estimate: float | None = None
    p_eq2: float | None = None
    p_asymptotic: float | None = None
    ratio_to_asymptotic: float | None = None
    mc_p_hat: float | None = None
    mc_std_err: float | None = None
    # Per-row method failures (exact route above its ceiling, Monte Carlo
    # above the sampler limit, quadrature that did not converge).
    # Serialized in JSON only; the CSV schema is the fixed nine columns
    # above.
    errors: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportConfig:
    n_values: tuple[int, ...]
    methods: tuple[str, ...]
    quad: QuadratureConfig = DEFAULT_CONFIG
    mc_pairs: int = 100000
    seed: int = 0
    output_format: str = "csv"
    output_path: str | None = None

    def __post_init__(self) -> None:
        n_values = _args.ascending("n_values", self.n_values)
        if not n_values:
            raise ValueError("n_values must be nonempty")
        # Compared, not hashed: an unhashable item is an unknown method.
        requested = _args.items("methods", self.methods)
        methods = tuple(m for m in METHODS if m in requested)
        if not methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        unknown = [m for m in requested if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if ("asymptotic" in methods or "eq2" in methods) and n_values[0] < 2:
            raise ValueError("asymptotic and eq2 methods require all n >= 2")
        _args.instance("quad", self.quad, QuadratureConfig)
        mc_pairs = _args.integer("mc_pairs", self.mc_pairs, 1)
        seed = _args.seed(self.seed)
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be 'csv' or 'json'")
        if self.output_path is not None:
            _args.instance("output_path", self.output_path, str)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "mc_pairs", mc_pairs)
        object.__setattr__(self, "seed", seed)


# The p_exact column's own context, so its digits do not follow the
# caller's decimal context (rounding, traps, capitals).
_EXACT_DIGITS = Context(prec=20, rounding=ROUND_HALF_EVEN)


def _exact_decimal(numerator: int, denominator: int) -> str:
    ctx = _EXACT_DIGITS
    return ctx.to_sci_string(ctx.divide(Decimal(numerator), Decimal(denominator)))


# The columns each method fills from its p and the result its route returned.
_COLUMNS = {
    "exact": lambda p, r: {"p_exact": _exact_decimal(r.numerator, r.denominator)},
    "quadrature": lambda p, r: {"p_quadrature": p, "quad_error_estimate": r.abs_error_estimate},
    "eq2": lambda p, r: {"p_eq2": p},
    "asymptotic": lambda p, r: {"p_asymptotic": p},
    "montecarlo": lambda p, r: {"mc_p_hat": p, "mc_std_err": r.std_err},
}


def _compute_row(
    n: int, config: ReportConfig, stirling: StirlingRow | None
) -> CollisionReportRow:
    errors: list[str] = []
    fields: dict = {"n": n}
    best_p: float | None = None
    # Montecarlo first and exact last: the ratio's p is the last one found.
    for method in reversed(config.methods):
        p, result, failure = _route(
            method, n, config.quad, config.mc_pairs, config.seed, row=stirling
        )
        if failure is not None:
            errors.append(f"{method}: {failure}")
        if p is not None:
            fields.update(_COLUMNS[method](p, result))
            if method != "asymptotic":
                best_p = p
    if best_p is not None and n >= 2:
        fields["ratio_to_asymptotic"] = best_p / p_asymptotic(n)
    return CollisionReportRow(**fields, errors=tuple(errors))


def run_report(config: ReportConfig) -> list[CollisionReportRow]:
    """One row per configured n, in ascending n order.

    Per-row method failures are recorded on the row (exact route above
    its ceiling; Monte Carlo above BERNOULLI_MAX_N; non-converged
    quadrature keeps its best estimate), never raised.  The exact column
    comes from one ascending row walk: n_values ascend, so the n within
    the exact-route ceiling are a prefix and their rows arrive in step.
    """
    exact_rows = iter(())
    if "exact" in config.methods:
        exact_rows = stirling_rows(n for n in config.n_values if n <= EXACT_ROUTE_CEILING)
    return [_compute_row(n, config, next(exact_rows, None)) for n in config.n_values]


def _cells(row: CollisionReportRow) -> list[str | None]:
    # One value string per CSV column, None where the value is missing:
    # n as an integer, p_exact as its decimal string, and every other
    # column a float with 17 significant digits.
    floats = (getattr(row, column) for column in CSV_COLUMNS[2:])
    return [str(row.n), row.p_exact, *(x if x is None else f"{x:.17g}" for x in floats)]


def render_csv(rows: list[CollisionReportRow]) -> str:
    """Fixed-schema CSV; missing values are empty fields, newline endings."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(cell or "" for cell in _cells(row)) for row in rows]
    return "\n".join(lines) + "\n"


# What JSON escapes in a string: the quote, the backslash and U+0000-U+001F.
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def _json_str(s: str) -> str:
    return '"' + s.translate(_JSON_ESCAPES) + '"'


def _render_row_json(row: CollisionReportRow) -> str:
    # The CSV cells; p_exact is the one string column.
    parts = [
        f'"{column}": '
        + ("null" if cell is None else _json_str(cell) if column == "p_exact" else cell)
        for column, cell in zip(CSV_COLUMNS, _cells(row))
    ]
    parts.append(f'"errors": [{", ".join(_json_str(e) for e in row.errors)}]')
    return "{" + ", ".join(parts) + "}"


def _render_config_json(config: ReportConfig) -> str:
    out_path = "null" if config.output_path is None else _json_str(config.output_path)
    return (
        "{"
        f'"n_values": [{", ".join(str(n) for n in config.n_values)}], '
        f'"methods": [{", ".join(_json_str(m) for m in config.methods)}], '
        f'"quad": {{"rel_tol": {config.quad.rel_tol:.17g}}}, '
        f'"mc_pairs": {config.mc_pairs}, '
        f'"seed": {config.seed}, '
        f'"output_format": {_json_str(config.output_format)}, '
        f'"output_path": {out_path}'
        "}"
    )


def render_json(rows: list[CollisionReportRow], config: ReportConfig) -> str:
    """JSON document with the same values (identical digit strings) as the
    CSV rendering, plus the config and a schema version."""
    body = ",\n    ".join(_render_row_json(r) for r in rows)
    return (
        "{\n"
        f'  "rows": [\n    {body}\n  ],\n'
        f'  "config": {_render_config_json(config)},\n'
        f'  "version": {_json_str(VERSION)}\n'
        "}\n"
    )
