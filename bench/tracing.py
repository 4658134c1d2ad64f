"""Spans around calls into each cyclecollide module, for the traced run only.

`install` rebinds, in every package module, the public functions that
module imports from another package module (plus
`montecarlo.sample_cycle_counts`, which montecarlo calls through its own
global), so each cross-module call opens a span.  The integrand is spanned
by wrapping the `f` argument of `quadrature()`.  Private helpers are never
wrapped: their time counts as their caller's self time.  Nothing here runs
in an untraced run.

A span is [name, start, end, parent, op, attrs]; spans stay in memory and
are written once, when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from statistics import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.criteria: dict[str, float] = {}

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, attrs or {}])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def enclosing(self, key: str):
        """The value of `key` on the innermost open span that has it."""
        for idx in reversed(self._stack):
            value = self.spans[idx][5].get(key)
            if value is not None:
                return value
        return None

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "criteria": self.criteria}, handle)


def spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    """fn wrapped in a span; `before(*args, **kw)` gives the span's attrs,
    `after(attrs, result)` adds to them once the span has closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, before(*args, **kwargs) if before else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            tracer.spans[idx][5]["error"] = type(exc).__name__
            raise
        tracer.close(idx)
        if after is not None:
            after(tracer.spans[idx][5], result)
        return result

    return wrapper


def _attr_rules() -> dict:
    """Per span name: (before, after) hooks that record the layer counters."""
    import numpy as np
    from cyclecollide import analytic, montecarlo

    def resolved_kind(n, kind=None, config=None):
        if kind is None:
            kind = (
                analytic.IntegrandKind.EXACT_PRODUCT
                if n <= analytic.EXACT_PRODUCT_AUTO_MAX
                else analytic.IntegrandKind.GAMMA_RATIO
            )
        return {"kind": kind.value}

    def n_attr(n, *args, **kwargs):
        return {"n": int(n)}

    def f_bits(attrs, result):
        attrs["bits"] = result.bit_length()

    def p_bits(attrs, result):
        n = attrs["n"]
        f = result.numerator * math.factorial(n) ** 2 // result.denominator
        attrs["bits"] = f.bit_length()

    def row_bits(attrs, result):
        attrs["bits"] = math.factorial(attrs["n"]).bit_length()

    def pairs_attr(n, pairs, *args, **kwargs):
        return {"pairs": int(pairs), "blocks": -(-int(pairs) // montecarlo.BLOCK_PAIRS)}

    def draws_attr(kind, n, size, rng):
        return {"kind": kind.value, "draws": int(size)}

    def rows_after(attrs, result):
        attrs["rows"] = len(result)

    return {
        "analytic.p_quadrature_result": (resolved_kind, None),
        "analytic.p_quadrature": (resolved_kind, None),
        "analytic.I_n": (lambda *a, **k: {"kind": "limit-kernel"}, None),
        "analytic.integrand": (
            lambda kind, n, theta: {"kind": kind.value, "points": int(np.size(theta))},
            None,
        ),
        "gammafn.log_gamma_ratio": (lambda n, z: {"points": int(np.size(z))}, None),
        "gammafn.recip_gamma_abs_sq": (lambda t: {"points": int(np.size(t))}, None),
        "gammafn.log_gamma": (lambda z: {"points": int(np.size(z))}, None),
        "exact.f_exact": (n_attr, f_bits),
        "exact.p_exact": (n_attr, p_bits),
        "exact.stirling_row": (n_attr, row_bits),
        "exact.cycle_distribution": (n_attr, row_bits),
        "montecarlo.estimate_collision": (pairs_attr, None),
        "montecarlo.sample_cycle_counts": (draws_attr, None),
        "report.run_report": (None, rows_after),
    }


def install(tracer: Tracer):
    """Rebind the cross-module public names of every cyclecollide module.

    Returns `wrap(fn)`, which the benchmark uses to span its own calls
    into the package so each op's root span is its entry call.
    """
    # import_module, not `from cyclecollide import ...`: the package
    # re-exports the function `quadrature` under its module's name.
    modules = [
        importlib.import_module(f"cyclecollide.{name}")
        for name in ("analytic", "cli", "exact", "gammafn", "montecarlo",
                     "quadrature", "report", "verify")
    ]
    analytic, cli, exact, gammafn, montecarlo, quadrature, report, verify = modules
    rules = _attr_rules()
    wrapped: dict = {}

    def wrap(fn):
        if fn not in wrapped:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if fn is quadrature.quadrature:
                wrapped[fn] = _spanned_quadrature(tracer, fn, quadrature)
            else:
                before, after = rules.get(name, (None, None))
                wrapped[fn] = spanned(tracer, name, fn, before, after)
        return wrapped[fn]

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__.startswith("cyclecollide.")
                and value.__module__ != mod.__name__
            ):
                setattr(mod, attr, wrap(value))
    montecarlo.sample_cycle_counts = wrap(montecarlo.sample_cycle_counts)

    class Recorded(verify.Criterion):
        def run(self):
            result = super().run()
            tracer.criteria[result.name] = result.elapsed
            return result

    verify.CRITERIA = tuple(
        Recorded(
            c.name,
            c.time_limit,
            spanned(tracer, "verify.check", c.check, lambda n=c.name: {"criterion": n}),
        )
        for c in verify.CRITERIA
    )
    return wrap


def _spanned_quadrature(tracer: Tracer, fn, qmod):
    import numpy as np

    def wrapper(f, *args, **kwargs):
        kind = tracer.enclosing("kind") or "unknown"
        g = spanned(
            tracer,
            "analytic.integrand",
            f,
            lambda t: {"kind": kind, "points": int(np.size(t))},
        )
        idx = tracer.open("quadrature.quadrature")
        attrs = tracer.spans[idx][5]
        try:
            result = fn(g, *args, **kwargs)
        except qmod.QuadratureConvergenceError as exc:
            tracer.close(idx)
            attrs.update(evaluations=exc.best.evaluations, not_converged=1)
            raise
        except BaseException as exc:
            tracer.close(idx)
            attrs["error"] = type(exc).__name__
            raise
        tracer.close(idx)
        attrs["evaluations"] = result.evaluations
        return result

    return functools.wraps(fn)(wrapper)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def op_balance(spans: list[list]) -> float:
    """Largest |sum of span self times - root span time| over ops, in s."""
    total: dict[int, float] = defaultdict(float)
    root: dict[int, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if s[4] < 0:
            continue
        total[s[4]] += t
        if s[3] < 0:
            root[s[4]] += s[2] - s[1]
    return max((abs(total[op] - root[op]) for op in total), default=0.0)


def layer_metrics(spans: list[list], criteria: dict[str, float]) -> dict[str, float]:
    """The span-derived per-layer metrics (see spec.PER_LAYER)."""
    self_t = self_times(spans)
    count: dict[str, float] = defaultdict(float)
    ms: dict[str, float] = defaultdict(float)
    dur: dict[str, float] = defaultdict(float)
    evals_per_call = []
    for s, t in zip(spans, self_t):
        name, attrs = s[0], s[5]
        count[name + ".calls"] += 1
        ms[name] += t * 1e3
        dur[name] += s[2] - s[1]
        for key in ("points", "pairs", "blocks", "rows", "bits", "n", "not_converged"):
            if key in attrs:
                count[f"{name}.{key}"] += attrs[key]
        if name == "analytic.integrand":
            count[f"integrand.evals.{attrs['kind']}"] += attrs["points"]
            ms[f"integrand.{attrs['kind']}"] += t * 1e3
        elif name == "quadrature.quadrature" and "evaluations" in attrs:
            count["quadrature.evaluations"] += attrs["evaluations"]
            evals_per_call.append(attrs["evaluations"])
        elif name == "montecarlo.sample_cycle_counts":
            count[f"draws.{attrs['kind']}"] += attrs["draws"]
            dur[f"draws.{attrs['kind']}"] += s[2] - s[1]

    def rate(kind):
        t = dur[f"draws.{kind}"]
        return count[f"draws.{kind}"] / t if t > 0 else 0.0

    exact_fns = ("exact.p_exact", "exact.f_exact", "exact.stirling_row",
                 "exact.cycle_distribution")
    out = {}
    for fn in ("log_gamma_ratio", "recip_gamma_abs_sq"):
        out[f"gammafn.{fn}.calls"] = count[f"gammafn.{fn}.calls"]
        out[f"gammafn.{fn}.points"] = count[f"gammafn.{fn}.points"]
        out[f"gammafn.{fn}.self_ms"] = ms[f"gammafn.{fn}"]
    for kind in ("exact-product", "gamma-ratio", "limit-kernel"):
        out[f"analytic.integrand.evals.{kind}"] = count[f"integrand.evals.{kind}"]
        out[f"analytic.integrand.self_ms.{kind}"] = ms[f"integrand.{kind}"]
    out["quadrature.calls"] = count["quadrature.quadrature.calls"]
    out["quadrature.evaluations"] = count["quadrature.evaluations"]
    out["quadrature.evals_per_call_p50"] = median(evals_per_call) if evals_per_call else 0
    out["quadrature.self_ms"] = ms["quadrature.quadrature"]
    out["quadrature.not_converged"] = count["quadrature.quadrature.not_converged"]
    out["exact.calls"] = sum(count[f + ".calls"] for f in exact_fns)
    out["exact.self_ms"] = sum(ms[f] for f in exact_fns)
    out["exact.rows_requested"] = sum(count[f + ".n"] for f in exact_fns)
    out["exact.result_bits"] = sum(count[f + ".bits"] for f in exact_fns)
    out["montecarlo.pairs"] = count["montecarlo.estimate_collision.pairs"]
    out["montecarlo.blocks"] = count["montecarlo.estimate_collision.blocks"]
    out["montecarlo.draws_per_s.permutation"] = rate("permutation")
    out["montecarlo.draws_per_s.bernoulli"] = rate("bernoulli")
    out["montecarlo.sample.self_ms"] = ms["montecarlo.sample_cycle_counts"]
    out["montecarlo.estimate.self_ms"] = ms["montecarlo.estimate_collision"]
    out["report.rows"] = count["report.run_report.rows"]
    out["report.run_report.self_ms"] = ms["report.run_report"]
    out["report.render_ms"] = (dur["report.render_csv"] + dur["report.render_json"]) * 1e3
    for name, elapsed in criteria.items():
        out[f"verify.{name}_s"] = elapsed
    return out
