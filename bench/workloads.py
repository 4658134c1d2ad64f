"""Op lists, op execution and oracles for the four workloads.

Every input comes from the run's seed.  Sizes are log-uniform: the
quadrature workload draws one n per equal slice of the log range
(stratified sampling, then shuffled); exact and montecarlo, with far fewer
ops, take the slice midpoints and the seed sets their order and random
streams.  Either way two seeds time the same spread of cost.

A run times one op list ROUNDS times (plus CHEAP_ROUNDS of its cheap
ops), each round in fresh processes (see run.py).  The list holds a fixed
rate times --seconds / ROUNDS ops, and at least MIN_OPS so that it has a
tail, so a given (seed, seconds) always times the same op list and a
faster program finishes it sooner.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import sys
import time
from fractions import Fraction

import numpy as np
from cyclecollide import analytic, cli, exact, montecarlo, report
from cyclecollide.analytic import EXACT_PRODUCT_AUTO_MAX, IntegrandKind
from cyclecollide.quadrature import DEFAULT_CONFIG, QuadratureConfig

import spec

# rel_tol that `verify` uses for its quadrature criteria.
TIGHT = QuadratureConfig(rel_tol=1e-12)

# Ops per second of --seconds, divided over the ROUNDS.  Set on a 2-core
# Xeon (Python 3.11, numpy 2.4) so that a run's timed op time stays within
# --seconds and the four workloads' runs fit the time the benchmark gets.
QUADRATURE_RATE = 200
EXACT_ISOLATED_RATE = 5.5
EXACT_SWEEP_RATE = 5.0
MONTECARLO_RATE = 1.1

# Rounds per run: the host this was tuned on runs the same work up to 2x
# slower, switching within fractions of a second, so each op is timed in
# several rounds and counts their median (see run.op_latencies).
# In-process rounds are cheap (worker.py forks them from an interpreter
# that has imported the package).  A cli round (every README command,
# verify included) takes ~20 s, so it gets one.
ROUNDS = {"cli": 1, "quadrature": 8, "exact": 3, "montecarlo": 3}
MIN_OPS = 11
# Extra rounds that run only the cheap ops (`cheap`).  An exact round
# takes seconds because of its few largest n, and the ops that set
# latency_p50_ms and latency_tail_ms take under 0.1 s, so they get more
# rounds at little cost.
CHEAP_ROUNDS = {"cli": 0, "quadrature": 0, "exact": 4, "montecarlo": 0}
# Workloads whose ops count their fastest round instead of the median.  A
# Monte Carlo op streams tens of MB for up to 3 s, gets only three rounds,
# and is slowed by memory traffic that the probe does not feel.
FASTEST = {"montecarlo"}

# Slow stretches can outlast a whole run, so every op time is also scaled
# by CALIBRATION_REF_S over the local time of `calibrate`, a fixed probe
# that calls nothing in cyclecollide: the program's speed moves the op
# times, not the probe.  The probe runs every CALIBRATE_EVERY_S of op time
# and an op takes the median of the two probes before and the two after
# it, because the host's speed changes within a second.  CALIBRATION_REF_S is
# about the probe's time when the host is fast, so the scaled timings read
# as seconds there.
CALIBRATION_REF_S = 0.0019
CALIBRATE_EVERY_S = 0.02

SWEEP_LEN = 8
CLI_MC_PAIRS = 20000
MAX_N = 10**308
# n above the double range are drawn from [2^1024, 2^1030).
OVER_RANGE = (2**1024, 2**1030)

def _strata(rng: random.Random, count: int) -> list[float]:
    """`count` uniforms on [0, 1), one per equal slice, in random order."""
    us = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(us)
    return us


def _log_int(lo: float, hi: float, u: float) -> int:
    """Integer at fraction u of the log2 range [log2 lo, log2 hi)."""
    a, b = math.log2(lo), math.log2(hi)
    x = a + u * (b - a)
    k = math.floor(x)
    mant = int(2.0 ** (x - k) * 2**52)
    return max(int(lo), (mant << k) >> 52)


def _log_ints(rng, lo, hi, count):
    return [_log_int(lo, hi, u) for u in _strata(rng, count)]


def _log_grid(lo, hi, count):
    """Midpoints of `count` equal slices of the log range."""
    return [_log_int(lo, hi, (i + 0.5) / count) for i in range(count)]


def _free(rng: random.Random, lo: int, hi: int, used: set) -> int:
    """A random n >= lo that no timed op uses, for warm-up; prefers n <= hi."""
    while True:
        for _ in range(100):
            n = rng.randint(lo, hi)
            if n not in used:
                return n
        hi *= 2


def mc_pairs(n: int) -> int:
    return min(2**17, max(256, 2**22 // n))


def generate(workload: str, seed: int, seconds: float) -> dict:
    """One round's {"ops": [...], "warmup": [...]} for a run of `seconds`."""
    rng = random.Random(f"{workload}:{seed}")
    warm = random.Random(f"{workload}:{seed}:warmup")
    seconds /= ROUNDS[workload]
    return {
        "cli": _gen_cli,
        "quadrature": _gen_quadrature,
        "exact": _gen_exact,
        "montecarlo": _gen_montecarlo,
    }[workload](rng, warm, seconds)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy and
    big-integer work (the quadrature ops slow down more than the first two
    alone when the host is busy, the exact ops about as much)."""
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    a = np.arange(15.0)
    for _ in range(250):
        a = np.sqrt(a * a + 1.0)
    x = 1
    for i in range(1, 1500):
        x *= i
    return time.perf_counter() - start


def probe_now() -> float:
    """The host-speed probe now: the median of three `calibrate` runs."""
    return statistics.median(calibrate() for _ in range(3))


def local_probe(probes: list, order: list[int], count: int) -> list[float | None]:
    """Per op index, the median of the two probes before and the two after
    it; None for the ops a round did not run.

    `probes` holds (ops done so far, probe seconds) in run order, starting
    at 0 ops and ending after the last op; `order` is the run order."""
    out = [None] * count
    j = 0
    for k, i in enumerate(order):
        while probes[j + 1][0] <= k:
            j += 1
        out[i] = statistics.median(p for _, p in probes[max(0, j - 1):j + 3])
    return out


def cheap(workload: str, op: list) -> bool:
    """Whether an op runs in the CHEAP_ROUNDS: exact ops up to n = 500."""
    return workload == "exact" and op[1] + (op[2] if op[0] == "sweep" else 0) <= 500


def round_order(workload: str, seed: int, rnd: int, count: int) -> list[int]:
    """The order in which round `rnd` runs the ops.  Each round has its own,
    so an op's rounds are not all tied to what ran just before it (a
    sub-millisecond op after a large one pays for the cache it lost)."""
    order = list(range(count))
    random.Random(f"{workload}:{seed}:round{rnd}").shuffle(order)
    return order


def _gen_quadrature(rng, warm, seconds):
    total = max(60, round(QUADRATURE_RATE * seconds))
    ops = []
    # 75% auto kind, 15% I_n, 10% explicit GAMMA_RATIO; a quarter of each
    # at verify's tolerance; 1% of each group above the double range.
    for kind, share in (("auto", 0.75), ("I_n", 0.15), ("gamma", 0.10)):
        for tight, sub in ((True, 0.25), (False, 0.75)):
            count = max(4, round(total * share * sub))
            over = round(0.01 * count)
            lo = 2 if kind == "I_n" else 1
            ns = _log_ints(rng, lo, MAX_N, count - over)
            ns += _log_ints(rng, *OVER_RANGE, over)
            ops += [[kind, n, tight] for n in ns]
    rng.shuffle(ops)
    used = {op[1] for op in ops}
    warmup = [
        [kind, _free(warm, 20, 10**6, used), tight]
        for kind in ("auto", "I_n", "gamma")
        for tight in (True, False)
    ]
    warmup.append(["auto", _free(warm, 10**9, 10**12, used), False])
    return {"ops": ops, "warmup": warmup}


def _gen_exact(rng, warm, seconds):
    iso = max(3, round(EXACT_ISOLATED_RATE * seconds))
    ops = []
    # Fixed grids of n, as for montecarlo: op cost grows as n^2.9, so a
    # random n per slice would move the tail op's cost more than the
    # machine's noise does.  The seed sets the order.
    for i, fn in enumerate(("p_exact", "stirling_row", "cycle_distribution")):
        count = iso // 3 + (1 if i < iso % 3 else 0)
        ops += [[fn, n] for n in _log_grid(1, 2000, count)]
    sweeps = max(MIN_OPS - iso, round(EXACT_SWEEP_RATE * seconds))
    ops += [["sweep", a, SWEEP_LEN] for a in _log_grid(2, 1000, sweeps)]
    rng.shuffle(ops)
    used = set()
    for op in ops:
        used.update(range(op[1], op[1] + op[2]) if op[0] == "sweep" else [op[1]])
    warmup = [[fn, _free(warm, 20, 120, used)]
              for fn in ("p_exact", "stirling_row", "cycle_distribution")]
    a = _free(warm, 20, 400, used | {n - 1 for n in used})
    warmup.append(["sweep", a, 2])
    return {"ops": ops, "warmup": warmup}


def _gen_montecarlo(rng, warm, seconds):
    # A fixed grid of n: with ~11 ops, a random n per slice would move the
    # median op's cost (steep in n on both sides of the crossover) by more
    # than the machine's noise does.  The seed sets the order and every
    # op's random stream.
    ns = _log_grid(2, 200000, max(MIN_OPS, round(MONTECARLO_RATE * seconds)))
    rng.shuffle(ns)
    ops = [["mc", n, mc_pairs(n), rng.randrange(2**63)] for n in ns]
    used = set(ns)
    warmup = [
        ["mc", n, mc_pairs(n), warm.randrange(2**63)]
        for n in (_free(warm, 3, 30, used), _free(warm, 10001, 16000, used))
    ]
    return {"ops": ops, "warmup": warmup}


TABLE_QUAD = ["table", "--n", "100:100000000:10", "--methods", "quadrature,asymptotic"]


def _table_mc(seed: int) -> list[str]:
    return ["table", "--n", "2,10,100", "--methods", "exact,quadrature,montecarlo",
            "--format", "json", "--out", "table.json", "--seed", str(seed)]


def _light_cli(rng: random.Random, kind: str) -> list[str]:
    if kind == "row":
        return ["exact", "--n", str(rng.randint(3, 40)), "--row"]
    if kind == "exact":
        return ["collide", "--n", str(_log_int(10, 300, rng.random())), "--method", "exact"]
    if kind == "montecarlo":
        return ["collide", "--n", str(_log_int(2, 100, rng.random())), "--method",
                "montecarlo", "--pairs", str(CLI_MC_PAIRS), "--seed",
                str(rng.randrange(2**32))]
    return ["collide", "--n", str(_log_int(10, 10**12, rng.random())), "--method", kind]


_LIGHT = ("row", "exact", "quadrature", "eq2", "asymptotic", "montecarlo")


def _gen_cli(rng, warm, seconds):
    # Every README command once, plus light ones up to MIN_OPS; cold start
    # (~1 s) bounds how many fit.
    argvs = [_light_cli(rng, k) for k in _LIGHT]
    argvs += [TABLE_QUAD, _table_mc(rng.randrange(2**32)), ["verify"]]
    extra = max(MIN_OPS - len(argvs), round(seconds - 17))
    kinds = list(_LIGHT)
    rng.shuffle(kinds)
    argvs += [_light_cli(rng, kinds[i % len(kinds)]) for i in range(extra)]
    rng.shuffle(argvs)
    # Each op is a cold process, so there is nothing to warm.
    return {"ops": argvs, "warmup": []}


# ----------------------------------------------------------------- execution

def api() -> dict:
    """The package entry points the in-process workloads call."""
    return {
        "p_quadrature_result": analytic.p_quadrature_result,
        "I_n": analytic.I_n,
        "p_exact": exact.p_exact,
        "stirling_row": exact.stirling_row,
        "cycle_distribution": exact.cycle_distribution,
        "run_report": report.run_report,
        "estimate_collision": montecarlo.estimate_collision,
    }


def execute(op: list, fns: dict):
    """Run one in-process op; return the package's result."""
    name = op[0]
    if name in ("auto", "gamma", "I_n"):
        n, config = op[1], TIGHT if op[2] else DEFAULT_CONFIG
        if name == "I_n":
            return fns["I_n"](n, config)
        kind = IntegrandKind.GAMMA_RATIO if name == "gamma" else None
        return fns["p_quadrature_result"](n, kind, config)
    if name == "sweep":
        a, k = op[1], op[2]
        return fns["run_report"](report.ReportConfig(tuple(range(a, a + k)), ("exact",)))
    if name == "mc":
        return fns["estimate_collision"](op[1], op[2], seed=op[3])
    return fns[name](op[1])


def digest(op: list, result) -> dict:
    """JSON-able summary of a result, taken after the op's timing ends."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    name = op[0]
    if name in ("auto", "gamma", "I_n"):
        return {"value": result.value, "est": result.abs_error_estimate,
                "evals": result.evaluations}
    if name == "p_exact":
        return {"num": format(result.numerator, "x"), "den": format(result.denominator, "x")}
    if name == "stirling_row":
        small = list(result.coeffs) if result.n <= 8 else None
        return {"sum": format(result.row_sum(), "x"), "row": small}
    if name == "cycle_distribution":
        total = sum(result.probs)
        small = [str(p) for p in result.probs] if result.n <= 8 else None
        return {"sum": str(total), "probs": small}
    if name == "sweep":
        return {"p": [row.p_exact for row in result], "errors": [list(r.errors) for r in result]}
    return {"collisions": result.collisions, "samples": result.samples,
            "p_hat": result.p_hat, "std_err": result.std_err}


def known_defect(workload: str, op: list) -> str | None:
    """The KNOWN_DEFECTS entry an input falls under, if any."""
    if workload != "quadrature":
        return None
    kind, n, tight = op
    if n > sys.float_info.max:
        return "overflow-above-double"
    if kind == "I_n":
        return None
    resolved = "gamma-ratio" if kind == "gamma" or n > EXACT_PRODUCT_AUTO_MAX else "exact-product"
    if n in spec.ESTIMATE_NOT_A_BOUND[(resolved, tight)]:
        return "estimate-not-a-bound"
    return None


# ------------------------------------------------------------------- oracles

def brute_histogram(n: int) -> list[int]:
    """Cycle-count histogram over all n! permutations."""
    hist = [0] * n
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        hist[cycles - 1] += 1
    return hist


class Oracle:
    """Reference values, computed after timing and cached per input.

    `check` returns None when an output is right, else the reason.
    `wrong` names one op whose reference value is deliberately corrupted,
    so the self-test can see that a miss is counted.
    """

    def __init__(self, workload: str, wrong: int | None = None):
        self.workload = workload
        self.wrong = wrong
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def p_exact(self, n: int) -> Fraction:
        return self._memo(("pe", n), lambda: exact.p_exact(n).fraction)

    def quad(self, n: int, kind=None, config=DEFAULT_CONFIG):
        return self._memo(("q", n, kind, config),
                          lambda: analytic.p_quadrature_result(n, kind, config))

    def hist(self, n: int) -> list[int]:
        return self._memo(("h", n), lambda: brute_histogram(n))

    def check(self, index: int, op: list, out: dict) -> str | None:
        if "error" in out:
            return out["error"]
        reason = getattr(self, "_check_" + self.workload)(op, out)
        if reason is None and index == self.wrong:
            return "injected wrong oracle value"
        return reason

    def _check_quadrature(self, op, out):
        kind, n, tight = op
        value, est = out["value"], out["est"]
        if kind == "I_n":
            gap, bound = abs(value / analytic.laplace_I(n) - 1.0), 1.5 / math.log(n)
            return None if gap <= bound else f"|I/laplace - 1| = {gap:.3g} > {bound:.3g}"
        if n <= EXACT_PRODUCT_AUTO_MAX:
            pe = float(self.p_exact(n))
            if abs(value - pe) > est:
                return f"|p - p_exact| = {abs(value - pe):.3g} > estimate {est:.3g}"
            other = IntegrandKind.EXACT_PRODUCT if kind == "gamma" else IntegrandKind.GAMMA_RATIO
            alt = self.quad(n, other, TIGHT if tight else DEFAULT_CONFIG).value
            if abs(value - alt) > 1e-9 * pe:
                return f"integrands disagree: {value!r} vs {alt!r}"
            return None
        # README criterion 6: r(n) = p / p_asymptotic falls toward 1 and is
        # within 0.1 of it from n = 1e8 on.
        r = value / analytic.p_asymptotic(n)
        r_max = self._memo("r512", lambda: float(self.p_exact(EXACT_PRODUCT_AUTO_MAX))
                           / analytic.p_asymptotic(EXACT_PRODUCT_AUTO_MAX))
        if not 1.0 < r < r_max:
            return f"r(n) = {r!r} outside (1, r(512) = {r_max!r})"
        if n >= 10**8 and r - 1.0 > 0.1:
            return f"r(n) - 1 = {r - 1.0:.3g} > 0.1"
        return None

    def _near_quadrature(self, n, p):
        q = self.quad(n)
        gap = abs(p - q.value)
        tol = q.abs_error_estimate + 4 * sys.float_info.epsilon * abs(p)
        return None if gap <= tol else f"n={n}: |p - p_quadrature| = {gap:.3g} > {tol:.3g}"

    def _check_exact(self, op, out):
        name, n = op[0], op[1]
        if name == "sweep":
            if len(out["p"]) != op[2] or any(out["errors"]):
                return f"sweep rows {out}"
            for m, p in zip(range(n, n + op[2]), out["p"]):
                reason = self._near_quadrature(m, float(p))
                if reason:
                    return reason
            return None
        if name == "p_exact":
            p = Fraction(int(out["num"], 16), int(out["den"], 16))
            if n <= 8 and p != Fraction(sum(h * h for h in self.hist(n)),
                                        math.factorial(n) ** 2):
                return f"p_exact({n}) = {p} disagrees with enumeration"
            return self._near_quadrature(n, float(p))
        if name == "stirling_row":
            if int(out["sum"], 16) != math.factorial(n):
                return f"row {n} does not sum to n!"
            if n <= 8 and out["row"] != self.hist(n):
                return f"row {n} = {out['row']} disagrees with enumeration"
            return None
        if Fraction(out["sum"]) != 1:
            return f"cycle_distribution({n}) sums to {out['sum']}"
        if n <= 8 and [Fraction(p) for p in out["probs"]] != [
            Fraction(h, math.factorial(n)) for h in self.hist(n)
        ]:
            return f"cycle_distribution({n}) disagrees with enumeration"
        return None

    def _check_montecarlo(self, op, out):
        _, n, pairs, _seed = op
        if out["samples"] != pairs or out["p_hat"] != out["collisions"] / pairs:
            return f"estimate {out} inconsistent with {pairs} pairs"
        p = self.quad(n).value
        gap = abs(out["p_hat"] - p)
        if gap > 5.0 * out["std_err"]:
            return f"|p_hat - p| = {gap:.3g} > 5 std_err = {5 * out['std_err']:.3g}"
        return None

    def _check_cli(self, argv, out):
        if out["rc"] != 0:
            return f"exit code {out['rc']}: {out['err'][-300:]}"
        text = out["out"]
        if argv[0] == "verify":
            return None if text.endswith("all criteria passed\n") else "verify did not pass"
        if argv[0] == "table":
            want, got = self._memo(tuple(argv), lambda: _table_text(argv)), text
            if "--out" in argv:
                got = out["file"]
                if text:
                    return "table --out also wrote to stdout"
            return None if got == want else "table bytes differ from render_csv/render_json"
        lines = dict(line.split(" = ", 1) for line in text.splitlines()
                     if " = " in line and not line.startswith("n = "))
        n = int(argv[2])
        if argv[0] == "exact":
            pe = exact.p_exact(n)
            got_frac, got_float = lines["p(n)"].split(" = ")
            row = " ".join(str(c) for c in exact.stirling_row(n).coeffs)
            ok = (got_frac == f"{pe.numerator}/{pe.denominator}"
                  and float(got_float) == pe.approx and f"row: {row}\n" in text)
            return None if ok else f"exact --n {n} output differs"
        method = argv[4]
        want = {
            "exact": lambda: exact.p_exact(n).approx,
            "quadrature": lambda: analytic.p_quadrature_result(n).value,
            "eq2": lambda: analytic.I_n(n).value / (2.0 * math.pi),
            "asymptotic": lambda: analytic.p_asymptotic(n),
            "montecarlo": lambda: montecarlo.estimate_collision(
                n, int(argv[6]), seed=int(argv[8])).p_hat,
        }[method]()
        got = float(lines["p"].split()[0])
        return None if got == want else f"collide {method} n={n}: p = {got!r}, in-process {want!r}"


def _table_text(argv: list[str]) -> str:
    opts = dict(zip(argv[1::2], argv[2::2]))
    config = report.ReportConfig(
        n_values=cli.parse_n_values(opts["--n"]),
        methods=tuple(opts["--methods"].split(",")),
        seed=int(opts.get("--seed", 0)),
        output_format=opts.get("--format", "csv"),
        output_path=opts.get("--out"),
    )
    rows = report.run_report(config)
    if config.output_format == "csv":
        return report.render_csv(rows)
    return report.render_json(rows, config)
