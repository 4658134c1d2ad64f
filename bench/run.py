"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {cli,quadrature,exact,montecarlo} \\
        --seed N --seconds S --trace {0,1}

The op list comes from --seed and --seconds alone and runs in rounds.  An
in-process round runs in a child forked from a worker interpreter that has
imported cyclecollide (worker.py), so peak RSS is the round's own; a cli
round runs each op as a cold `python -m cyclecollide` process.  Outputs
are checked against oracles in this process after timing
(workloads.Oracle).  --trace 0 prints the end-to-end metrics; --trace 1
runs one untraced and one traced round and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.

Exits 2 without a result when the cyclecollide sources are not beside
this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


@dataclass
class Child:
    seconds: float
    rc: int
    out: str
    err: str
    maxrss_kb: int


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; its wall time and its own peak RSS.

    The child leads its own process group, so a timeout also kills the
    rounds a worker has forked."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=_env(),
                                start_new_session=True)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:  # forked rounds end after the worker
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            proc.returncode = -9
            raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S} s: {argv}") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, out_path.read_text(), err_path.read_text(),
                 usage.ru_maxrss)


# ---------------------------------------------------------------- the passes

def worker_pass(workload: str, seed: int, seconds: float, rounds: list[tuple[int, bool]],
                tmp: Path) -> list[dict]:
    """One fresh worker interpreter that runs the given (round, traced)
    rounds, each in a child forked after the import; each round's result
    plus its `setup_s`, the import and the round's own set-up, scaled by
    the host-speed probes run before the spawn and after the import."""
    import workloads

    job = {"workload": workload, "seed": seed, "seconds": seconds, "rounds": rounds,
           "out": str(tmp / "result.json"), "spans": str(tmp / "spans.json")}
    job_path = tmp / "job.json"
    job_path.write_text(json.dumps(job))
    probe_before = workloads.probe_now()
    t_spawn = time.monotonic()
    child = spawn([sys.executable, str(WORKER), str(job_path)], tmp)
    if child.rc != 0:
        raise RuntimeError(f"worker exited {child.rc}:\n{child.err[-3000:]}")
    result = json.loads((tmp / "result.json").read_text())
    import_s = result["t_imported"] - t_spawn
    scale = workloads.CALIBRATION_REF_S / statistics.mean([probe_before, result["setup_probe"]])
    for (rnd, trace), res in zip(rounds, result["rounds"]):
        res["setup_s"] = (import_s + res.pop("prep_s")) * scale
        if trace:
            res["trace"] = json.loads((tmp / f"spans.json.{rnd}").read_text())
    return result["rounds"]


def cold_import(tmp: Path) -> float:
    """Seconds for `python -c "import cyclecollide"`, scaled by the
    host-speed probes run just before and just after it."""
    import workloads

    before = workloads.probe_now()
    seconds = spawn([sys.executable, "-c", "import cyclecollide"], tmp).seconds
    probe = statistics.mean([before, workloads.probe_now()])
    return seconds * workloads.CALIBRATION_REF_S / probe


def cli_pass(ops: list, order: list[int], tmp: Path, traced: bool) -> dict:
    """One round of cold processes, in `order`; a traced round runs each
    under worker.py --cli.  The host-speed probe runs between them."""
    import workloads

    latencies, digests = [None] * len(ops), [None] * len(ops)
    rss, spans, criteria = [], [], {}
    probes = [(0, workloads.probe_now())]
    for k, i in enumerate(order):
        argv = ops[i]
        spans_path = tmp / "spans.json"
        if traced:
            cmd = [sys.executable, str(WORKER), "--cli", str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "cyclecollide", *argv]
        child = spawn(cmd, tmp)
        digest = {"rc": child.rc, "out": child.out, "err": child.err}
        if "--out" in argv:
            written = tmp / argv[argv.index("--out") + 1]
            digest["file"] = written.read_text() if written.exists() else None
            written.unlink(missing_ok=True)
        latencies[i] = child.seconds
        digests[i] = digest
        rss.append(child.maxrss_kb)
        probes.append((k + 1, workloads.probe_now()))
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text())
            base = len(spans)
            for s in trace["spans"]:
                s[3] = s[3] + base if s[3] >= 0 else -1
                s[4] = i
            spans += trace["spans"]
            criteria.update(trace["criteria"])
            spans_path.unlink()
    return {"latencies": latencies, "digests": digests, "maxrss_kb": max(rss),
            "probe_s": workloads.local_probe(probes, order, len(ops)),
            "trace": {"spans": spans, "criteria": criteria}}


# -------------------------------------------------------------------- probes

def probe_imports(tmp: Path) -> dict:
    """`python -X importtime -c "import cyclecollide"`, median of a few."""
    samples: dict[str, list[float]] = {"cyclecollide": [], "scipy": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import cyclecollide"], tmp)
        own = {"cyclecollide": 0.0, "scipy": 0.0, "numpy": 0.0}
        for line in child.err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            name = name.strip()
            top = name.split(".")[0]
            if name == "cyclecollide":
                own["cyclecollide"] = int(cumulative) / 1e3
            elif top in ("scipy", "numpy"):
                own[top] += int(self_us) / 1e3
        for key, value in own.items():
            samples[key].append(value)
    return {f"import.{k}_ms": statistics.median(v) for k, v in samples.items()}


def probe_log_gamma() -> dict:
    """log_gamma points per second at a quadrature panel's batch size and
    at a large batch, which separates per-call overhead from per-point cost."""
    import numpy as np
    from cyclecollide.gammafn import log_gamma

    out = {}
    for batch, calls in ((15, 4000), (100000, 4)):
        theta = np.linspace(0.01, np.pi - 0.01, batch)
        z = np.exp(1j * theta) + 2.0
        rates = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                log_gamma(z)
            rates.append(batch * calls / (time.perf_counter() - start))
        out[f"gammafn.log_gamma.points_per_s.b{batch}"] = statistics.median(rates)
    return out


def probe_workers2() -> dict:
    """estimate_collision time with workers=1 over workers=2, 4 blocks."""
    from cyclecollide import montecarlo

    times = {1: [], 2: []}
    for _ in range(3):
        for workers in (1, 2):
            start = time.perf_counter()
            montecarlo.estimate_collision(32, 4 * montecarlo.BLOCK_PAIRS, seed=1,
                                          workers=workers)
            times[workers].append(time.perf_counter() - start)
    return {"montecarlo.workers2_speedup":
            statistics.median(times[1]) / statistics.median(times[2])}


# ------------------------------------------------------------------- results

def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, and its value
    (op lists hold at least workloads.MIN_OPS = 11 ops)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_latencies(workload: str, rounds: list[dict]) -> list[float]:
    """Per op, its time at the host's fast speed: each round's time scaled
    by the probes run beside it (workloads.calibrate), then the median over
    the rounds that ran the op, or the fastest for workloads.FASTEST."""
    import workloads

    pick = min if workload in workloads.FASTEST else statistics.median
    return [pick(t * workloads.CALIBRATION_REF_S / probe for t, probe in runs if t is not None)
            for runs in zip(*(zip(r["latencies"], r["probe_s"]) for r in rounds))]


def check(workload: str, ops: list, rounds: list[dict], wrong: int | None):
    """(failed op indices, unexpected failures as (index, reason)).

    Each round's output must pass the oracle; in-process results must also
    be bit-identical across rounds, which re-runs every op in a fresh
    process (cli output carries timings, so only its oracle applies).
    """
    import workloads

    oracle = workloads.Oracle(workload, wrong)
    failed, unexpected = [], []
    for i, op in enumerate(ops):
        first = rounds[0]["digests"][i]
        reason = None
        for rnd in rounds:
            digest = rnd["digests"][i]
            if digest is None:  # a round of cheap ops only
                continue
            reason = reason or oracle.check(i, op, digest)
            if workload != "cli" and digest != first:
                reason = reason or "result differs between rounds"
        if reason:
            failed.append(i)
            if workloads.known_defect(workload, op) is None:
                unexpected.append((i, reason))
    return failed, unexpected


def metadata_line() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "src_lines": src_lines}


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              wrong_oracle: int | None = None) -> dict:
    """Run one workload; returns the result object and prints nothing.

    The op list runs in rounds, each in fresh processes: ROUNDS[workload]
    untraced rounds, or with `trace` one untraced and one traced round.
    An op's latency is the median over its rounds (the fastest on
    montecarlo) after scaling each by the host-speed probe run beside it;
    set-up time is the median over set-ups, each scaled by the probes run
    just before and after it, and peak RSS the largest.
    """
    import spec
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        plan = workloads.generate(workload, seed, seconds)
        ops = plan["ops"]
        modes = [False, True] if trace else [False] * (
            workloads.ROUNDS[workload] + workloads.CHEAP_ROUNDS[workload])
        if workload == "cli":
            setups = [cold_import(tmp) for _ in range(0 if trace else SETUP_SAMPLES)]
            rounds = [cli_pass(ops, workloads.round_order(workload, seed, r, len(ops)),
                               tmp, traced=t)
                      for r, t in enumerate(modes)]
        else:
            # SETUP_SAMPLES workers share the rounds, so set-up is sampled
            # that many times from a fresh interpreter.
            rounds = [None] * len(modes)
            for first in range(min(SETUP_SAMPLES, len(modes))):
                share = list(range(first, len(modes), SETUP_SAMPLES))
                done = worker_pass(workload, seed, seconds,
                                   [(r, modes[r]) for r in share], tmp)
                for r, res in zip(share, done):
                    rounds[r] = res
            setups = [r["setup_s"] for r in rounds]

        failed, unexpected = check(workload, ops, rounds, wrong_oracle)
        notes = {"ops": len(ops), "rounds": len(rounds)}
        if not trace:
            latencies = op_latencies(workload, rounds)
            raw = [min(t for t in times if t is not None)
                   for times in zip(*(r["latencies"] for r in rounds))]
            notes["unscaled"] = {"wall_s": sum(raw), "latency_p50_ms": statistics.median(raw) * 1e3,
                                 "latency_tail_ms": tail(raw)[0] * 1e3}
            tail_s, pct = tail(latencies)
            notes["latency_tail_percentile"] = round(pct, 3)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": sum(latencies),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        else:
            untraced, traced = rounds
            spans = traced["trace"]["spans"]
            balance = tracing.op_balance(spans)
            if balance > 1e-6:
                raise RuntimeError(f"span self times miss an op's time by {balance} s")
            notes["spans"] = len(spans)
            metrics = {m["name"]: 0.0 for m in spec.PER_LAYER}
            metrics.update(tracing.layer_metrics(spans, traced["trace"]["criteria"]))
            if workload == "cli":
                main_s = {s[4]: s[2] - s[1] for s in spans if s[0] == "cli.main"}
                metrics["cli.in_process_ms"] = statistics.median(main_s.values()) * 1e3
                metrics["cli.cold_overhead_ms"] = statistics.median(
                    untraced["latencies"][i] - t for i, t in main_s.items()) * 1e3
            metrics["trace.overhead_ratio"] = (sum(op_latencies(workload, [traced]))
                                              / sum(op_latencies(workload, [untraced])))
            metrics.update(probe_imports(tmp))
            metrics.update(probe_log_gamma())
            metrics.update(probe_workers2())
            with open(OUT_DIR / f"spans-{workload}.json", "w") as handle:
                json.dump(traced["trace"], handle)
            units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        return {
            "correct": not unexpected,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "notes": notes,
            "unexpected": unexpected,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "quadrature", "exact", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclecollide" / "__init__.py").is_file():
        print(f"error: no cyclecollide sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# meta " + json.dumps(metadata_line()))
    print("# notes " + json.dumps(result.pop("notes")))
    for index, reason in result.pop("unexpected")[:20]:
        print(f"# FAILED op {index}: {reason}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
