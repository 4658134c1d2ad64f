"""One fresh interpreter that sets up and times an op list (see run.py).

    python3 bench/worker.py JOB.json
        Import cyclecollide, then run each of the job's rounds in a child
        forked from this interpreter: generate the inputs from the job's
        seed, warm up, and time one round of the op list (traced if the
        job says so).  Forked children start from the import alone, so
        every round sees a package that has run nothing, at the cost of
        one fork instead of one interpreter start.  Writes each round's
        timings, output digests and peak RSS to the job's "out" path.
    python3 bench/worker.py --cli SPANS.json ARG...
        One traced cold CLI call: cyclecollide's `cli.main(ARG...)` with
        spans, written to SPANS.json when it returns.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def run_round(job: dict, rnd: int, trace: bool) -> dict:
    import workloads
    from tracing import Tracer, install

    name = job["workload"]
    plan = workloads.generate(name, job["seed"], job["seconds"])
    fns = workloads.api()
    tracer = None
    if trace:
        tracer = Tracer()
        wrap = install(tracer)
        fns = {k: wrap(v) for k, v in fns.items()}
    for op in plan["warmup"]:
        workloads.execute(op, fns)
    if tracer is not None:
        tracer.spans.clear()
    out = {"t_ready": time.monotonic()}
    ops = plan["ops"]
    latencies, digests = [None] * len(ops), [None] * len(ops)
    order = workloads.round_order(name, job["seed"], rnd, len(ops))
    if rnd >= workloads.ROUNDS[name]:
        order = [i for i in order if workloads.cheap(name, ops[i])]
    probes, since = [(0, workloads.calibrate())], 0.0
    for k, i in enumerate(order):
        op = ops[i]
        if tracer is not None:
            tracer.op = i
            idx = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            result = workloads.execute(op, fns)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(idx)
            span = tracer.spans[idx]
            elapsed = span[2] - span[1]
        latencies[i] = elapsed
        digests[i] = workloads.digest(op, result)
        del result
        since += elapsed
        if since >= workloads.CALIBRATE_EVERY_S or k == len(order) - 1:
            probes.append((k + 1, workloads.calibrate()))
            since = 0.0
    out["probe_s"] = workloads.local_probe(probes, order, len(ops))
    out["latencies"] = latencies
    out["digests"] = digests
    if tracer is not None:
        tracer.op = -1
        tracer.dump(f"{job['spans']}.{rnd}")
    return out


def forked_round(job: dict, rnd: int, trace: bool) -> dict:
    """run_round in a forked child; adds its set-up time and peak RSS."""
    out_path = f"{job['out']}.{rnd}"
    t_fork = time.monotonic()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(out_path, "w") as handle:
                json.dump(run_round(job, rnd, trace), handle)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"round {rnd} exited {os.waitstatus_to_exitcode(status)}")
    with open(out_path) as handle:
        result = json.load(handle)
    result["prep_s"] = result.pop("t_ready") - t_fork
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def traced_cli(spans_path: str, args: list[str]) -> int:
    from tracing import Tracer, install, spanned

    tracer = Tracer()
    tracer.op = 0
    root = tracer.open("bench.op")
    imp = tracer.open("import.cyclecollide")
    from cyclecollide import cli

    tracer.close(imp)
    install(tracer)
    try:
        rc = spanned(tracer, "cli.main", cli.main)(args)
    finally:
        tracer.close(root)
        tracer.dump(spans_path)
    return rc


def main(argv: list[str]) -> int:
    if argv[0] == "--cli":
        return traced_cli(argv[1], argv[2:])
    import workloads  # cyclecollide and numpy: what every round's set-up pays

    t_imported = time.monotonic()
    setup_probe = workloads.probe_now()
    with open(argv[0]) as handle:
        job = json.load(handle)
    rounds = [forked_round(job, rnd, trace) for rnd, trace in job["rounds"]]
    with open(job["out"], "w") as handle:
        json.dump({"t_imported": t_imported, "setup_probe": setup_probe, "rounds": rounds},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
