"""Self-test of the benchmark at toy size (about four minutes).

    python3 -m pytest bench/test_selftest.py -q

Runs every workload once untraced and once traced, and checks that every
metric in spec.py is emitted with its unit, that a deliberately wrong
oracle value is counted as a failed op, and that the command fails
without a result when the sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import spec  # noqa: E402
import workloads  # noqa: E402

TOY_SECONDS = 0.5
WORKLOADS = tuple(spec.WORKLOADS)


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS for t in (False, True)],
                ids=lambda p: f"{p[0]}-trace{int(p[1])}")
def result(request):
    workload, trace = request.param
    return workload, trace, run.benchmark(workload, 1, TOY_SECONDS, trace)


def test_every_metric_is_emitted_with_its_unit(result):
    workload, trace, res = result
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert res["correct"], res["unexpected"]
    assert res["attempted"] >= 1


def test_failures_are_the_known_defect_inputs(result):
    workload, trace, res = result
    ops = workloads.generate(workload, 1, TOY_SECONDS)["ops"]
    assert res["failed"] == sum(workloads.known_defect(workload, op) is not None for op in ops)


def test_wrong_oracle_value_is_counted():
    clean = run.benchmark("exact", 1, TOY_SECONDS, False)
    wrong = run.benchmark("exact", 1, TOY_SECONDS, False, wrong_oracle=0)
    assert wrong["failed"] == clean["failed"] + 1
    assert not wrong["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_lists_repeat_and_warmup_is_disjoint(workload):
    first = workloads.generate(workload, 7, 20)
    assert first == workloads.generate(workload, 7, 20)
    assert first["ops"] != workloads.generate(workload, 8, 20)["ops"]
    if workload == "cli":
        sizes = lambda ops: {op[2] for op in ops if op[0] in ("exact", "collide")}
    else:
        sizes = lambda ops: {op[1] for op in ops}
    assert not sizes(first["warmup"]) & sizes(first["ops"])


def test_last_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "quadrature", "--seed", "3",
         "--seconds", str(TOY_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_sources():
    # A directory holding only BENCHMARK.json and bench/.
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_spec():
    assert (BENCH.parent / "BENCHMARK.json").read_text() == spec.render()
    for w in spec.benchmark_json()["workloads"]:
        assert len(w["why"]) <= 200
