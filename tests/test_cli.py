import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclecollide import METHODS, ReportConfig, SamplerKind, cli, run_report
from cyclecollide.cli import build_parser, main, parse_n_values
from cyclecollide.exact import StirlingRow
from core_check import PINS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exact

def test_exact_basic(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "5", "--row")
    assert code == 0
    assert "f(n) = 4402" in out  # 24^2 + 50^2 + 35^2 + 10^2 + 1
    assert "row: 24 50 35 10 1" in out
    assert "2201/7200" in out  # 4402 / (120^2) reduced


def test_exact_json(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "4", "--row", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == 194
    assert doc["row"] == [6, 11, 6, 1]
    assert doc["p_numerator"] == 97
    assert doc["p_denominator"] == 288


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ("exact", "--n", "5"),
            "n = 5\nf(n) = 4402\np(n) = 2201/7200 = 0.30569444444444444\n",
        ),
        (
            ("exact", "--n", "5", "--row"),
            "n = 5\nf(n) = 4402\np(n) = 2201/7200 = 0.30569444444444444\n"
            "row: 24 50 35 10 1\n",
        ),
        (
            ("exact", "--n", "5", "--row", "--json"),
            '{"n": 5, "f": 4402, "p_numerator": 2201, "p_denominator": 7200, '
            '"p_approx": 0.30569444444444444, "row": [24, 50, 35, 10, 1]}\n',
        ),
        (
            ("collide", "--n", "5", "--method", "exact"),
            "p = 0.30569444444444444\nexact = 2201/7200\n",
        ),
    ],
)
def test_exact_route_stdout_at_n5(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [("exact", "--n", "20001", "--row"), ("collide", "--n", "20001", "--method", "exact")],
)
def test_exact_route_ceiling_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        "error: n=20001 above the documented exact-route ceiling 20000; "
        "use the quadrature route\n"
    )


def test_exact_invalid_n(capsys):
    code, _, err = run_cli(capsys, "exact", "--n", "0")
    assert code == 1
    assert "error" in err


def test_exact_squares_the_row_once(capsys, monkeypatch):
    calls = []
    square_sum = StirlingRow.square_sum

    def counted(row):
        calls.append(row.n)
        return square_sum(row)

    monkeypatch.setattr(StirlingRow, "square_sum", counted)
    code, out, _ = run_cli(capsys, "exact", "--n", "50", "--row")
    assert code == 0
    assert calls == [50]
    coeffs = [int(c) for c in out.splitlines()[3].removeprefix("row: ").split()]
    assert f"f(n) = {sum(c * c for c in coeffs)}\n" in out


# --------------------------------------------------------------- collide

@pytest.mark.parametrize(
    "method", ["exact", "quadrature", "eq2", "asymptotic", "montecarlo"]
)
def test_collide_methods(capsys, method):
    code, out, _ = run_cli(
        capsys, "collide", "--n", "10", "--method", method, "--pairs", "2000"
    )
    assert code == 0
    p_line = [l for l in out.splitlines() if l.startswith("p = ")]
    assert len(p_line) == 1
    value = float(p_line[0].removeprefix("p = ").split()[0])
    assert 0.1 < value < 0.3  # p(10) ~ 0.24, asymptotic ~ 0.19


def test_collide_montecarlo_sampler_and_seed(capsys):
    args = ("collide", "--n", "6", "--method", "montecarlo",
            "--pairs", "4000", "--sampler", "bernoulli", "--seed", "11")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "std err" in out1


def test_collide_quadrature_reports_error_estimate(capsys):
    code, out, _ = run_cli(
        capsys, "collide", "--n", "100", "--method", "quadrature", "--tol", "1e-8"
    )
    assert code == 0
    assert "error estimate" in out
    assert "evaluations" in out


@pytest.mark.parametrize("method", ["quadrature", "eq2"])
def test_collide_above_double_range(capsys, method):
    code, out, err = run_cli(
        capsys, "collide", "--n", str(2**1024 + 7), "--method", method
    )
    assert code == 0 and err == ""
    value = float(out.splitlines()[0].removeprefix("p = "))
    assert value == pytest.approx(1.0 / (2.0 * (math.pi * 1024 * math.log(2)) ** 0.5), rel=1e-2)


def test_collide_domain_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "collide", "--n", "1", "--method", "asymptotic")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_collide_non_finite_tol_exits_1(capsys, tol):
    code, out, err = run_cli(
        capsys, "collide", "--n", "5", "--method", "quadrature", "--tol", tol
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("method, want", [("quadrature", 0.5), ("eq2", 0.6767958785141814)])
def test_collide_not_converged_prints_best_estimate(capsys, method, want):
    # rel_tol 1e-16 is below the evaluation-error floor at n = 2.
    code, out, err = run_cli(capsys, "collide", "--n", "2", "--method", method, "--tol", "1e-16")
    assert code == 1
    assert err.startswith("error: quadrature did not converge") and err.count("\n") == 1
    value, note = out.removeprefix("p = ").split(" ", 1)
    assert note == "(not converged)\n"
    assert float(value) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n", [2, 10**6, 10**12, 10**300])
@pytest.mark.parametrize("method", ["quadrature", "eq2"])
def test_tol_below_the_rounding_floor_exits_1_at_every_n(capsys, method, n):
    # Every circle route meets rel_tol |value|, and rel_tol 1e-16 is below
    # the floor 64 eps |value|: however small p(n) is, the run does not
    # converge, and its best estimate is the converged p to 1e-12.
    argv = ("collide", "--n", str(n), "--method", method)
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-16")
    assert code == 1
    assert err.startswith("error: quadrature did not converge") and err.count("\n") == 1
    value, note = out.removeprefix("p = ").split(" ", 1)
    assert note == "(not converged)\n"
    _, converged, _ = run_cli(capsys, *argv)
    want = float(converged.splitlines()[0].removeprefix("p = "))
    assert float(value) == pytest.approx(want, rel=1e-12)


def test_table_below_the_rounding_floor_records_the_error_on_every_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n", f"2,{10**6},{10**12},{10**300}",
        "--methods", "quadrature,eq2", "--tol", "1e-16", "--format", "json",
    )
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert sorted(e.split(":", 1)[0] for e in row["errors"]) == ["eq2", "quadrature"], row["n"]
        assert row["p_quadrature"] is not None and row["p_eq2"] is not None


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr("cyclecollide.verify.run_verify", interrupted)
    code, _, err = run_cli(capsys, "verify")
    assert code == 130
    assert err == "error: interrupted\n"


def test_unhandled_convergence_error_exits_1(capsys, monkeypatch):
    from cyclecollide.quadrature import QuadratureConvergenceError, QuadratureResult

    def not_converged(config):
        raise QuadratureConvergenceError(QuadratureResult(0.5, 1e-3, 17), 1e-9)

    monkeypatch.setattr("cyclecollide.report.run_report", not_converged)
    code, out, err = run_cli(capsys, "table", "--n", "5", "--methods", "quadrature")
    assert (code, out) == (1, "")
    assert err.startswith("error: quadrature did not converge") and err.count("\n") == 1


def test_collide_montecarlo_above_sampler_limit_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "collide", "--n", str(2**53 + 1), "--method", "montecarlo"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "BERNOULLI_MAX_N" in err


def test_collide_permutation_sampler_above_its_limit_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "collide", "--n", str(2**53 + 1), "--method", "montecarlo",
        "--sampler", "permutation",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "PERMUTATION_MAX_N" in err


# ----------------------------------------------------------------- table

def test_table_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n", "3,5", "--methods", "exact,asymptotic",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,p_exact,")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "0.38888888888888888889"


def test_table_geometric_spec_and_file_output(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, out, _ = run_cli(
        capsys, "table", "--n", "100:10000:10",
        "--methods", "quadrature,asymptotic", "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert [r["n"] for r in doc["rows"]] == [100, 1000, 10000]
    assert doc["config"]["methods"] == ["quadrature", "asymptotic"]


def test_table_deterministic_bytes(capsys):
    args = ("table", "--n", "2,10", "--methods",
            "exact,quadrature,eq2,asymptotic,montecarlo",
            "--pairs", "3000", "--seed", "5")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "" != out1


# The quadrature and eq2 columns come from `math` (libm), the montecarlo
# column from numpy's generators.
_TABLE_SHA256 = {
    "csv": "4b33d9da10169b7e94852222ce8c402cbb3b273da2cc60215ebb02e07e249d9c",
    "json": "6dddd8aea31734d1c3852cac3b8f42d0bee9ef0379fbcfe34bf64c1ca7b19cc8",
}


@pytest.mark.parametrize("fmt", _TABLE_SHA256)
def test_table_bytes_are_pinned(capsys, fmt):
    # Every column, and both per-row errors: the exact-route ceiling
    # (n = 20001) and the sampler limit (n = 10^21).
    code, out, _ = run_cli(
        capsys, "table", "--n", "2,3,10,100,1024,20001,1000000000000000000000",
        "--methods", "exact,quadrature,eq2,asymptotic,montecarlo",
        "--pairs", "3000", "--seed", "9", "--format", fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_SHA256[fmt]


def test_table_validation_error_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "table", "--n", "1,5", "--methods", "asymptotic"
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("target", ["missing-dir/x.csv", "."])
def test_table_unwritable_out_exits_1(tmp_path, capsys, target):
    # A missing directory (FileNotFoundError) or a directory as the file
    # (IsADirectoryError): one error line, no traceback.
    code, out, err = run_cli(
        capsys, "table", "--n", "3", "--methods", "exact", "--out", str(tmp_path / target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["abc", "3,", "2:5:1"])
def test_table_malformed_n_spec_is_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc_info:
        main(["table", "--n", spec, "--methods", "exact"])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and "bad n spec" in captured.err


# The CSV column that holds each method's p.
_P_COLUMN = {"quadrature": "p_quadrature", "eq2": "p_eq2", "asymptotic": "p_asymptotic",
             "montecarlo": "mc_p_hat"}


def _table_cells(capsys, *argv):
    code, out, _ = run_cli(capsys, "table", *argv)
    assert code == 0
    header, row = out.splitlines()
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("n", [2, 10, 1000])
@pytest.mark.parametrize("method", sorted(_P_COLUMN))
def test_collide_and_table_give_the_same_bits(capsys, method, n):
    options = ("--pairs", "2000", "--seed", "7")
    code, out, _ = run_cli(capsys, "collide", "--n", str(n), "--method", method, *options)
    cells = _table_cells(capsys, "--n", str(n), "--methods", method, *options)
    assert code == 0
    assert out.splitlines()[0] == f"p = {cells[_P_COLUMN[method]]}"


def test_collide_and_table_keep_the_same_best_estimate(capsys):
    # rel_tol 1e-16 is below the evaluation-error floor at n = 2.
    cells = _table_cells(capsys, "--n", "2", "--methods", "quadrature,eq2", "--tol", "1e-16")
    for method in ("quadrature", "eq2"):
        code, out, _ = run_cli(capsys, "collide", "--n", "2", "--method", method, "--tol", "1e-16")
        assert (code, out) == (1, f"p = {cells[_P_COLUMN[method]]} (not converged)\n")


def test_a_route_error_the_report_does_not_record_propagates(capsys, monkeypatch):
    # A report records the exact ceiling, the sampler limit and
    # non-convergence; any other error from a route is raised.
    def broken(n, kind, config):
        raise ValueError("broken route")

    monkeypatch.setattr("cyclecollide.analytic.p_quadrature_result", broken)
    with pytest.raises(ValueError, match="broken route"):
        run_report(ReportConfig((5,), ("quadrature",)))
    code, out, err = run_cli(capsys, "table", "--n", "5", "--methods", "quadrature")
    assert (code, out, err) == (1, "", "error: broken route\n")


# ------------------------------------------------------------ usage/misc

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        build_parser().parse_args(["collide", "--n", "5", "--method", "bogus"])
    assert exc_info.value.code == 2


def test_missing_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        build_parser().parse_args([])
    assert exc_info.value.code == 2


def test_parse_n_values():
    assert parse_n_values("3,5,10") == (3, 5, 10)
    assert parse_n_values("100:1000000:10") == (100, 1000, 10000, 100000, 1000000)
    assert parse_n_values("7:7:2") == (7,)
    with pytest.raises(ValueError):
        parse_n_values("10:5:2")
    with pytest.raises(ValueError):
        parse_n_values("1:10:1")
    with pytest.raises(ValueError):
        parse_n_values("1:2:3:4")


def test_closed_stdout_pipe_exits_1_without_traceback():
    # Row 600 prints ~0.4 MB, far more than a pipe buffers, so the writer
    # is still writing when the reader goes away after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclecollide", "exact", "--n", "600", "--row"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n = 600\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""


def test_sampler_choices_are_the_sampler_kinds():
    assert list(cli._SAMPLERS) == sorted(kind.value for kind in SamplerKind)


@pytest.mark.parametrize(
    "argv, want",
    PINS,
    ids=["exact-row", "collide-exact", "collide-asymptotic", "collide-quadrature",
         "collide-eq2", "table-without-montecarlo", "collide-quadrature-n1"],
)
def test_commands_without_sampler_or_ladder_do_not_load_numpy(argv, want):
    # Every command but the montecarlo method, a table with a montecarlo
    # column and verify, also the quadrature method at n = 1, where p is
    # 1 exactly and no integrand is evaluated.
    # -X importtime names every module the process imports on stderr.  -S
    # keeps out what site imports at start-up (a .pth file may import
    # typing), so the package's own directory is passed on PYTHONPATH.
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "cyclecollide", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, want)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    # Records are named tuples and annotations strings: none of the
    # standard library's heavier helpers is loaded for them.
    assert not {"dataclasses", "inspect", "typing"} & set(imported)
    routes = {"exact": "cyclecollide.exact", "asymptotic": "cyclecollide.asymptotic",
              "quadrature": "cyclecollide.analytic", "eq2": "cyclecollide.analytic"}
    route = routes[argv[-1] if argv[0] == "collide" else "exact"]
    assert route in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    # p(n) is the quotient of two ints, with no Fraction on the way, and
    # only the handlers that need the exact route import it.
    assert "fractions" not in imported
    assert ("cyclecollide.exact" in imported) == ("exact" in argv or argv[0] == "table")
    # What the cold start of `collide` rests on: no method loads the report,
    # the asymptotic one no quadrature config, the exact one no circle route.
    if argv[0] == "collide":
        assert "cyclecollide.report" not in imported
    if argv[-1] == "asymptotic":
        assert not {"cyclecollide.quadrature", "dataclasses"} & set(imported)
    if argv[0] == "collide" and argv[-1] == "exact":
        assert "cyclecollide.analytic" not in imported


# Runs the CLI in a child in which `import numpy` fails.
_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from cyclecollide.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("collide", "--n", "10", "--method", "montecarlo", "--pairs", "100"),
        ("verify",),
        ("table", "--n", "5", "--methods", "montecarlo", "--pairs", "100"),
    ],
    ids=["collide-montecarlo", "verify", "table-montecarlo"],
)
def test_a_missing_numpy_is_an_error_line(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "numpy" in errors[0]


def test_a_numpy_free_command_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, "collide", "--n", "10", "--method", "quadrature"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("p = 0.24005636572585648\n")


_CORE_CHECK = Path(__file__).with_name("core_check.py")


def test_core_check_matches_its_pins():
    proc = subprocess.run([sys.executable, str(_CORE_CHECK)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_core_check_names_the_first_command_that_differs():
    # The second pin is spoilt; the script stops there.
    spoilt = (
        "import sys; sys.path.insert(0, sys.argv[1]); import core_check; "
        "pins = list(core_check.PINS); pins[1] = (pins[1][0], 'p = 0\\n'); "
        "core_check.PINS = pins; sys.exit(core_check.main())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", spoilt, str(_CORE_CHECK.parent)], capture_output=True, text=True
    )
    argv = " ".join(PINS[1][0])
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[0] == f"differs: cyclecollide {argv}"


def test_another_missing_module_still_raises(monkeypatch):
    def missing(args):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(cli, "_cmd_verify", missing)
    with pytest.raises(ModuleNotFoundError):
        main(["verify"])


def test_table_without_montecarlo_does_not_load_the_sampler():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cyclecollide",
         "table", "--n", "5,10", "--methods", "quadrature,asymptotic"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,p_exact,p_quadrature,")
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "cyclecollide.report" in imported
    assert "cyclecollide.montecarlo" not in imported


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecollide", "exact", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "f(n) = 14" in proc.stdout


# ------------------------------------------------- generated arguments

# Exact-route and Monte Carlo n stay small; the rest probe the edges.
_N = st.one_of(
    st.integers(min_value=1, max_value=30),
    st.sampled_from([0, -1, -(2**70), 2**53 + 1, 10**309, 2**1100]),
).map(str)
# An option is left out, valid or an edge case, a third of the time each.
_TOL = st.one_of(
    st.none(), st.just("1e-8"), st.sampled_from(["nan", "0", "1e-20", "-1e-3", "inf"])
)
_PAIRS = st.one_of(st.none(), st.sampled_from(["1", "300"]), st.sampled_from(["0", "-5"]))
_SEED = st.one_of(st.none(), st.sampled_from(["0", "11"]), st.sampled_from(["-1", str(2**64)]))
# TMP stands for a fresh directory.
_OUT = st.sampled_from([None, "TMP/t.csv", "TMP", "TMP/missing/t.csv"])


def _options(**strategies):
    """Optional `--name value` pairs, each drawn from its strategy."""
    return st.tuples(*strategies.values()).map(
        lambda values: [
            item
            for name, value in zip(strategies, values)
            if value is not None
            for item in (f"--{name}", value)
        ]
    )


_ARGV = {
    "exact": st.tuples(
        _N, st.lists(st.sampled_from(["--row", "--json"]), unique=True)
    ).map(lambda t: ["exact", "--n", t[0], *t[1]]),
    "collide": st.tuples(
        _N,
        st.sampled_from([*METHODS, "bogus"]),
        _options(
            tol=_TOL, pairs=_PAIRS, seed=_SEED,
            sampler=st.sampled_from([None, "bernoulli", "permutation"]),
        ),
    ).map(lambda t: ["collide", "--n", t[0], "--method", t[1], *t[2]]),
    "table": st.tuples(
        st.one_of(
            st.lists(_N, min_size=1, max_size=3).map(",".join),
            st.sampled_from(["2:30:3", "1000000:100000000:100", "5:2:2", "abc", "3,"]),
        ),
        st.lists(st.sampled_from([*METHODS, "bogus"]), min_size=1, max_size=3).map(",".join),
        _options(
            format=st.sampled_from([None, "csv", "json", "xml"]),
            out=_OUT, tol=_TOL, pairs=_PAIRS, seed=_SEED,
        ),
    ).map(lambda t: ["table", "--n", t[0], "--methods", t[1], *t[2]]),
    # Any argument is a usage error; a bare `verify` runs the whole suite,
    # which tests/test_verify.py covers.
    "verify": st.sampled_from(["--n", "--tol", "5"]).map(lambda a: ["verify", a]),
}


@pytest.mark.parametrize("command", sorted(_ARGV))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_arguments_exit_cleanly(command, data):
    argv = data.draw(_ARGV[command])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [tmp + a[3:] if a.startswith("TMP") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: ")
    if code == 1:
        assert err.getvalue().startswith("error: ")
