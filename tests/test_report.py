import decimal
import json
import math

import pytest

from cyclecollide import (
    CSV_COLUMNS,
    QuadratureConfig,
    ReportConfig,
    p_exact,
    render_csv,
    render_json,
    run_report,
)


def single_row(n, methods, **kwargs):
    config = ReportConfig(n_values=(n,), methods=tuple(methods), **kwargs)
    return run_report(config)[0], config


# ------------------------------------------------------------- rows

def test_exact_row_rendering():
    row, _ = single_row(3, ("exact",))
    assert row.p_exact == "0.38888888888888888889"
    assert row.p_quadrature is None
    assert row.errors == ()


def test_montecarlo_certain_at_n1():
    row, _ = single_row(1, ("montecarlo",), mc_pairs=100)
    assert row.mc_p_hat == 1.0
    assert row.mc_std_err == 0.0
    assert row.ratio_to_asymptotic is None  # undefined at n = 1


def test_ratio_decreases_toward_one():
    config = ReportConfig(
        n_values=(100, 10**4, 10**6),
        methods=("quadrature", "asymptotic"),
    )
    rows = run_report(config)
    ratios = [row.ratio_to_asymptotic for row in rows]
    assert all(r is not None and r > 1.0 for r in ratios)
    assert ratios[0] > ratios[1] > ratios[2]


def test_quadrature_tracks_exact_column():
    for n in (2, 7, 40):
        row, _ = single_row(n, ("exact", "quadrature"))
        gap = abs(row.p_quadrature - p_exact(n).approx)
        assert gap <= max(10.0 * row.quad_error_estimate, 1e-12)


def test_ratio_prefers_exact_over_montecarlo():
    row, _ = single_row(10, ("exact", "montecarlo"), mc_pairs=1000, seed=3)
    want = p_exact(10).approx / (1.0 / (2.0 * math.sqrt(math.pi * math.log(10))))
    assert row.ratio_to_asymptotic == pytest.approx(want, rel=1e-15)


def test_exact_above_ceiling_recorded_not_raised():
    row, _ = single_row(20001, ("exact", "asymptotic"))
    assert row.p_exact is None
    assert row.errors and "ceiling" in row.errors[0]
    assert row.p_asymptotic is not None


def test_montecarlo_above_sampler_limit_recorded_not_raised():
    row, _ = single_row(2**53 + 1, ("montecarlo", "asymptotic"))
    assert row.mc_p_hat is None and row.mc_std_err is None
    assert row.errors and "BERNOULLI_MAX_N" in row.errors[0]
    assert row.p_asymptotic is not None


def test_quadrature_nonconvergence_annotated():
    row, _ = single_row(
        100,
        ("quadrature",),
        quad=QuadratureConfig(rel_tol=1e-16),  # below the error floor
    )
    assert row.p_quadrature is not None  # best estimate retained
    assert row.quad_error_estimate > 0
    assert any("quadrature" in e for e in row.errors)


def test_rows_above_double_range_carry_no_errors():
    config = ReportConfig(
        n_values=(10**300, 2**1030), methods=("quadrature", "eq2", "asymptotic")
    )
    for row in run_report(config):
        assert row.errors == ()
        assert row.p_quadrature == pytest.approx(row.p_eq2, rel=1e-14)
        assert row.ratio_to_asymptotic == pytest.approx(1.0, abs=1e-3)


def test_eq2_column_is_kernel_integral_over_2pi():
    row, _ = single_row(1000, ("eq2", "asymptotic"))
    assert row.p_eq2 == pytest.approx(row.p_asymptotic, rel=0.2)
    assert row.ratio_to_asymptotic == pytest.approx(
        row.p_eq2 / row.p_asymptotic, rel=1e-15
    )


# ------------------------------------------------------- serialization

def test_csv_layout():
    config = ReportConfig(n_values=(1, 3), methods=("exact",))
    text = render_csv(run_report(config))
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "1"  # p_exact(1) renders as the decimal string 1
    assert all(field == "" for field in first[2:])
    assert text.endswith("\n")


def test_csv_and_json_carry_identical_values():
    config = ReportConfig(
        n_values=(2, 10),
        methods=("exact", "quadrature", "asymptotic", "montecarlo"),
        mc_pairs=2000,
    )
    rows = run_report(config)
    csv_lines = render_csv(rows).splitlines()[1:]
    doc = json.loads(render_json(rows, config))
    assert doc["version"] == "0.1.0"
    assert doc["config"]["seed"] == 0
    for line, json_row in zip(csv_lines, doc["rows"]):
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        assert int(fields["n"]) == json_row["n"]
        assert fields["p_exact"] == json_row["p_exact"]
        for key in CSV_COLUMNS[2:]:
            if fields[key] == "":
                assert json_row[key] is None
            else:
                assert float(fields[key]) == json_row[key]


def test_json_errors_field():
    row, config = single_row(20001, ("exact",))
    doc = json.loads(render_json([row], config))
    assert doc["rows"][0]["errors"]
    assert doc["rows"][0]["p_exact"] is None


@pytest.mark.parametrize(
    "path", ["a\tb.json", "a\nb.json", "\x00\x1f\x7f.json", 'q"\\.json', "n\u00e9.json"], ids=repr
)
def test_json_round_trips_any_output_path(path):
    # A tab or a newline in the path used to go into the document raw,
    # which json.loads rejects as an invalid control character.
    config = ReportConfig(n_values=(3,), methods=("exact",), output_format="json",
                          output_path=path)
    doc = json.loads(render_json(run_report(config), config))
    assert doc["config"]["output_path"] == path


@pytest.mark.parametrize(
    "n_values", [(1, 2, 3, 50, 51, 200), (3, 50, 400, 20001, 10**6)]
)
def test_sweep_renders_like_single_n_reports(n_values):
    # The exact column of a sweep comes from one ascending row walk; each
    # row must still match a report over its n alone, past the ceiling too.
    methods = ("exact", "quadrature")
    config = ReportConfig(n_values=n_values, methods=methods)
    swept = run_report(config)
    alone = [single_row(n, methods)[0] for n in n_values]
    assert swept == alone
    assert render_csv(swept) == render_csv(alone)
    assert render_json(swept, config) == render_json(alone, config)


def test_report_deterministic_bytes():
    config = ReportConfig(
        n_values=(2, 10),
        methods=("exact", "quadrature", "eq2", "asymptotic", "montecarlo"),
        mc_pairs=5000,
        seed=7,
    )
    a = render_csv(run_report(config))
    b = render_csv(run_report(config))
    assert a == b
    ja = render_json(run_report(config), config)
    jb = render_json(run_report(config), config)
    assert ja == jb


def test_exact_column_ignores_the_callers_decimal_context():
    config = ReportConfig(n_values=tuple(range(1, 60)), methods=("exact",))
    rows = run_report(config)
    want = render_csv(rows), render_json(rows, config)
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        ctx.traps[decimal.Inexact] = True
        rows = run_report(config)
        assert (render_csv(rows), render_json(rows, config)) == want


# ---------------------------------------------------------- validation

def test_config_validation():
    with pytest.raises(ValueError):
        ReportConfig(n_values=(), methods=("exact",))
    with pytest.raises(ValueError):
        ReportConfig(n_values=(5, 5), methods=("exact",))
    with pytest.raises(ValueError):
        ReportConfig(n_values=(5, 3), methods=("exact",))
    with pytest.raises(ValueError):
        ReportConfig(n_values=(3,), methods=())
    with pytest.raises(ValueError):
        ReportConfig(n_values=(3,), methods=("exactly",))
    with pytest.raises(ValueError):
        ReportConfig(n_values=(1, 5), methods=("asymptotic",))
    with pytest.raises(ValueError):
        ReportConfig(n_values=(1, 5), methods=("eq2",))
    # Each n, mc_pairs and seed follow the integer contract
    # (tests/test_args.py), the seed below 2**64.
    with pytest.raises(ValueError, match="64-bit"):
        ReportConfig(n_values=(3,), methods=("montecarlo",), seed=2**64)
    with pytest.raises(ValueError):
        ReportConfig(n_values=(3,), methods=("exact",), output_format="xml")


def test_methods_canonical_order():
    config = ReportConfig(n_values=(3,), methods=("montecarlo", "exact"))
    assert config.methods == ("exact", "montecarlo")
