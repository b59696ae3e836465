"""Tests of the benchmark's own code: inputs, checks, accounting, tracing.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import pace
import run
import tracing
import workloads as W
from qcreg import build_config, run_analysis
from qcreg.reporting import report_json_bytes

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def affine_report():
    op = W.catalog_cli_ops(3, Path("unused"))[2]  # extremal on the affine family
    assert op.expect.family == "affine" and op.kind == "extremal"
    return op, report_json_bytes(run_analysis(build_config({"subject": op.argv[2]})))


def test_generator_is_deterministic_per_seed(tmp_path):
    assert W.catalog_cli_ops(7, tmp_path) == W.catalog_cli_ops(7, tmp_path)
    assert W.catalog_batch_ops(7) == W.catalog_batch_ops(7)
    assert W.grid_cli_passes(7, tmp_path) == W.grid_cli_passes(7, tmp_path)
    assert W.grid_fields(7) == W.grid_fields(7)
    assert W.catalog_cli_ops(7, tmp_path) != W.catalog_cli_ops(8, tmp_path)
    assert W.grid_fields(7) != W.grid_fields(8)
    x = W.grid_axes(33)
    mu = W.grid_fields(7)[1].mu(x[None, :], x[:, None])
    assert np.array_equal(mu, W.grid_fields(7)[1].mu(x[None, :], x[:, None]))
    assert np.abs(mu).max() <= W.grid_fields(7)[1].k


def test_batch_domain_has_240_admissible_circles():
    cfg = build_config(W.catalog_batch_ops(0)[0].config)
    assert len(cfg.domain.admissible_circles()) == 240
    assert len(cfg.profile_radii) == 65


def test_check_accepts_a_true_report(affine_report):
    op, body = affine_report
    assert check.op_problems(0, body, op.expect) == []


def test_check_rejects_perturbed_alpha_improved(affine_report):
    op, body = affine_report
    report = json.loads(body)
    report["regularity"]["alpha_improved"] += 1e-3
    problems = check.op_problems(0, json.dumps(report).encode(), op.expect)
    assert any("alpha_improved" in p for p in problems)


def test_check_rejects_nonzero_exit(affine_report):
    op, body = affine_report
    assert check.op_problems(2, body, op.expect) == ["exit code 2"]


def test_check_rejects_wrong_closed_form_K(affine_report):
    op, body = affine_report
    wrong = W.Expect("catalog", op.expect.K * 1.001, "affine")
    assert any("1/K" in p for p in check.op_problems(0, body, wrong))


def test_failures_stay_in_the_denominator(affine_report):
    op, body = affine_report
    tally = check.Tally()
    for seconds in (1.0, 2.0, 3.0):
        assert tally.record(op.key, seconds, 0, body, [])
    assert not tally.record("elliptic", 0.5, 2, b"", ["exit code 2"])
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (4, 1, 0.25)
    assert tally.busy_seconds == 6.5  # the failed op's time counts too
    assert run.end_to_end(tally, [1.0])["ops_per_s"] == 3 / 6.5
    assert tally.p(50) == 2.0  # failed ops carry no latency sample
    assert tally.correct  # a documented exit code is a failure, not a wrong report
    assert not tally.record(op.key, 1.0, 0, body + b" ", [])  # repeat with other bytes
    assert (tally.attempted, tally.failed, tally.correct) == (5, 2, False)


def test_a_crash_is_a_wrong_outcome():
    tally = check.Tally()
    tally.record("k", 1.0, 1, b"", ["exit code 1", "uncaught exception: KeyError"])
    assert (tally.failed, tally.correct) == (1, False)


def test_p75_needs_ten_samples_above_it():
    tally = check.Tally()
    tally.ok_seconds = [1.0]
    assert tally.p(75) is None and tally.p(50) == 1.0
    tally.ok_seconds = [float(i) for i in range(30)]
    assert tally.p(75) is None
    tally.ok_seconds = [float(i) for i in range(60)]
    assert tally.p(75) is not None


def test_tracer_counts_the_known_work_of_a_default_analysis():
    import qcreg.quadrature

    orig = qcreg.quadrature.circular_average
    tracer = tracing.Tracer().install()
    try:
        report = qcreg.reporting.run_analysis(build_config({"subject": "radial_stretch(K=2)"}))
    finally:
        tracer.uninstall()
    assert qcreg.quadrature.circular_average is orig
    assert qcreg.bounds.circular_average is orig
    metrics, absent = tracing.summarize([tracer.dump()], 1)
    assert absent == set()
    assert metrics["quadrature.circular_average.calls"] == 253
    assert metrics["quadrature.nodes"] == 194_304
    assert metrics["catalog.partials.points"] > 0
    assert metrics["reporting.run_analysis.s"] > 0
    assert report.regularity.alpha_classical == pytest.approx(0.5)


def test_tracer_reports_a_missing_public_name_as_absent(monkeypatch):
    import qcreg  # noqa: F401

    spans = tracing.SPANS + (("qcreg.quadrature", "no_such_function", "quadrature.gone"),
                             ("qcreg.quadrature", "circular_average_v0", "quadrature.circular_average"))
    monkeypatch.setattr(tracing, "SPANS", spans)
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert "quadrature.gone" in tracer.absent
    assert "quadrature.nodes" in tracer.absent
    declared = [{"name": "quadrature.nodes"}, {"name": "cli.main.s"}]
    assert run.declared_values(declared, {}, set(tracer.absent)) == {"cli.main.s": 0}


def test_self_time_subtracts_child_spans():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
             ["leaf", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_result_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tally = check.Tally()
    tally.record("k", 1.0, 0, b"{}", [])
    values = run.end_to_end(tally, [0.5])
    assert list(run.result_metrics(spec["end_to_end"], values)) == [
        m["name"] for m in spec["end_to_end"]]


def test_run_refuses_a_directory_without_qcreg(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "catalog-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_grid_passes_swap_the_sampled_mu_interpolations(tmp_path):
    passes = W.grid_cli_passes(7, tmp_path)
    assert [[op.kind for op in p] for p in passes] == [
        ["analyze-257-bilinear", "analyze-1025-nearest", "elliptic-65-bilinear", "elliptic-65-nearest"],
        ["analyze-257-nearest", "analyze-1025-bilinear", "elliptic-65-bilinear", "elliptic-65-nearest"],
    ]


def test_a_traced_op_without_a_dump_is_a_wrong_outcome(tmp_path, monkeypatch):
    op = W.catalog_cli_ops(3, tmp_path)[0]  # analyze to stdout
    body = report_json_bytes(run_analysis(build_config({"subject": op.argv[2]})))
    ctx = run.Context(tmp_path, "catalog-cli", 3)
    ctx.work = tmp_path
    ctx.pace = pace.Pace(child=False)
    (tmp_path / "trace.json").write_text('{"spans": []}')  # left by an earlier op
    monkeypatch.setattr(run, "spawn", lambda ctx, argv: (0.1, 0, body, b"", 0))
    tally, dumps = check.Tally(), []
    run.cli_op(ctx, op, tally, dumps)
    assert dumps == []
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert tally.first_problems == [f"{op.key}: the traced op wrote no trace dump"]


def test_pace_cancels_a_change_of_host_speed(monkeypatch):
    # the floor reads its nominal time, then twice it: the host slowed to
    # half speed during the second piece of work and stayed there
    nominal = pace.FLOOR_SECONDS
    references = iter([nominal, nominal, 2 * nominal, 2 * nominal])
    monkeypatch.setattr(pace, "floor", lambda: next(references))
    p = pace.Pace(child=True)
    assert p.scale(1.0) == 1.0
    assert p.scale(3.0) == pytest.approx(3.0 / 1.5)  # slowed down halfway through
    assert p.scale(2.0) == 1.0
