"""Tests of the benchmark's own parts: output check, tracer and counts.

Run from the repository root with: python3 -m pytest perfbench/tests
Each test runs child.main in-process on a few evaluation days.
"""

import csv
import json
import os
import subprocess
import sys
import time

import pytest
import riskengine  # noqa: F401  imported once here, outside any timed span

import check
import child
import layers
import run
import workloads
from tracer import self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run_child(tmp_path, monkeypatch, workload, days, trace=False):
    tmp_path.mkdir(exist_ok=True)
    monkeypatch.setitem(workloads.WORKLOADS[workload], "days", days)
    prices = str(tmp_path / "prices.csv")
    workloads.write_panel_csv(prices, 5, 0, days)
    spec = {
        "csv": prices,
        "out": str(tmp_path / "report"),
        "config": workloads.run_config(workload, 5),
        "grid": workloads.WORKLOADS[workload]["grid"],
        "package_dir": os.path.join(ROOT, "src", "riskengine"),
        "trace": str(tmp_path / "trace.json") if trace else None,
        "result": str(tmp_path / "result.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert child.main(str(spec_path)) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    if trace:
        result["trace"] = json.loads((tmp_path / "trace.json").read_text())
    return spec, result


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _first(rows, tag):
    return next(r for r in rows if r["model_tag"] == tag)


def _drop_row(rows):
    rows.pop()


def _es_above_var(rows):
    r = _first(rows, "gmm3")
    r["var"], r["es"] = r["es"], r["var"]


def _nan_var(rows):
    _first(rows, "param")["var"] = "nan"


def _empty_tail(rows):
    _first(rows, "gmm3")["n_tail"] = "0"


def _shifted_param(rows):
    r = _first(rows, "param")  # the first day is always a sampled day
    r["var"] = repr(float(r["var"]) * (1 + 1e-6))


@pytest.mark.parametrize(
    "corrupt", [_drop_row, _es_above_var, _nan_var, _empty_tail, _shifted_param]
)
def test_check_rejects_corrupted_estimates(tmp_path, monkeypatch, corrupt):
    spec, _ = _run_child(tmp_path, monkeypatch, "desk", 4)
    assert check.check_report(spec["out"], "desk", spec["csv"]) == []
    _rewrite(os.path.join(spec["out"], "estimates.csv"), corrupt)
    assert check.check_report(spec["out"], "desk", spec["csv"]) != []


def test_check_recomputes_hs_rows_and_sweep_scaling(tmp_path, monkeypatch):
    spec, _ = _run_child(tmp_path / "b", monkeypatch, "baselines", 3)
    assert check.check_report(spec["out"], "baselines", spec["csv"]) == []
    _rewrite(
        os.path.join(spec["out"], "estimates.csv"),
        lambda rows: _first(rows, "hs").update(es=repr(float(_first(rows, "hs")["es"]) * 1.001)),
    )
    assert check.check_report(spec["out"], "baselines", spec["csv"]) != []

    spec, _ = _run_child(tmp_path / "s", monkeypatch, "sweep", 2)
    assert check.check_report(spec["out"], "sweep", spec["csv"]) == []
    _rewrite(
        os.path.join(spec["out"], "short_030", "estimates.csv"),
        lambda rows: rows[0].update(var=repr(float(rows[0]["var"]) * 1.001)),
    )
    assert check.check_report(spec["out"], "sweep", spec["csv"]) != []


def test_tracer_self_times_sum_to_traced_wall(tmp_path, monkeypatch):
    from riskengine import engine

    original = engine.run_backtest
    t0 = time.perf_counter()
    _, result = _run_child(tmp_path, monkeypatch, "desk", 5, trace=True)
    wall = time.perf_counter() - t0
    assert engine.run_backtest is original  # wrappers removed after the run

    spans = result["trace"]["spans"]
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(self_times(spans)) == pytest.approx(roots, rel=1e-9)
    assert all(own >= -1e-9 for own in self_times(spans))
    # what no root span covers: RunConfig set-up, the tracer's install and
    # dump, and the report size walk
    assert roots <= wall
    assert wall - roots <= 0.1 * wall + 0.05


def test_counts_match_predictions(tmp_path, monkeypatch):
    _, result = _run_child(tmp_path / "b", monkeypatch, "baselines", 3, trace=True)
    counts = layers.counts(result["trace"], result["report_bytes"])
    assert counts["gmm.fit.calls"] == 0
    assert counts["gmm.sample.calls"] == 0
    assert counts["scenario.draws"] == 0
    assert counts["baselines.calibrate_gbm.calls"] == 3

    _, result = _run_child(tmp_path / "s", monkeypatch, "sweep", 3, trace=True)
    counts = layers.counts(result["trace"], result["report_bytes"])
    assert counts["gmm.fit.calls"] == 3
    assert counts["engine.fit_reuse"] == pytest.approx(6 / 7)
    assert counts["engine.days"] == 3 * 7
    assert counts["scenario.simulate_gmm.calls"] == 3 * 7


def test_counts_repeat_exactly(tmp_path, monkeypatch):
    runs = [
        _run_child(tmp_path / str(i), monkeypatch, "desk", 4, trace=True)[1]
        for i in range(2)
    ]
    first, second = (layers.counts(r["trace"], r["report_bytes"]) for r in runs)
    assert first == second
    assert first["gmm.fit.calls"] == 4
    assert first["gmm.em_iters"] >= 4


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in layers.per_layer_spec()
    ]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
