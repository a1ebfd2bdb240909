"""The benchmark's own tests: its checks reject wrong answers, and every
workload prints every metric.

Not collected by the repository's default test run (the file name does
not match ``test_*.py``); run it explicitly from the repository root:

    python3 -m pytest -q e2ebench/check_benchmark.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.api import service  # noqa: E402
from repro.lp.exact import exact_max_flow  # noqa: E402
from repro.serve import app as serve_app  # noqa: E402

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import serve_phase  # noqa: E402
import solve_phase  # noqa: E402
import tables  # noqa: E402

TINY = tables.SOLVE_WORKLOADS["tiny"]["solve_ip"]


@pytest.fixture(scope="module")
def maxflow():
    """A tiny fixed-IP MaxFlow answer and its lp.exact optimum."""
    spec = TINY.specs(rounding_seed=1, arrival_seed=1)["maxflow_s"]
    report = service.solve(spec)
    _, sessions, routing = service.build_instance(spec)
    return report, exact_max_flow(sessions, routing).objective


def scaled(report, factor):
    return dataclasses.replace(report, solution=report.solution.scaled(factor))


def altered(payload):
    """A copy of a report's JSON with one tree flow nudged."""
    out = copy.deepcopy(payload)
    out["sessions"][0]["tree_flows"][0]["flow"] *= 1.0001
    return out


# ----------------------------------------------------------------------
# each check rejects an answer it must reject
# ----------------------------------------------------------------------
def test_genuine_answer_passes(maxflow):
    report, exact = maxflow
    checker = checks.Checker()
    value = checks.objective(report.solution, "max_flow")
    checker.feasible(report.solution, "mf")
    checker.within_exact(value, exact, TINY.maxflow_ratio, "mf")
    checker.same_answer(report.to_jsonable(), report.to_jsonable(), "mf")
    checker.repeatable(report.to_jsonable(), report.to_jsonable(), "mf")
    assert checker.ok, checker.failures


def test_flows_scaled_up_are_infeasible_and_above_the_optimum(maxflow):
    report, exact = maxflow
    bad = scaled(report, 1.2)
    checker = checks.Checker()
    assert not checker.feasible(bad.solution, "x1.2")
    value = checks.objective(bad.solution, "max_flow")
    assert not checker.within_exact(value, exact, TINY.maxflow_ratio, "x1.2")
    assert len(checker.failures) == 2


def test_flows_scaled_down_miss_the_guarantee(maxflow):
    report, exact = maxflow
    value = checks.objective(scaled(report, 0.5).solution, "max_flow")
    checker = checks.Checker()
    assert not checker.within_exact(value, exact, TINY.maxflow_ratio, "x0.5")
    assert not checker.at_least(value, exact, TINY.maxflow_ratio, "x0.5 dynamic")
    assert not checker.ok


def test_altered_warm_answer_is_rejected(maxflow):
    payload = maxflow[0].to_jsonable()
    checker = checks.Checker()
    assert not checker.same_answer(altered(payload), payload, "warm")


def test_volatile_fields_are_ignored(maxflow):
    payload = maxflow[0].to_jsonable()
    other = dict(payload, wall_seconds=123.0, cached=True, instrumentation=None)
    assert checks.Checker().same_answer(other, payload, "warm")


def test_repeat_with_other_flows_or_counts_is_rejected(maxflow):
    payload = maxflow[0].to_jsonable()
    checker = checks.Checker()
    assert not checker.repeatable(payload, altered(payload), "digest")
    recount = dict(payload, oracle_calls=payload["oracle_calls"] + 1)
    assert not checker.repeatable(payload, recount, "counts")
    assert len(checker.failures) == 2


# ----------------------------------------------------------------------
# a run flags a wrong answer
# ----------------------------------------------------------------------
def test_solve_run_flags_scaled_flows(monkeypatch, tmp_path):
    real = service.solve

    def inflated(spec, *args, **kwargs):
        report = real(spec, *args, **kwargs)
        if spec.solver == "max_flow" and not report.cached:
            return scaled(report, 1.2)
        return report

    monkeypatch.setattr(service, "solve", inflated)
    checker = checks.Checker()
    _, tally, _ = solve_phase.run(
        TINY, 1, 0.0, False, tmp_path, tmp_path / "t.json", checker
    )
    assert not checker.ok
    assert tally.failed > 0
    assert any("infeasible" in f for f in checker.failures)


def test_serve_run_flags_altered_warm_answer(monkeypatch, tmp_path):
    real = serve_app.ServeApp.report
    online, heavy = tables.SERVE_WORKLOADS["tiny"].warm_specs(2.0)
    warm_keys = {s.canonical_key for s in online + heavy}

    def tampered(self, key):
        status, payload = real(self, key)
        if status == 200 and key in warm_keys:
            payload = altered(payload)
        return status, payload

    monkeypatch.setattr(serve_app.ServeApp, "report", tampered)
    checker = checks.Checker()
    _, attempted, failed, _ = serve_phase.run(
        tables.SERVE_WORKLOADS["tiny"], 1, 2.0, False, tmp_path, tmp_path / "t.json", checker
    )
    assert attempted > 0 and failed > 0
    assert any("differs from the cold report" in f for f in checker.failures)


# ----------------------------------------------------------------------
# serve_mix plans: the mix does not depend on the seed
# ----------------------------------------------------------------------
def test_serve_plan_mix_is_seed_independent():
    workload = tables.SERVE_WORKLOADS["full"]
    shapes = set()
    for seed in (1, 2, 3):
        requests = serve_phase.Plan(workload, seed, 30.0).stream()
        warm = [r.key for r in requests if r.kind == "warm"]
        kinds = tuple(r.kind for r in requests)
        shapes.add((kinds, len(warm), len(set(warm))))
        dues = [r.due for r in requests]
        slot = 1.0 / workload.slot_rate
        assert min(b - a for a, b in zip(dues, dues[1:])) >= (1 - workload.jitter) * slot - 1e-9
    assert len(shapes) == 1
    (kinds, reads, first_reads), = shapes
    assert kinds.count("warm") > len(kinds) / 2  # mostly warm
    # Every pre-solved key is read, so its first read (a disk read) is a
    # fixed share of the warm reads.
    assert first_reads == sum(workload.warm_keys(30.0))
    assert first_reads < reads / 2


@pytest.mark.parametrize("count, expected", [(80, 87.0), (110, 90.0), (200, 95.0), (12, 50.0)])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    got = serve_phase.tail_percentile(count)
    assert got == expected
    if got > 50.0:
        assert count * (100.0 - got) / 100.0 >= serve_phase.TAIL_BEYOND


# ----------------------------------------------------------------------
# smoke: every workload prints every metric, with its unit
# ----------------------------------------------------------------------
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return bench


def test_declared_metrics_match_the_runner():
    bench = declared()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(bench_run.WORKLOADS)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable,
            str(Path(cwd) / "e2ebench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "2",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    trace_file = ROOT / ".bench_out" / "traces" / f"{workload}-seed3.trace.json"
    summary = subprocess.run(
        [sys.executable, "-m", "repro.obs", "summary", str(trace_file)],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert summary.returncode == 0, summary.stderr
    assert "solve" in summary.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("solve_ip", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
