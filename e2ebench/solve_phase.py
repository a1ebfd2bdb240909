"""The solve workloads: cold ``solve(spec, store=...)`` and warm re-reads.

One *round* solves each of the workload's four specs cold — the
process caches cleared and an empty durable store, so each time covers
instance build, solve and store put — then re-answers every spec from a
freshly opened store (read, sha256 verify, report rebuild).  Rounds
repeat until ``--seconds`` have passed; each spec's time is its best
over rounds (every round does identical work, and load from other
processes only ever adds time), and the end-to-end metrics sum those
best times or take their maximum.

With tracing on, one untraced round is followed by one traced round of
the same specs: the layer wrappers are installed and the program's own
spans recorded, the answers must equal the untraced ones, and the wall
ratio of the two rounds is the tracing overhead.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.api import service
from repro.lp.exact import exact_max_concurrent_flow, exact_max_flow
from repro.obs.tracing import Tracer
from repro.store import ReportStore

import checks
import layers
from tables import SolveWorkload

MIN_ROUNDS = 2
WARM_PASSES = 3
#: The online solve is short (~0.2 s), so each round times it three
#: times; ``answers_per_s`` rests on it alone.
COLD_REPEATS = {"online_s": 3}


class Tally:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def exact_references(workload: SolveWorkload) -> Dict[str, float]:
    """Fixed-IP optima from ``repro.lp.exact`` (set-up, untimed)."""
    spec = workload.instance.spec("ip", "max_flow")
    _, sessions, routing = service.build_instance(spec)
    return {
        "maxflow_s": exact_max_flow(sessions, routing).objective,
        "mcf_s": exact_max_concurrent_flow(sessions, routing).objective,
    }


def run_round(
    specs: Dict[str, Any], store_dir: Path, tally: Tally, checker: checks.Checker
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    """One round: each spec cold into an empty store, then all warm.

    Returns (cold seconds per spec, warm seconds per spec, cold reports,
    warm reports).  Reports are turned into JSON by the caller, outside
    any traced region, so the checks add no work to the layers measured.
    """
    store = ReportStore(store_dir)
    cold_s: Dict[str, float] = {}
    cold: Dict[str, Any] = {}
    for name, spec in specs.items():
        for repeat in range(COLD_REPEATS.get(name, 1)):
            # Repeats after the first go into stores of their own, so
            # every one of them is cold.
            target = store if repeat == 0 else ReportStore(store_dir / f"{name}-{repeat}")
            service.clear_caches()
            # Collect first, so no timed operation pays for garbage an
            # earlier one (or the previous round's checks) left behind.
            gc.collect()
            tally.attempted += 1
            start = time.perf_counter()
            try:
                report = service.solve(spec, store=target)
            except Exception as exc:  # noqa: BLE001 - a failed solve is a counted failure
                tally.failed += 1
                checker.fail(f"{name}: cold solve raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            cold_s[name] = min(elapsed, cold_s.get(name, elapsed))
            cold.setdefault(name, report)
    # Warm reads are short, so each spec is re-read from a freshly opened
    # store (empty memory front) WARM_PASSES times and the least kept.
    warm_times: Dict[str, List[float]] = {name: [] for name in specs}
    warm: Dict[str, Any] = {}
    for _ in range(WARM_PASSES):
        reopened = ReportStore(store_dir)
        for name, spec in specs.items():
            gc.collect()
            tally.attempted += 1
            start = time.perf_counter()
            try:
                warm[name] = service.solve(spec, store=reopened)
            except Exception as exc:  # noqa: BLE001
                tally.failed += 1
                checker.fail(f"{name}: warm read raised {type(exc).__name__}: {exc}")
                continue
            warm_times[name].append(time.perf_counter() - start)
    warm_s = {name: min(v) for name, v in warm_times.items() if v}
    shutil.rmtree(store_dir, ignore_errors=True)
    return cold_s, warm_s, cold, warm


def check_round(
    workload: SolveWorkload,
    exact: Dict[str, float],
    cold: Dict[str, Any],
    warm: Dict[str, Any],
    first: Dict[str, Dict[str, Any]],
    checker: checks.Checker,
    tally: Tally,
) -> Dict[str, Dict[str, Any]]:
    """Check one round's answers; returns the cold answers' JSON forms.

    ``first`` holds the first round's cold JSON per metric (empty on the
    first round): later rounds must repeat it exactly.
    """
    payloads: Dict[str, Dict[str, Any]] = {}
    ratios = workload.ratios()
    for name, report in cold.items():
        payload = report.to_jsonable()
        payloads[name] = payload
        label = f"{workload.name}/{name}"
        ok = checker.feasible(report.solution, label)
        if name in ratios:
            value = checks.objective(report.solution, report.spec.solver)
            if workload.routing == "ip":
                ok &= checker.within_exact(value, exact[name], ratios[name], label)
            else:
                ok &= checker.at_least(value, exact[name], ratios[name], label)
        if name in warm:
            hit = warm[name]
            ok &= checker.expect(hit.cached, f"{label}: warm read missed the store")
            ok &= checker.same_answer(hit.to_jsonable(), payload, f"{label} (warm)")
        if name in first:
            ok &= checker.repeatable(first[name], payload, label)
        if not ok:
            tally.failed += 1
    return payloads


def opt_ratio(workload: SolveWorkload, exact, cold: Dict[str, Any]) -> float:
    """Smallest objective / lp.exact over the checked solvers."""
    values = [
        checks.objective(cold[name].solution, cold[name].spec.solver) / exact[name]
        for name in workload.ratios()
        if name in cold
    ]
    return min(values) if values else 0.0


def run(
    workload: SolveWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    trace_path: Path,
    checker: checks.Checker,
) -> Tuple[Dict[str, float], Tally, Dict[str, Any]]:
    """Returns (metrics, tally, per-solver detail)."""
    rng = np.random.default_rng(seed)
    specs = workload.specs(
        rounding_seed=int(rng.integers(1, 2**31)),
        arrival_seed=int(rng.integers(1, 2**31)),
    )
    exact = exact_references(workload)
    tally = Tally()
    if trace:
        return traced_run(workload, specs, exact, work_dir, trace_path, checker, tally)

    first: Dict[str, Dict[str, Any]] = {}
    arrivals = 0
    cold_times: Dict[str, List[float]] = {name: [] for name in specs}
    rounds: List[Tuple[Dict[str, float], Dict[str, float]]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        cold_s, warm_s, cold, warm = run_round(
            specs, work_dir / f"round{len(rounds)}", tally, checker
        )
        rounds.append((cold_s, warm_s))
        for name, value in cold_s.items():
            cold_times[name].append(value)
        payloads = check_round(workload, exact, cold, warm, first, checker, tally)
        if not first:
            # The first round's answers are kept for the repeatability
            # check; frozen out of the collector, they no longer lengthen
            # the collections later solves trigger.
            first = payloads
            gc.collect()
            gc.freeze()
        if "online_s" in cold:
            arrivals = int(cold["online_s"].solution.extra["num_arrivals"])
    answered = [(c, w) for c, w in rounds if c and w]
    if not answered:
        return {}, tally, {}
    # Best of the rounds, per spec: every round does identical work, and
    # other processes on the machine only ever add time to a round.
    cold_best = best_of(c for c, _ in answered)
    warm_best = best_of(w for _, w in answered)
    metrics = {
        "cold_s": sum(cold_best.values()),
        "cold_tail_s": max(cold_best.values()),
        "warm_s": sum(warm_best.values()),
        "warm_tail_s": max(warm_best.values()),
        "answers_per_s": arrivals / cold_best["online_s"],
    }
    detail = {
        "rounds": len(rounds),
        "cold_best_s": cold_best,
        "cold_median_s": {n: statistics.median(v) for n, v in cold_times.items() if v},
        "warm_best_s": warm_best,
        "online_arrivals": arrivals,
        "opt_ratio": opt_ratio(workload, exact, cold),
    }
    return metrics, tally, detail


def best_of(rounds) -> Dict[str, float]:
    """Per spec, the least time over rounds that answered every spec."""
    best: Dict[str, float] = {}
    for times in rounds:
        for name, value in times.items():
            best[name] = min(value, best.get(name, value))
    return best


def traced_run(
    workload: SolveWorkload,
    specs: Dict[str, Any],
    exact: Dict[str, float],
    work_dir: Path,
    trace_path: Path,
    checker: checks.Checker,
    tally: Tally,
) -> Tuple[Dict[str, float], Tally, Dict[str, Any]]:
    """One untraced round, then the same round traced."""
    cold_s, warm_s, cold, warm = run_round(specs, work_dir / "plain", tally, checker)
    untraced_wall = sum(cold_s.values()) + sum(warm_s.values())
    first = check_round(workload, exact, cold, warm, {}, checker, tally)
    clock = layers.LayerClock(Tracer(process_name=f"e2ebench {workload.name}"))
    with layers.installed(clock):
        cold_s, warm_s, cold, warm = run_round(specs, work_dir / "traced", tally, checker)
    traced_wall = sum(cold_s.values()) + sum(warm_s.values())
    # Traced-run fidelity: check_round compares every traced answer with
    # the untraced round's, digest and counts.
    payloads = check_round(workload, exact, cold, warm, first, checker, tally)
    clock.tracer.save(trace_path)
    metrics = layers.layer_metrics(clock, list(payloads.values()))
    metrics["core.opt_ratio"] = opt_ratio(workload, exact, cold)
    metrics["obs.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return metrics, tally, {"traced_cold_s": cold_s, "traced_warm_s": warm_s}
