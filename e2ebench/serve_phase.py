"""The serve_mix workload: an open-loop stream into ``ServeApp``.

One process, two threads: this generator thread and the app's single
inline worker.  Requests are issued at their due times whatever the
state of earlier ones (open loop), and each latency runs from when the
request was due — so a stall in the generator counts against every
request it delays — to when ``report`` returned the answer.

Requests follow a fixed cycle of slots (``tables.ServeWorkload``), each
due at a seeded instant near the middle of its slot:

* warm: ``submit`` (answered from the store) then ``report`` of a key
  pre-solved during set-up.  The app opens the store afresh, so a key's
  first read goes to disk (read, sha256 verify, decode) and its later
  reads hit the memory front; every key is read a fixed number of
  times, so the share of disk reads does not depend on the seed;
* cold: an online spec with a unique arrival order, solved by the
  worker (build, solve, durable put, relay writes) while the generator
  polls ``report``;
* heavy: a cold dynamic-routing MaxFlow spec that holds the worker for
  ~150 ms; empty slots after it let it finish before the next request.

The stream runs far below capacity, so its latencies reflect service
time.  Capacity is measured from the same requests: those answered per
second the app spent serving them, in ``submit`` and ``report`` on the
generator thread plus the worker's solves.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.api import service
from repro.obs.tracing import Tracer
from repro.serve import ServeApp, ServeConfig
from repro.store import ReportStore

import checks
import layers
from tables import ServeWorkload

#: A tail is the highest whole percentile with at least this many
#: samples beyond it (at --seconds 30: p87 of 80 cold, p90 of 110 warm).
TAIL_BEYOND = 10
VERIFY_PER_KIND = 3  # cold answers per kind and pass re-solved directly and compared
#: How often the generator polls ``report`` for the oldest pending cold
#: request.  Each poll takes the interpreter lock from the worker; at
#: 1 ms the polls slowed the worker's solves by about a fifth and
#: widened the cold tail, at 5 ms they cost little and the latency
#: resolution (5 ms on ~35 ms) is still fine.
POLL_S = 0.005


@dataclass
class Request:
    kind: str  # "warm" | "cold" | "heavy"
    due: float  # seconds after the phase start
    spec: Any
    body: bytes
    key: str


@dataclass
class PhaseResult:
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"warm": [], "cold": [], "heavy": []}
    )
    attempted: int = 0
    # One "<kind> <status>" entry per 429/503/404/500 answer or timeout.
    refusals: List[str] = field(default_factory=list)
    failed_checks: int = 0
    late_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0  # generator time inside submit/report
    submitted_at: Dict[str, float] = field(default_factory=dict)
    answers: List[Tuple[Request, Dict[str, Any]]] = field(default_factory=list)
    # Work counters of every cold answer, in the report's own shape.
    counters: List[Dict[str, Any]] = field(default_factory=list)


def tail_percentile(count: int) -> float:
    """The highest whole percentile with ``TAIL_BEYOND`` samples beyond it."""
    if count <= 2 * TAIL_BEYOND:
        return 50.0
    return float((100 * (count - TAIL_BEYOND)) // count)


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


KINDS = {"W": "warm", "M": "warm", "C": "cold", "H": "heavy"}


class Plan:
    """Draws every phase's requests from the seed."""

    def __init__(self, workload: ServeWorkload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self._cold_seeds: set = set()
        self.cycles = workload.cycles(seconds)
        self.warm_online, self.warm_heavy = workload.warm_specs(seconds)
        # Which key each warm slot reads: every online key reads_per_key
        # times and every MaxFlow key twice, in a seeded order.
        cycle = workload.cycle
        self._reads = {
            "W": self._order(
                self.warm_online, workload.reads_per_key, self.cycles * cycle.count("W")
            ),
            "M": self._order(self.warm_heavy, 2, self.cycles * cycle.count("M")),
        }

    def _order(self, keys: List[Any], times: int, count: int) -> List[Any]:
        picks = [k for k in keys for _ in range(times)]
        order = self.rng.permutation(len(picks))
        return [picks[i] for i in order[:count]]

    def _cold_seed(self) -> int:
        # Arrival seeds 1..K name the warm keys; cold ones are drawn far
        # above them and never repeat within a run.
        while True:
            value = int(self.rng.integers(10**6, 2**40))
            if value not in self._cold_seeds:
                self._cold_seeds.add(value)
                return value

    def stream(self) -> List[Request]:
        """The run's requests: ``cycles`` cycles, one slot per ``1/slot_rate``.

        Slot ``k``'s request is due at ``(k + 1/2 + jitter * (u - 1/2)) /
        slot_rate`` with ``u`` drawn uniform from the seed: random, but
        two requests are never closer than ``1 - jitter`` slots, so a cold
        solve (well under a slot) never queues behind the previous one.
        """
        w = self.workload
        slots = w.cycle * self.cycles
        offsets = 0.5 + w.jitter * (self.rng.random(len(slots)) - 0.5)
        dues = (np.arange(len(slots)) + offsets) / w.slot_rate
        reads = {code: iter(keys) for code, keys in self._reads.items()}
        picked = [(c, d) for c, d in zip(slots, dues) if c != "."]
        return self.requests([(c, float(d), reads) for c, d in picked])

    def requests(self, slots) -> List[Request]:
        requests = []
        for code, due, reads in slots:
            if code in ("W", "M"):
                spec = next(reads[code])
            elif code == "C":
                spec = self.workload.online_spec(self._cold_seed())
            else:
                spec = self.workload.heavy_spec(self._cold_seed())
            body = json.dumps(spec.to_jsonable()).encode("utf-8")
            requests.append(Request(KINDS[code], due, spec, body, spec.canonical_key))
        return requests


def counters_of(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The fields of a report that ``layers.layer_metrics`` counts."""
    instr = payload.get("instrumentation") or {}
    return {
        "oracle_calls": payload["oracle_calls"],
        "instrumentation": {
            k: instr[k] for k in ("oracle_queries", "ledger_columns") if k in instr
        },
        "sessions": [{"num_trees": s["num_trees"]} for s in payload["sessions"]],
    }


def presolve(plan: Plan, store_dir: Path, checker: checks.Checker):
    """Solve the warm keys into the store (set-up, untimed); returns refs."""
    store = ReportStore(store_dir)
    refs: Dict[str, Dict[str, Any]] = {}
    for spec in plan.warm_online + plan.warm_heavy:
        report = service.solve(spec, store=store)
        checker.feasible(report.solution, f"serve warm key {spec.canonical_key[:12]}")
        refs[spec.canonical_key] = checks.normalised(report.to_jsonable())
    return refs


def run_phase(
    app: ServeApp,
    requests: List[Request],
    refs: Dict[str, Dict[str, Any]],
    workload: ServeWorkload,
    checker: checks.Checker,
) -> PhaseResult:
    """Issue ``requests`` at their due times; wait for every answer."""
    # Collect first, so no request pays for garbage set-up left behind.
    gc.collect()
    result = PhaseResult()
    pending: Dict[str, Tuple[Request, float]] = {}
    clock = time.perf_counter
    start = clock() + 0.02
    timeout = workload.timeout_s
    limit_miss = timeout * 1000.0
    index = 0

    def finish(request: Request, due: float, status: int, payload) -> None:
        done = clock()
        if status != 200:
            result.refusals.append(f"{request.kind} {status}")
            result.latencies[request.kind].append(limit_miss)
            return
        result.latencies[request.kind].append((done - due) * 1000.0)
        label = f"serve {request.kind} {request.key[:12]}"
        if request.kind == "warm":
            ok = checker.same_answer(payload, refs[request.key], label)
        else:
            congestion = payload["summary"]["max_congestion"]
            ok = checker.expect(
                congestion <= 1.0 + checks.TOL, f"{label}: congestion {congestion} > 1"
            )
            result.counters.append(counters_of(payload))
            verified = sum(1 for r, _ in result.answers if r.kind == request.kind)
            if verified < VERIFY_PER_KIND:
                result.answers.append((request, payload))
        if not ok:
            result.failed_checks += 1

    while index < len(requests) or pending:
        now = clock()
        if index < len(requests) and now >= start + requests[index].due:
            request = requests[index]
            index += 1
            due = start + request.due
            result.attempted += 1
            result.late_s.append(now - due)
            status, reply = app.submit(request.body)
            after = clock()
            result.busy_s += after - now
            result.submitted_at[request.key] = after
            if request.kind == "warm" or status == 200:
                if request.kind != "warm":
                    checker.fail(f"serve {request.kind} {request.key[:12]}: answered warm")
                    result.failed_checks += 1
                if status == 200:
                    status, reply = app.report(request.key)
                    result.busy_s += clock() - after
                finish(request, due, status, reply)
            elif status == 202:
                pending[request.key] = (request, due)
            else:
                finish(request, due, status, None)
            continue
        # The inline worker answers in admission order, so only the
        # oldest pending request needs polling; when it is answered the
        # next one is checked at once.
        while pending:
            key = next(iter(pending))
            request, due = pending[key]
            before = clock()
            status, reply = app.report(key)
            result.busy_s += clock() - before
            if status == 202 and before - due < timeout:
                break
            del pending[key]
            finish(request, due, status, reply if status == 200 else None)
        wait = POLL_S
        if index < len(requests):
            wait = min(wait, max(0.0, start + requests[index].due - clock()))
        if wait > 0:
            time.sleep(wait)
    return result


def verify_cold(result: PhaseResult, checker: checks.Checker) -> int:
    """Re-solve sampled cold answers directly (untimed); returns failures."""
    failures = 0
    for request, payload in result.answers:
        report = service.solve(request.spec)
        label = f"serve {request.kind} {request.key[:12]} (direct re-solve)"
        ok = checker.feasible(report.solution, label)
        ok &= checker.same_answer(payload, report.to_jsonable(), label)
        failures += 0 if ok else 1
    return failures


def settle() -> None:
    """Empty the process caches and freeze what set-up left alive.

    The benchmark's reference answers and request plan are long-lived
    objects of its own; frozen out of the collector (``gc.freeze``), they
    no longer lengthen the collections the program's own garbage
    triggers mid-request, which widened the cold tail by a quarter.
    """
    service.clear_caches()
    gc.collect()
    gc.freeze()


def start_app(store_dir: Path) -> ServeApp:
    return ServeApp(ServeConfig(store=store_dir, inline_workers=1))


def latency_metrics(result: PhaseResult) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Latency metrics in seconds, and the tail percentile of each kind."""
    lat = result.latencies
    tails = {kind: tail_percentile(len(lat[kind])) for kind in ("cold", "warm")}
    metrics = {
        "cold_s": percentile(lat["cold"], 50.0) / 1000.0,
        "cold_tail_s": percentile(lat["cold"], tails["cold"]) / 1000.0,
        "warm_s": percentile(lat["warm"], 50.0) / 1000.0,
        "warm_tail_s": percentile(lat["warm"], tails["warm"]) / 1000.0,
    }
    return metrics, tails


def run(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    trace_path: Path,
    checker: checks.Checker,
) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """Returns (metrics, attempted, failed, detail)."""
    plan = Plan(workload, seed, seconds)
    store_dir = work_dir / "store"
    refs = presolve(plan, store_dir, checker)
    requests = plan.stream()

    if trace:
        metrics, attempted, failed = traced_run(
            workload, requests, refs, store_dir, work_dir, trace_path, checker
        )
        return metrics, attempted, failed, {}

    settle()
    app = start_app(store_dir)
    # Entry-point wrappers only (one call per worker solve), to time the
    # worker's busy spells for answers_per_s.
    clock = layers.LayerClock()
    try:
        with layers.installed(clock, roots_only=True):
            result = run_phase(app, requests, refs, workload, checker)
    finally:
        app.drain(timeout=workload.timeout_s)
    metrics, tails = latency_metrics(result)
    answered = result.attempted - len(result.refusals)
    serving_s = busy(result, clock)
    metrics["answers_per_s"] = answered / serving_s if serving_s > 0 else 0.0
    failed = len(result.refusals) + result.failed_checks + verify_cold(result, checker)
    detail: Dict[str, Any] = {
        "samples": {k: len(v) for k, v in result.latencies.items()},
        "tail_percentile": tails,
        "heavy_p50_ms": percentile(result.latencies["heavy"], 50.0),
        "late_p50_ms": 1000.0 * percentile(result.late_s, 50.0),
        "serving_s": serving_s,
        "refusals": result.refusals,
    }
    return metrics, result.attempted, failed, detail


def traced_run(
    workload: ServeWorkload,
    requests: List[Request],
    refs: Dict[str, Dict[str, Any]],
    store_dir: Path,
    work_dir: Path,
    trace_path: Path,
    checker: checks.Checker,
) -> Tuple[Dict[str, float], int, int]:
    """The stream untraced, then traced, on copies of one store.

    Each pass gets its own copy of the warm store, so the cold and heavy
    specs are cold both times and the two passes do the same work.
    """
    traced_dir = work_dir / "store-traced"
    shutil.copytree(store_dir, traced_dir)
    plain_clock = layers.LayerClock()
    clock = layers.LayerClock(Tracer(process_name="e2ebench serve_mix"))
    passes = []
    attempted = failed = 0
    for directory, pass_clock, roots_only in (
        (store_dir, plain_clock, True),
        (traced_dir, clock, False),
    ):
        settle()
        app = start_app(directory)
        try:
            with layers.installed(pass_clock, roots_only=roots_only):
                result = run_phase(app, requests, refs, workload, checker)
        finally:
            app.drain(timeout=workload.timeout_s)
        passes.append(result)
        attempted += result.attempted
        failed += len(result.refusals) + result.failed_checks + verify_cold(result, checker)
    plain, traced = passes
    # Traced-run fidelity: the sampled cold answers match across passes.
    for (request, payload), (_, again) in zip(plain.answers, traced.answers):
        checker.repeatable(payload, again, f"serve {request.key[:12]} traced vs untraced")
    clock.tracer.save(trace_path)
    metrics = layers.layer_metrics(clock, traced.counters)
    cold_keys = [key for key in traced.submitted_at if key in clock.worker_runs]
    waits = [
        (clock.worker_runs[key][0] - traced.submitted_at[key]) * 1000.0
        for key in cold_keys
    ]
    runs = [clock.worker_runs[key][1] * 1000.0 for key in cold_keys]
    self_s, _, _ = clock.totals()
    metrics.update(
        {
            "serve.submit_s": self_s.get("serve.submit", 0.0),
            "serve.report_s": self_s.get("serve.report", 0.0),
            "serve.queue_wait_ms": float(np.mean(waits)) if waits else 0.0,
            "serve.run_ms": float(np.mean(runs)) if runs else 0.0,
            "serve.shed": len(traced.refusals),
            "serve.late_ms": 1000.0 * float(np.mean(traced.late_s)),
            "obs.trace_overhead_pct": 100.0
            * (busy(traced, clock) / busy(plain, plain_clock) - 1.0),
        }
    )
    return metrics, attempted, failed


def busy(result: PhaseResult, clock: layers.LayerClock) -> float:
    """Seconds the app spent serving: generator time inside submit and
    report, plus the worker's solves."""
    return result.busy_s + sum(elapsed for _, elapsed in clock.worker_runs.values())
