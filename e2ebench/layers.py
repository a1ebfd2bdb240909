"""Per-layer timing through wrappers installed from the benchmark.

Nothing under ``src/`` changes: :func:`installed` replaces, for the
duration of a traced pass, the attribute each caller looks up (a module
global such as ``repro.overlay.oracle.minimum_spanning_tree_pairs``, or
a class attribute such as ``PhaseEngine.step``) with a timing wrapper,
and restores the original afterwards.

Each wrapper charges its call to a layer and keeps a per-thread stack,
so a layer's *self* time excludes the time of wrapped calls nested
inside it.  Calls nobody else wraps (the outermost ``solve``) are roots:
their self time is the unattributed remainder.  Coarse layers also open
a span on the program's own :mod:`repro.obs.tracing` tracer, so one
Chrome trace holds both the program's spans (``solve``,
``build_instance``, ``engine.step``, ``oracle_round``) and the
benchmark's layer spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.tracing import Tracer, maybe_span

ROOT = "root"

#: (layer, owner, attribute, span?).  ``owner`` is a module path (patch the
#: module global the caller looks up) or "module:Class" (patch the class
#: attribute).  Fine-grained layers run tens of thousands of times per
#: solve, so they are timed without spans.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    (ROOT, "repro.api.service", "solve", False),
    (ROOT, "repro.serve.app", "solve", False),
    ("api.build_instance", "repro.api.service", "build_instance", True),
    ("api.report_encode", "repro.api.service:SolveReport", "to_jsonable", True),
    ("api.report_decode", "repro.api.service:SolveReport", "from_jsonable", True),
    ("core.post", "repro.api.service", "solve_instance", True),
    ("core.rounding", "repro.core.rounding:RandomMinCongestion", "select_trees", True),
    ("core.length_update", "repro.core.lengths:LengthFunction", "multiply_batch", False),
    ("core.length_update", "repro.core.lengths:LengthFunction", "multiply", False),
    ("engine.step", "repro.core.engine.driver:PhaseEngine", "step", False),
    ("engine.front_query", "repro.core.engine.batch:BatchedOracleFront", "query", False),
    ("engine.ledger", "repro.core.engine.ledger:TreeLedger", "register", False),
    ("engine.ledger", "repro.core.engine.ledger:TreeLedger", "lengths_for", False),
    ("engine.ledger", "repro.core.engine.ledger:TreeLedger", "edge_values", False),
    ("overlay.oracle", "repro.overlay.oracle:MinimumOverlayTreeOracle", "minimum_tree", False),
    ("overlay.oracle", "repro.overlay.oracle:MinimumOverlayTreeOracle", "select_tree", False),
    (
        "overlay.oracle",
        "repro.overlay.oracle:MinimumOverlayTreeOracle",
        "select_tree_from_query",
        False,
    ),
    (
        "overlay.oracle",
        "repro.overlay.oracle:MinimumOverlayTreeOracle",
        "minimum_tree_from_query",
        False,
    ),
    (
        "overlay.oracle",
        "repro.overlay.oracle:MinimumOverlayTreeOracle",
        "select_tree_precomputed",
        False,
    ),
    (
        "overlay.oracle",
        "repro.overlay.oracle:MinimumOverlayTreeOracle",
        "minimum_tree_precomputed",
        False,
    ),
    ("overlay.mst", "repro.overlay.oracle", "minimum_spanning_tree_pairs", False),
    ("routing.dijkstra", "repro.routing.shortest_path", "shortest_path_tree", False),
    ("routing.dijkstra", "repro.routing.dynamic", "shortest_path_tree", False),
    ("routing.dijkstra", "repro.routing.ip_routing", "shortest_path_tree", False),
    ("store.put", "repro.store.report_store:ReportStore", "put", True),
    ("store.get", "repro.store.report_store:ReportStore", "get", True),
    ("serve.submit", "repro.serve.app:ServeApp", "submit", True),
    ("serve.report", "repro.serve.app:ServeApp", "report", True),
)


class _ThreadTally:
    """One thread's accumulators (merged when the pass ends)."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []  # [layer, child_seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.root_s = 0.0


class LayerClock:
    """Self time and outermost-call counts per layer, across threads."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[_ThreadTally] = []
        # Extra facts recorded by wrappers (bytes written, hits, ...).
        self.facts: Dict[str, float] = defaultdict(float)
        self.worker_runs: Dict[str, Tuple[float, float]] = {}

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _ThreadTally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def add_fact(self, name: str, value: float) -> None:
        with self._lock:
            self.facts[name] += value

    def timed(self, layer: str, fn: Callable, span: bool) -> Callable:
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally = clock._tally()
            stack = tally.stack
            nested_same = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                if span:
                    with maybe_span(f"bench.{layer}"):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tally.self_s[layer] += elapsed - frame[1]
                if not nested_same:
                    tally.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tally.root_s += elapsed
            clock._observe(layer, args, result, start, elapsed)
            return result

        return wrapper

    def _observe(self, layer: str, args, result, start: float, elapsed: float) -> None:
        """Layer-specific facts taken from a call's arguments or result."""
        if layer == "store.put" and result is not None:
            self.add_fact("store.put_bytes", float(os.path.getsize(result)))
        elif layer == "store.get":
            self.add_fact("store.hits", 1.0 if result is not None else 0.0)
        elif layer == ROOT and args and hasattr(args[0], "canonical_key"):
            # Serve worker runs: when each key's solve started and how long
            # it ran (the queue wait is measured against the submit time).
            with self._lock:
                self.worker_runs[args[0].canonical_key] = (start, elapsed)

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Merged (self seconds, outermost calls, root seconds)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        root_s = 0.0
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for layer, value in tally.self_s.items():
                self_s[layer] += value
            for layer, value in tally.calls.items():
                calls[layer] += value
            root_s += tally.root_s
        return dict(self_s), dict(calls), root_s


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextlib.contextmanager
def installed(clock: LayerClock, roots_only: bool = False) -> Iterator[LayerClock]:
    """Install the wrappers in :data:`TARGETS`; restore on exit.

    ``roots_only`` installs just the entry-point wrappers, which cost one
    wrapper call per solve: untraced serve_mix passes use them to time the
    worker's solves.  The tracer (if any) is activated on this thread for
    the duration, and on serve worker threads around each worker solve,
    because the program's tracer is thread-local.
    """
    saved = []
    try:
        for layer, owner, attribute, span in TARGETS:
            if roots_only and layer != ROOT:
                continue
            target = _resolve(owner)
            raw = target.__dict__[attribute] if isinstance(target, type) else getattr(
                target, attribute
            )
            saved.append((target, attribute, raw))
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(clock.timed(layer, raw.__func__, span))
            else:
                fn = clock.timed(layer, raw, span)
                if owner == "repro.serve.app" and clock.tracer is not None:
                    fn = _traced_in_thread(clock.tracer, fn)
                replacement = fn
            setattr(target, attribute, replacement)
        if clock.tracer is not None:
            with clock.tracer.activate():
                yield clock
        else:
            yield clock
    finally:
        for target, attribute, raw in reversed(saved):
            setattr(target, attribute, raw)


def _traced_in_thread(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.activate():
            return fn(*args, **kwargs)

    return wrapper


def layer_metrics(clock: LayerClock, reports: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``reports`` are the JSON forms of the pass's cold answers; counters
    the program itself keeps (oracle calls, ledger columns) come from
    them, timings and call counts from the wrappers.
    """
    self_s, calls, root_s = clock.totals()
    attributed = sum(v for k, v in self_s.items() if k != ROOT)
    oracle_calls = sum(int(r["oracle_calls"]) for r in reports)
    instr = [r["instrumentation"] for r in reports if r.get("instrumentation")]
    queries = sum(int(i.get("oracle_queries", 0)) for i in instr)
    columns = sum(int(i.get("ledger_columns", 0)) for i in instr)
    puts = calls.get("store.put", 0)
    gets = calls.get("store.get", 0)
    trees = [s["num_trees"] for r in reports for s in r["sessions"]]
    get = self_s.get
    return {
        "api.build_instance_s": get("api.build_instance", 0.0),
        "api.report_encode_s": get("api.report_encode", 0.0),
        "api.report_decode_s": get("api.report_decode", 0.0),
        "api.report_bytes": clock.facts.get("store.put_bytes", 0.0) / puts if puts else 0.0,
        "engine.step_self_s": get("engine.step", 0.0),
        "engine.steps": calls.get("engine.step", 0),
        "engine.front_query_s": get("engine.front_query", 0.0),
        "engine.ledger_s": get("engine.ledger", 0.0),
        "overlay.oracle_s": get("overlay.oracle", 0.0),
        "overlay.oracle_calls": oracle_calls,
        "overlay.mst_s": get("overlay.mst", 0.0),
        "overlay.new_tree_share": columns / queries if queries else 0.0,
        "routing.dijkstra_s": get("routing.dijkstra", 0.0),
        "routing.dijkstra_calls": calls.get("routing.dijkstra", 0),
        "core.length_update_s": get("core.length_update", 0.0),
        "core.length_updates": calls.get("core.length_update", 0),
        "core.rounding_s": get("core.rounding", 0.0),
        "core.post_s": get("core.post", 0.0),
        "core.trees_per_session": sum(trees) / len(trees) if trees else 0.0,
        "store.put_s": get("store.put", 0.0),
        "store.put_bytes": clock.facts.get("store.put_bytes", 0.0),
        "store.get_s": get("store.get", 0.0),
        "store.hit_ratio": clock.facts.get("store.hits", 0.0) / gets if gets else 0.0,
        "obs.unattributed_s": get(ROOT, 0.0),
        "obs.coverage_pct": 100.0 * attributed / root_s if root_s else 0.0,
    }
