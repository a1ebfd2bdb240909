"""Correctness checks, each backed by a guarantee the program has.

* Every answer is feasible (``FlowSolution.is_feasible()``).
* Fixed-IP MaxFlow / MaxConcurrentFlow answers lie within
  ``[r * exact - TOL, exact + TOL]`` of ``repro.lp.exact`` (Lemma 3:
  MaxFlow >= (1 - 2 eps) OPT; Lemma 5: MaxConcurrentFlow >= (1 - 3 eps)
  OPT; ``r`` is the requested approximation ratio).  MaxFlow uses the
  normalised objective of paper eq. (3), as ``lp.exact`` does.
* Dynamic-routing answers satisfy ``objective >= r * exact_fixedIP - TOL``:
  the dynamic optimum is at least the fixed-IP one.
* Warm store answers and serve answers equal the cold report once the
  fields that legitimately differ (``wall_seconds``, ``cached``,
  ``instrumentation``) are removed.
* Repeated cold solves of one spec give identical digests and counts.

A :class:`Checker` collects failures instead of raising, so one run
reports every broken check and prints ``correct: false``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping

TOL = 1e-6

#: Report fields that differ between equal answers: timing telemetry and
#: which cache layer served the report.
VOLATILE_FIELDS = ("wall_seconds", "cached", "instrumentation")

#: Engine counters compared across repeated cold solves.
COUNT_FIELDS = ("steps", "oracle_queries", "length_updates", "ledger_columns")


def normalised(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A report's JSON form without its volatile fields."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_FIELDS}


def digest(payload: Mapping[str, Any]) -> str:
    """sha256 of the normalised report, canonically encoded."""
    text = json.dumps(normalised(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counts(payload: Mapping[str, Any]) -> Dict[str, int]:
    """The report's deterministic work counters."""
    out = {"oracle_calls": int(payload["oracle_calls"])}
    instr = payload.get("instrumentation") or {}
    for name in COUNT_FIELDS:
        if name in instr:
            out[name] = int(instr[name])
    return out


def objective(solution, solver: str) -> float:
    """The quantity ``lp.exact`` optimises for this solver's problem."""
    if solver == "max_concurrent_flow":
        return float(solution.concurrent_throughput)
    max_size = max(s.session.size for s in solution.sessions)
    return float(
        sum((s.session.size - 1) / (max_size - 1) * s.rate for s in solution.sessions)
    )


class Checker:
    """Accumulates check failures for one run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checks = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def expect(self, condition: bool, message: str) -> bool:
        self.checks += 1
        if not condition:
            self.fail(message)
        return bool(condition)

    def feasible(self, solution, label: str) -> bool:
        return self.expect(solution.is_feasible(), f"{label}: answer is infeasible")

    def within_exact(
        self, value: float, exact: float, ratio: float, label: str
    ) -> bool:
        """Fixed-IP bound: ``ratio * exact - TOL <= value <= exact + TOL``."""
        return self.expect(
            ratio * exact - TOL <= value <= exact + TOL,
            f"{label}: objective {value!r} outside "
            f"[{ratio} * {exact!r}, {exact!r}] of lp.exact",
        )

    def at_least(self, value: float, exact: float, ratio: float, label: str) -> bool:
        """Dynamic bound: ``value >= ratio * exact_fixedIP - TOL``."""
        return self.expect(
            value >= ratio * exact - TOL,
            f"{label}: objective {value!r} below {ratio} * fixed-IP optimum {exact!r}",
        )

    def same_answer(
        self, got: Mapping[str, Any], reference: Mapping[str, Any], label: str
    ) -> bool:
        return self.expect(
            normalised(got) == normalised(reference),
            f"{label}: answer differs from the cold report",
        )

    def repeatable(
        self,
        first: Mapping[str, Any],
        again: Mapping[str, Any],
        label: str,
    ) -> bool:
        """Repeated cold solves: identical digests and counts."""
        return self.expect(
            digest(first) == digest(again) and counts(first) == counts(again),
            f"{label}: repeated cold solve changed the answer or its counts",
        )
