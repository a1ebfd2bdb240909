"""Fixed instance tables and spec builders for every workload.

Topologies, session sizes and member placements are constants here, so
every run of a workload solves the same instances.  The run's ``--seed``
only draws inputs that barely change the cost: the rounding seed, the
online arrival orders, which warm key a serve request reads, and the
serve arrival times (see ``serve_phase``).

Two scales exist: ``full`` is what BENCHMARK.json runs; ``tiny`` is the
same shape on toy instances, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.specs import (
    ArrivalSpec,
    ScenarioSpec,
    SessionSpec,
    TopologySpec,
    WorkloadSpec,
)

TOPOLOGY_SEED = 2004
DEMAND = 100.0

#: paper_flat n=100: four sessions of sizes [6, 5, 4, 4].  Capped at six
#: members so that ``repro.lp.exact`` can enumerate every tree.
IP_100 = (
    (73, 49, 93, 44, 14, 3),
    (26, 99, 40, 81, 25),
    (73, 82, 83, 53),
    (99, 76, 30, 12),
)

#: paper_flat n=40: two sessions of sizes [4, 3].
DYN_40 = ((29, 19, 38, 17), (9, 36, 12))

#: paper_flat n=40, another placement: the serve workload's MaxFlow specs.
HEAVY_40 = ((11, 30, 4, 9), (3, 13, 24))

#: paper_flat n=16: toy placements for the tiny scale.
TINY_16 = ((7, 6, 12), (12, 15, 2))
TINY_16_HEAVY = ((3, 1, 11), (11, 1, 6))


@dataclass(frozen=True)
class Instance:
    """One fixed problem instance: topology size plus member placement."""

    num_nodes: int
    members: Tuple[Tuple[int, ...], ...]

    def spec(
        self,
        routing: str,
        solver: str,
        params: Optional[Dict] = None,
        arrivals: Optional[ArrivalSpec] = None,
    ) -> ScenarioSpec:
        sessions = tuple(
            SessionSpec(members=m, demand=DEMAND, name=f"session-{i + 1}")
            for i, m in enumerate(self.members)
        )
        return ScenarioSpec(
            topology=TopologySpec(
                "paper_flat", {"num_nodes": self.num_nodes}, seed=TOPOLOGY_SEED
            ),
            workload=WorkloadSpec(sessions=sessions),
            routing=routing,
            solver=solver,
            solver_params=dict(params or {}),
            arrivals=arrivals,
        )


@dataclass(frozen=True)
class SolveWorkload:
    """A solve workload: one instance, one routing, four solver specs."""

    name: str
    instance: Instance
    routing: str
    maxflow_ratio: float
    mcf_ratio: float
    rounding_ratio: float
    online_replication: int

    def specs(self, rounding_seed: int, arrival_seed: int) -> Dict[str, ScenarioSpec]:
        """The four solver specs of one run, keyed by end-to-end metric."""
        inst, routing = self.instance, self.routing
        return {
            "maxflow_s": inst.spec(
                routing, "max_flow", {"approximation_ratio": self.maxflow_ratio}
            ),
            "mcf_s": inst.spec(
                routing,
                "max_concurrent_flow",
                {"approximation_ratio": self.mcf_ratio},
            ),
            "rounding_s": inst.spec(
                routing,
                "randomized_rounding",
                {"approximation_ratio": self.rounding_ratio, "seed": rounding_seed},
            ),
            "online_s": inst.spec(
                routing,
                "online",
                {"sigma": 10.0},
                ArrivalSpec(replication=self.online_replication, seed=arrival_seed),
            ),
        }

    def ratios(self) -> Dict[str, float]:
        """Approximation ratio guaranteed for each ``lp.exact``-checked spec."""
        return {"maxflow_s": self.maxflow_ratio, "mcf_s": self.mcf_ratio}


@dataclass(frozen=True)
class ServeWorkload:
    """The serve_mix stream: key tables and the slot cycle.

    Requests follow ``cycle``, one character per slot and one slot every
    ``1 / slot_rate`` seconds: ``W`` a warm read of an online key, ``M``
    a warm read of a MaxFlow key, ``C`` a cold online spec, ``H`` a heavy
    cold MaxFlow spec, ``.`` an empty slot.  Every cold spec of a kind
    shares one instance and differs only in its arrival order, so each
    cold request is a real solve of the same cost.  Arrival seeds
    ``1..K`` name the keys pre-solved during set-up.
    """

    online: Instance  # warm and cold online specs
    online_replication: int
    heavy: Instance  # warm MaxFlow keys and heavy cold specs
    heavy_ratio: float
    cycle: str
    slot_rate: float  # slots per second
    jitter: float  # arrival jitter, as a share of a slot
    reads_per_key: int  # warm reads of each online key in a run
    timeout_s: float  # a request still unanswered after this is failed

    def online_spec(self, arrival_seed: int) -> ScenarioSpec:
        return self.online.spec(
            "ip",
            "online",
            {"sigma": 10.0},
            ArrivalSpec(replication=self.online_replication, seed=arrival_seed),
        )

    def heavy_spec(self, arrival_seed: int) -> ScenarioSpec:
        return self.heavy.spec(
            "dynamic",
            "max_flow",
            {"approximation_ratio": self.heavy_ratio},
            ArrivalSpec(seed=arrival_seed),
        )

    def cycles(self, seconds: float) -> int:
        """Whole cycles that fit in a ``seconds``-long run."""
        return max(1, int(seconds * self.slot_rate // len(self.cycle)))

    def warm_keys(self, seconds: float) -> Tuple[int, int]:
        """(online, MaxFlow) keys pre-solved for a ``seconds``-long run.

        Each online key is read ``reads_per_key`` times and each MaxFlow
        key twice, so the share of reads that miss the store's memory
        front (first reads) is fixed and does not depend on the seed.
        """
        cycles = self.cycles(seconds)
        online_reads = cycles * self.cycle.count("W")
        heavy_reads = cycles * self.cycle.count("M")
        return -(-online_reads // self.reads_per_key), -(-heavy_reads // 2)

    def warm_specs(self, seconds: float) -> Tuple[List[ScenarioSpec], List[ScenarioSpec]]:
        """(online, MaxFlow) keys pre-solved during set-up."""
        online, heavy = self.warm_keys(seconds)
        return (
            [self.online_spec(k + 1) for k in range(online)],
            [self.heavy_spec(k + 1) for k in range(heavy)],
        )


SOLVE_WORKLOADS: Dict[str, Dict[str, SolveWorkload]] = {
    "full": {
        "solve_ip": SolveWorkload(
            "solve_ip", Instance(100, IP_100), "ip", 0.9, 0.8, 0.8, 500
        ),
        "solve_dynamic": SolveWorkload(
            "solve_dynamic", Instance(40, DYN_40), "dynamic", 0.8, 0.6, 0.6, 250
        ),
    },
    "tiny": {
        "solve_ip": SolveWorkload(
            "solve_ip", Instance(16, TINY_16), "ip", 0.8, 0.7, 0.7, 10
        ),
        "solve_dynamic": SolveWorkload(
            "solve_dynamic", Instance(16, TINY_16), "dynamic", 0.7, 0.6, 0.6, 10
        ),
    },
}

#: serve_mix traffic.  The basis for each constant (measured with one
#: inline worker on a shared 2-core VM; README "serve_mix in detail"):
#: a cold online request costs the worker ~40 ms, a heavy one ~150 ms, a
#: warm read ~16 ms from disk and ~3 ms from the memory front.  The
#: 22-slot cycle holds 20 requests: 11 warm (55%, mostly warm), 8 cold,
#: 1 heavy, then two empty slots so the heavy solve ends before the next
#: warm read.  At 8 slots/s (7.3 requests/s) the worker is busy ~17% of
#: the time and the whole cycle needs ~0.55 s of a 2.75 s cycle (~20% of
#: capacity), so latency reflects service time, not queue build-up.
#: At --seconds 30 a run holds 10 cycles: 110 warm, 80 cold, 10 heavy.
SERVE_WORKLOADS: Dict[str, ServeWorkload] = {
    "full": ServeWorkload(
        online=Instance(100, IP_100),
        online_replication=25,
        heavy=Instance(40, HEAVY_40),
        heavy_ratio=0.4,
        cycle="WWWWWMWWWWWCCCCCCCCH..",
        slot_rate=8.0,
        jitter=0.5,
        reads_per_key=3,
        timeout_s=30.0,
    ),
    "tiny": ServeWorkload(
        online=Instance(16, TINY_16),
        online_replication=5,
        heavy=Instance(16, TINY_16_HEAVY),
        heavy_ratio=0.6,
        cycle="WWMWCCH.",
        slot_rate=20.0,
        jitter=0.5,
        reads_per_key=3,
        timeout_s=30.0,
    ),
}
