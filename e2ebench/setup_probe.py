"""One fresh-interpreter set-up, timed by ``run.py`` from spawn to "ready".

Imports the ``repro`` layers, runs one tiny warm-up solve per solver
with the workload's routing, opens a report store and, for serve_mix,
starts (and then stops) a ``ServeApp``.  Prints ``ready`` when done.

Usage: python3 e2ebench/setup_probe.py <workload> <store-dir>
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import service  # noqa: E402
from repro.serve import ServeApp, ServeConfig  # noqa: E402
from repro.store import ReportStore  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tables import Instance  # noqa: E402

#: The warm-up instance: paper_flat n=8 with two small sessions, solved
#: at a loose ratio, so set-up pays each solver's first-call costs only.
WARM_UP = Instance(8, ((0, 3, 5), (1, 6)))
WARM_UP_RATIO = 0.3


def main(workload: str, store_dir: str) -> None:
    routing = "dynamic" if workload == "solve_dynamic" else "ip"
    for solver, params in (
        ("max_flow", {"approximation_ratio": WARM_UP_RATIO}),
        ("max_concurrent_flow", {"approximation_ratio": WARM_UP_RATIO}),
        ("randomized_rounding", {"approximation_ratio": WARM_UP_RATIO, "seed": 1}),
        ("online", {"sigma": 10.0}),
    ):
        service.solve(WARM_UP.spec(routing, solver, params))
    store = ReportStore(store_dir)
    if workload == "serve_mix":
        ServeApp(ServeConfig(store=store, inline_workers=1)).close()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
