"""End-to-end solve and serve benchmark (see README.md beside this file).

Usage, from the repository root:

    python3 e2ebench/run.py --workload solve_ip --seed 1 --seconds 30 --trace 0

Prints provenance and per-solver detail lines, then, as the last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (and writes its Chrome trace under
``.bench_out/traces/``).  Exits non-zero without a result line when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Environment knobs pinned to their defaults (unset) for this process
#: and every process it starts.
PINNED_ENV = ("REPRO_JOBS", "REPRO_KERNELS", "REPRO_FAULTS", "REPRO_STORE", "REPRO_METRICS")

WORKLOADS = ("solve_ip", "solve_dynamic", "serve_mix")
SETUP_PROBES = {"full": 5, "tiny": 1}

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cold_s": "s",
    "cold_tail_s": "s",
    "warm_s": "s",
    "warm_tail_s": "s",
    "answers_per_s": "1/s",
}

PER_LAYER: Dict[str, str] = {
    "api.build_instance_s": "s",
    "api.report_encode_s": "s",
    "api.report_decode_s": "s",
    "api.report_bytes": "bytes",
    "engine.step_self_s": "s",
    "engine.steps": "count",
    "engine.front_query_s": "s",
    "engine.ledger_s": "s",
    "overlay.oracle_s": "s",
    "overlay.oracle_calls": "count",
    "overlay.mst_s": "s",
    "overlay.new_tree_share": "ratio",
    "routing.dijkstra_s": "s",
    "routing.dijkstra_calls": "count",
    "core.length_update_s": "s",
    "core.length_updates": "count",
    "core.rounding_s": "s",
    "core.post_s": "s",
    "core.trees_per_session": "count",
    "core.opt_ratio": "ratio",
    "store.put_s": "s",
    "store.put_bytes": "bytes",
    "store.get_s": "s",
    "store.hit_ratio": "ratio",
    "serve.submit_s": "s",
    "serve.report_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms",
    "serve.shed": "count",
    "serve.late_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "obs.unattributed_s": "s",
    "obs.coverage_pct": "%",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs toy instances, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def measure_setup(workload: str, probes: int, work_dir: Path, env: Dict[str, str]) -> float:
    """Median spawn-to-ready time of fresh set-up processes."""
    times = []
    for index in range(probes):
        store_dir = work_dir / f"setup-store-{index}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(store_dir)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        times.append(ready)
    return statistics.median(times)


def provenance(args: argparse.Namespace) -> Dict[str, object]:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "pinned_env": {name: os.environ.get(name, "unset (default)") for name in PINNED_ENV},
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import checks
    import serve_phase
    import solve_phase
    import tables

    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    checker = checks.Checker()
    detail: Dict[str, object] = {}
    try:
        if args.trace:
            setup_s = None
        else:
            setup_s = measure_setup(
                args.workload, SETUP_PROBES[args.scale], work_dir, dict(os.environ)
            )
        if args.workload == "serve_mix":
            values, attempted, failed, detail = serve_phase.run(
                tables.SERVE_WORKLOADS[args.scale],
                args.seed,
                args.seconds,
                bool(args.trace),
                work_dir,
                trace_path,
                checker,
            )
        else:
            values, tally, detail = solve_phase.run(
                tables.SOLVE_WORKLOADS[args.scale][args.workload],
                args.seed,
                args.seconds,
                bool(args.trace),
                work_dir,
                trace_path,
                checker,
            )
            attempted, failed = tally.attempted, tally.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if setup_s is not None:
        values["setup_s"] = setup_s
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps({"detail": detail, "checks": checker.checks, "failures": checker.failures[:20]}))
    if args.trace:
        print(json.dumps({"trace_file": str(trace_path.relative_to(ROOT))}))
    print(
        json.dumps(
            {
                "correct": checker.ok,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
