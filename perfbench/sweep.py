"""One pass of a workload in a fresh process (the benchmark's child).

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --workload sweep-quick --seed 0 \\
        --mode pass --spawned-at <time.monotonic() of the parent>

Modes:

* ``setup`` — import ``repro``, build the registry, the ``Engine`` and
  the plan, then stop where the first point would start;
* ``pass`` — run every point of the plan serially through
  ``Engine(workers=1, cache=None)``, one point at a time, each starting
  when the previous one ends, and check each point's rows against the
  golden digest;
* ``traced`` — a ``pass`` with the span tracer installed; it also writes
  the Chrome trace to ``--trace-out``.

The last line of standard output is one JSON object with the pass's
timings (``setup_s`` counts from ``--spawned-at``, taken by the parent
just before it started this process), the per-point outcomes and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def run_pass(engine, items, golden, tracer=None):
    """Run *items* in order; returns (wall seconds, per-point records)."""
    records = []
    started = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.begin_point(item.key)
        t0 = time.perf_counter()
        result = engine.run(item.experiment, quick=item.quick, only=item.only)
        elapsed = time.perf_counter() - t0
        records.append({"item": item, "result": result, "wall_s": elapsed,
                        "sim": tracer.end_point() if tracer else None})
    wall = time.perf_counter() - started

    for record in records:
        item, result = record.pop("item"), record.pop("result")
        record["key"] = item.key
        if len(result.points) != 1:
            record["error"] = f"plan item selected {len(result.points)} points"
        elif not result.points[0].ok:
            record["error"] = result.points[0].error
        else:
            record["sha256"] = workloads.row_digest(result.points[0].rows)
            if record["sha256"] != golden.get(item.key):
                record["error"] = "rows differ from the golden digest"
        if result.points:
            record["sim_time_ns"] = result.points[0].sim_time_ns
            if item.experiment == "apps":
                record["rows"] = result.points[0].rows
    return wall, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.exp import Engine

    engine = Engine(workers=1, cache=None)
    items = workloads.plan(args.workload, args.seed)
    golden = workloads.load_golden()
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer().install()
        wall, records = run_pass(engine, items, golden, tracer)
        out.update(wall_s=wall, points=records)
        if tracer is not None:
            tracer.uninstall()
            out["metrics"] = tracer.metrics()
            if args.trace_out:
                out["trace_events"] = tracer.write_chrome_trace(
                    args.trace_out, f"repro {args.workload} seed {args.seed}"
                )
    out["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
