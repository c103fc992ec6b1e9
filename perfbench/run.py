"""The simulator's benchmark: serial sweeps timed from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``rodinia-full``, ``placement-full``
and ``sweep-quick``.  Each grid point runs through the public
``repro.exp`` API in one process with ``workers=1`` and no result cache,
and its rows are checked against ``golden.json``.  Every pass runs in a
fresh child process (``sweep.py``), so peak memory is the workload's own.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass),
``setup_s`` (process start to the first point), ``peak_rss_mib`` and
``slowest_point_s`` (the largest per-point median).  A run always makes
one full pass, then repeats passes while another fits in ``--seconds``,
and reports medians over passes; it also starts extra set-up-only
children so ``setup_s`` is a median of several.

``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics of ``tracer.py`` plus ``trace.overhead_s`` (traced
minus untraced ``wall_s``).  The spans go to
``.perfbench/trace-<workload>.json`` (Chrome trace-event format; open it
in Perfetto).

The last line of standard output is the JSON result; tables for people
come before it.  Without the program's sources under ``src/repro`` the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import CAUSES  # noqa: E402
from workloads import WORKLOADS, fig11_accuracy  # noqa: E402

#: Set-up-only children started per run, besides one per pass.
SETUP_SAMPLES = 4

#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Largest relative gap allowed between traced and reported simulated time.
SIM_TOLERANCE = 1e-9

TRACE_DIR = ".perfbench"


class ChildError(RuntimeError):
    """A child process failed or overran the run's budget."""


def spawn(root: Path, workload: str, seed: int, mode: str, deadline: float,
          trace_out: str | None = None) -> dict:
    """Run one ``sweep.py`` child; returns its JSON result."""
    env = dict(os.environ)
    # The program asks git for its version; keep git inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    extra = ["--trace-out", trace_out] if trace_out else []
    spawned_at = time.monotonic()
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode,
             "--spawned-at", repr(spawned_at), *extra],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} pass of {workload} overran the budget") from exc
    if child.returncode != 0 or not child.stdout.strip():
        raise ChildError(
            f"{mode} pass of {workload} exited {child.returncode}:\n"
            f"{child.stderr[-4000:]}"
        )
    return json.loads(child.stdout.strip().splitlines()[-1])


def failures(passes: list) -> list:
    """(key, reason) of every failed point across *passes*."""
    out = []
    for result in passes:
        for point in result["points"]:
            if "error" in point:
                out.append((point["key"], point["error"].strip().splitlines()[-1]))
            elif point.get("sim") is not None:
                measured, gap = point["sim"]
                reported = point["sim_time_ns"]
                if gap > SIM_TOLERANCE or (
                    reported
                    and abs(measured - reported) > SIM_TOLERANCE * reported
                ):
                    out.append((point["key"], "traced simulated time "
                                f"{measured!r} ns (gap {gap:g}) does not "
                                f"match the reported {reported!r} ns"))
    return out


def timed_run(root, workload, seed, seconds, deadline) -> tuple:
    def setup_samples(count):
        return [spawn(root, workload, seed, "setup", deadline)["setup_s"]
                for _ in range(count)]

    # Half the set-up samples before the passes and half after, so the
    # median spans the whole run rather than one moment of it.
    setups = setup_samples(SETUP_SAMPLES // 2)
    passes = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(spawn(root, workload, seed, "pass", deadline))
        last = time.monotonic() - t0
        if time.monotonic() - started + last > seconds:
            break
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setups += [p["setup_s"] for p in passes]
    point_times = {}
    for p in passes:
        for point in p["points"]:
            point_times.setdefault(point["key"], []).append(point["wall_s"])
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (max(p["peak_rss_mib"] for p in passes), "MiB"),
        "slowest_point_s": (
            max(statistics.median(times) for times in point_times.values()),
            "s",
        ),
    }
    return metrics, passes


def traced_run(root, workload, seed, deadline) -> tuple:
    untraced = spawn(root, workload, seed, "pass", deadline)
    (root / TRACE_DIR).mkdir(exist_ok=True)
    trace_out = f"{TRACE_DIR}/trace-{workload}.json"
    traced = spawn(root, workload, seed, "traced", deadline, trace_out)
    metrics = {name: tuple(v) for name, v in traced["metrics"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    print(f"chrome trace: {trace_out} ({traced['trace_events']} spans)")
    return metrics, [untraced, traced]


def print_layer_tables(metrics: dict, traced_wall: float) -> None:
    """Self time by span and simulated time by cause, largest first."""
    spans = sorted(
        (name.removesuffix(".calls") for name in metrics
         if name.endswith(".calls") and name != "hw.clock.advance.calls"),
        key=lambda span: -metrics[f"{span}.self_s"][0],
    )
    print(f"  host self time by span (traced pass {traced_wall:.3f} s):")
    for span in spans:
        self_s, calls = metrics[f"{span}.self_s"][0], metrics[f"{span}.calls"][0]
        if calls:
            print(f"    {span:<32}{self_s:>10.3f} s {self_s / traced_wall:>7.1%}"
                  f"{calls:>10} calls")
    total = metrics["sim.total_s"][0]
    print(f"  simulated time by cause ({total:.6g} sim s measured):")
    for cause in CAUSES:
        value = metrics[f"sim.{cause}_s"][0]
        share = f"{value / total:>7.1%}" if total else ""
        print(f"    sim.{cause + '_s':<28}{value:>12.6g} {share}")
    print(f"    {'sim.unmeasured_s':<32}{metrics['sim.unmeasured_s'][0]:>12.6g}"
          "  (outside the program's own totals)")


def print_tables(workload: str, metrics: dict, passes: list,
                 attempted: int, failed: list) -> None:
    print(f"== {workload}: {len(passes)} pass(es), {attempted} points ==")
    if "sim.total_s" in metrics:
        print_layer_tables(metrics, passes[-1]["wall_s"])
        shown = ("trace.overhead_s", "trace.bookkeeping_s")
    else:
        shown = tuple(metrics)
    for name in shown:
        value, unit = metrics[name]
        print(f"  {name:<20}{value:>14.6g} {unit}")
    print(f"  {'error_rate':<20}{len(failed) / attempted:>14.6g} "
          "failed/attempted")
    for key, reason in failed[:20]:
        print(f"  FAILED {key}: {reason}")
    app_rows = [row for point in sorted(passes[-1]["points"],
                                        key=lambda point: point["key"])
                if point["key"].startswith("apps/full/")
                for row in point.get("rows", [])]
    if app_rows:
        print("  Fig. 11 unified/explicit ratios vs the paper "
              "(information only):")
        for app, variant, column, value, paper, error in fig11_accuracy(app_rows):
            stated = ("paper gives no number" if paper is None else
                      f"paper {paper:.2f}  rel. error {error:+.1%}")
            print(f"    {app:<10}{variant:<18}{column:<20}{value:8.3f}  {stated}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {root / 'src' / 'repro'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, passes = traced_run(root, args.workload, args.seed, deadline)
        else:
            metrics, passes = timed_run(
                root, args.workload, args.seed, args.seconds, deadline
            )
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted = sum(len(p["points"]) for p in passes)
    failed = failures(passes)
    print_tables(args.workload, metrics, passes, attempted, failed)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
