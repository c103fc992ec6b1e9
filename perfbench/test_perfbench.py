"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sweep import run_pass  # noqa: E402


@pytest.fixture(scope="module")
def engine():
    from repro.exp import Engine

    return Engine(workers=1, cache=None)


def test_plan_is_golden_and_seed_only_reorders():
    golden = workloads.load_golden()
    for name, (_, _, shuffled) in workloads.WORKLOADS.items():
        default = workloads.plan(name)
        seeded = workloads.plan(name, seed=7)
        assert {item.key for item in default} <= set(golden)
        assert len({item.key for item in default}) == len(default)
        assert sorted(i.key for i in seeded) == sorted(i.key for i in default)
        assert workloads.plan(name, seed=7) == seeded
        assert (seeded != default) == shuffled
    assert len(workloads.plan("sweep-quick")) == 58
    assert len(workloads.plan("placement-full")) == 43


def test_changed_row_counts_as_failure(engine):
    from repro.exp import get_spec, temporarily_registered

    spec = get_spec("table1")

    def tampered(xnack):
        rows = spec.runner(xnack)
        if xnack:
            rows[0][-1] = "changed"
        return rows

    items = workloads.plan("sweep-quick")
    items = [item for item in items if item.experiment == "table1"]
    golden = workloads.load_golden()
    _, clean = run_pass(engine, items, golden)
    assert run.failures([{"points": clean}]) == []
    with temporarily_registered(dataclasses.replace(spec, runner=tampered)):
        _, records = run_pass(engine, items, golden)
    failed = run.failures([{"points": records}])
    assert [key for key, _ in failed] == ["table1/quick/1"]
    assert "golden digest" in failed[0][1]


@pytest.fixture(scope="module")
def traced_quick(engine):
    """sweep-quick, traced and under cProfile at the same time."""
    tracer = tracing.Tracer().install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        _, records = run_pass(
            engine, workloads.plan("sweep-quick"), workloads.load_golden(),
            tracer,
        )
        profile.disable()
    finally:
        tracer.uninstall()
    return tracer, records, pstats.Stats(profile).stats


def test_span_counts_match_cprofile(traced_quick):
    tracer, records, stats = traced_quick
    assert all("error" not in record for record in records)

    def profiled_calls(function):
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        return stats[key][1] if key in stats else 0

    for name, originals in tracer.originals.items():
        expected = sum(profiled_calls(fn) for fn in originals)
        if name == "hw.clock.advance":
            assert tracer.advance_calls == expected, name
        else:
            assert tracer.stats[name][0] == expected, name
    # sweep-quick reaches every layer the tracer wraps.
    assert all(stat[0] > 0 for stat in tracer.stats.values())


def test_simulated_time_loses_nothing(traced_quick):
    _, records, _ = traced_quick
    reported = 0
    for record in records:
        measured, gap = record["sim"]
        assert gap <= run.SIM_TOLERANCE, record["key"]
        if record["sim_time_ns"]:
            reported += 1
            assert measured == pytest.approx(
                record["sim_time_ns"], rel=run.SIM_TOLERANCE
            ), record["key"]
    assert reported == 7  # six Rodinia ports and the UVM comparison


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (_, unit)
                in tracing.Tracer().metrics().items()}
    reported["trace.overhead_s"] = "s"
    assert per_layer == reported
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mib", "slowest_point_s",
    }


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""
