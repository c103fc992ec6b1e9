"""The benchmark's workloads: which grid points run, in which order, and
what their rows must hash to.

A workload is a list of registered experiments run on their full or quick
grids.  Its *plan* is one item per grid point.  At the default seed the
plan follows the registry order, as ``repro run --all`` does; for the
full workloads any other seed shuffles the points with
``random.Random(seed)``.  The seed reaches the program only through that
order: every point builds its own simulated node and seeds its own
generators, so its rows do not depend on it and are checked against the
same golden digest at every seed.

``sweep-quick`` keeps the registry order at every seed.  Its peak memory
is set by glibc's heap history: the same points in another order peak
anywhere from 184 to 206 MiB, so a shuffled order would make
``peak_rss_mib`` a property of the seed rather than of the code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

DEFAULT_SEED = 0

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: workload -> (quick grids?, experiments, shuffled by the seed?);
#: ``None`` experiments means the whole registry.
WORKLOADS: Dict[str, Tuple[bool, Tuple[str, ...] | None, bool]] = {
    "rodinia-full": (False, ("apps",), True),
    "placement-full": (False, ("fig2", "fig3", "fig9", "fig10"), True),
    "sweep-quick": (True, None, False),
}

#: Fig. 11 unified/explicit ratios the paper states as numbers
#: (app, variant, column) -> value.  Every other ratio has none.
PAPER_FIG11 = {
    ("backprop", "unified", "total_time_ratio"): 0.81,
    ("backprop", "unified", "compute_time_ratio"): 0.65,
    ("dwt2d", "unified", "compute_time_ratio"): 0.14,
    ("heartwall", "unified-v1", "total_time_ratio"): 1.18,
}


@dataclass(frozen=True)
class PlanItem:
    """One grid point: what to pass to ``Engine.run`` and its golden key."""

    experiment: str
    quick: bool
    only: Dict[str, Any]
    key: str


def plan(workload: str, seed: int = DEFAULT_SEED) -> List[PlanItem]:
    """The workload's points, in the order the seed gives them."""
    from repro.exp import experiment_names, get_spec

    quick, names, shuffled = WORKLOADS[workload]
    grid = "quick" if quick else "full"
    items = []
    for name in names or experiment_names():
        spec = get_spec(name)
        axes = spec.axes(quick)
        for point in spec.points(quick):
            only = {axis: point.params[axis] for axis in axes}
            items.append(
                PlanItem(name, quick, only, f"{name}/{grid}/{point.index}")
            )
    if shuffled and seed != DEFAULT_SEED:
        random.Random(seed).shuffle(items)
    return items


def row_digest(rows: List[List[Any]]) -> str:
    """sha256 of a point's rows in canonical JSON."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> Dict[str, str]:
    """Golden key -> row digest, as committed beside this module."""
    return {
        key: entry["sha256"]
        for key, entry in json.loads(GOLDEN_PATH.read_text()).items()
    }


def fig11_accuracy(rows: List[List[Any]]) -> List[Tuple[str, str, str, float, Any, Any]]:
    """Fig. 11 ratios next to the paper's numbers, with relative error.

    *rows* are ``apps`` rows (app, variant, total, compute, memory).
    Returns (app, variant, column, simulated, paper or None, error or None).
    """
    columns = ("total_time_ratio", "compute_time_ratio")
    out = []
    for app, variant, total, compute, _memory in rows:
        for column, value in zip(columns, (total, compute)):
            paper = PAPER_FIG11.get((app, variant, column))
            error = None if paper is None else (value - paper) / paper
            out.append((app, variant, column, value, paper, error))
    return out
