"""Shared fixtures for the per-table/figure benchmark harness.

Every module regenerates one table or figure of the paper through the
:mod:`repro.exp` registry — the same specs `repro run` executes — then
asserts the *shape* of the result: orderings, ratios, plateau positions,
against the paper's findings.  Absolute agreement is recorded in
EXPERIMENTS.md.

The engine run for each experiment happens once per session and is
shared between the timing test and the assertion fixtures:

    @pytest.fixture(scope="module")
    def samples(experiment):
        return experiment("fig2")        # list of dict rows

``experiment_rows(name, fresh=True)`` forces a fresh engine run (used
by the pytest-benchmark timing tests) and refreshes the memo, so each
sweep still executes exactly once per session.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import pytest

_RESULTS: Dict[Tuple[str, bool], object] = {}


def run_experiment(name: str, quick: bool = False):
    """One fresh, serial, uncached engine run of a registry experiment.

    Raises with the failed point's parameters and traceback if any grid
    point errors — benchmark modules never assert on partial tables.
    """
    from repro.exp import Engine

    result = Engine(workers=1, cache=None).run(name, quick=quick)
    if not result.ok:
        failure = result.failures[0]
        raise AssertionError(
            f"point {failure.point.describe()} failed:\n{failure.error}"
        )
    _RESULTS[(name, quick)] = result
    return result


def experiment_rows(
    name: str, quick: bool = False, fresh: bool = False
) -> List[dict]:
    """Dict rows for one registered experiment, memoized per session."""
    if fresh or (name, quick) not in _RESULTS:
        run_experiment(name, quick)
    return _RESULTS[(name, quick)].dicts()


@pytest.fixture(scope="session")
def experiment():
    """Shared engine fixture: ``experiment("fig7")`` -> list of dict rows."""
    return experiment_rows


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render one regenerated paper table to stdout."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 14) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt_bytes(n: int) -> str:
    """Human-readable byte count."""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n / 1:.6g} {unit}"
        n /= 1024
    return f"{n} B"


def fmt_rate(value: float, unit: str) -> str:
    """Engineering-notation rate formatting."""
    for scale, prefix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")):
        if value >= scale:
            return f"{value / scale:.2f} {prefix}{unit}"
    return f"{value:.2f} {unit}"
