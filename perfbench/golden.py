"""Regenerate ``golden.json``: the row digest of every workload point.

Usage, from the root of a checkout::

    python3 perfbench/golden.py

Runs each workload once at the default seed and writes, per grid point,
the sha256 of its canonical rows.  A change that alters a row must
explain why before this file is regenerated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.exp import Engine

    import workloads
    from sweep import run_pass

    engine = Engine(workers=1, cache=None)
    golden = {}
    for workload in workloads.WORKLOADS:
        items = workloads.plan(workload)
        _, records = run_pass(engine, items, {})
        for item, record in zip(items, records):
            if "sha256" not in record:
                print(f"{item.key}: {record['error']}", file=sys.stderr)
                return 1
            params = ", ".join(f"{k}={v!r}" for k, v in item.only.items())
            golden[item.key] = {"params": params, "sha256": record["sha256"]}
    workloads.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(golden)} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
