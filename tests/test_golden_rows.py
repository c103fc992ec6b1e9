"""Every quick-grid point still produces its committed rows.

``perfbench/golden.json`` holds the sha256 of each grid point's rows in
canonical JSON.  This test reruns all quick-grid points and compares
their digests with that file (it only reads it), so a change that is
meant to make the simulator faster but alters a row fails here.
Regenerate the file with ``python3 perfbench/golden.py`` only together
with an explanation of why the rows changed.
"""

import hashlib
import json
from pathlib import Path

from repro.exp import Engine, experiment_names

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def row_digest(rows):
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_quick_rows_match_golden_digests():
    golden = {
        key: entry["sha256"]
        for key, entry in json.loads(GOLDEN.read_text()).items()
        if "/quick/" in key
    }
    results = Engine(workers=1, cache=None).run_many(
        experiment_names(), quick=True
    )
    digests = {}
    for name, result in results.items():
        for point in result.points:
            assert point.ok, f"{name} {point.point.params}: {point.error}"
            digests[f"{name}/quick/{point.point.index}"] = row_digest(point.rows)
    assert len(digests) == 58
    assert sorted(digests) == sorted(golden)
    changed = [key for key in digests if digests[key] != golden[key]]
    assert not changed, f"rows differ from the golden digests: {changed}"
