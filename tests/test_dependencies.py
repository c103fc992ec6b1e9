"""The package's runtime imports stay within the stdlib and numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import sys
before = set(sys.modules)
import repro.exp, repro.hw.node, repro.inject
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names) - {"__mp_main__"})))
"""


def test_importing_the_package_loads_only_numpy_beyond_the_stdlib():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.split()
    assert out == ["numpy", "repro"]
