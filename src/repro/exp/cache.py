"""On-disk result cache for experiment points.

Every point result is stored as one JSON file keyed by

    sha256(code_version + spec_hash + canonical(params))

so a re-run (or a resumed sweep) recomputes nothing that is already on
disk, and any change to the code, the spec, or the point parameters
misses cleanly.  The code version hashes the package's source files
themselves, so an edit misses the cache whether or not it is committed.
Payloads are JSON-normalised before first use, so a warm hit is
bit-identical to the cold computation.

The default location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/exp``;
``repro run --no-cache`` bypasses it and ``--refresh`` overwrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from .spec import canonical_json

#: The ``repro`` package directory whose sources the code version hashes.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_CODE_VERSION: Optional[str] = None


def source_digest() -> str:
    """sha256 over the relative path and bytes of every ``.py`` file
    under :data:`PACKAGE_ROOT`, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(PACKAGE_ROOT).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def code_version() -> str:
    """Version string for cache keys and artifact provenance.

    The :func:`source_digest` of the running package, computed once per
    process; ``$REPRO_CODE_VERSION`` overrides it (hermetic tests).
    Artifacts record it in their ``git_sha`` provenance field.
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        _CODE_VERSION = source_digest()
    return _CODE_VERSION


def default_cache_dir() -> Path:
    """The cache root honoured by the CLI and the engine default."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "exp"


class ResultCache:
    """Content-addressed JSON store for point results.

    Entries are written as ``{"sha256": ..., "payload": ...}`` so a
    truncated or bit-rotted file is detected on read instead of feeding
    silently-wrong rows into a sweep.  A corrupt entry (unparseable, in
    another layout, or failing its checksum) counts as a miss and is
    moved into ``<root>/quarantine/`` for post-mortem.
    """

    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @staticmethod
    def key(version: str, spec_hash: str, params: Dict[str, Any]) -> str:
        """Cache key for one point of one spec at one code version."""
        blob = canonical_json(
            {"code": version, "spec": spec_hash, "params": params}
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    @staticmethod
    def _digest(payload: Any) -> str:
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it cannot hit again."""
        dest = self.root / self.QUARANTINE_DIR / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            path.replace(dest)
        except OSError:
            pass  # best effort — the read already counted as a miss
        self.quarantined += 1

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or None on a miss (or a corrupt entry)."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if not (
            isinstance(doc, dict) and set(doc) == {"sha256", "payload"}
            and doc["sha256"] == self._digest(doc["payload"])
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return doc["payload"]

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Store *payload* (checksummed) under *key*; atomic via rename."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"sha256": self._digest(payload), "payload": payload}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True))
        tmp.replace(path)
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()
