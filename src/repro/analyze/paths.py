"""The source-file walker shared by ``repro lint`` and ``repro advise``."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Set, Union


def python_files(
    paths: Iterable[Union[Path, str]], exclude: Iterable[str] = ()
) -> Iterator[Path]:
    """Every ``.py`` file under *paths* (files or directories), once each.

    A file named twice (``dir`` and ``dir/file.py``) is yielded on its
    first appearance only.  An *exclude* entry drops a file whose path
    ends with it (``examples/racey_port.py``) or whose name equals it.
    """
    excludes = [e.strip().lstrip("./") for e in exclude]
    excludes = [e for e in excludes if e]
    seen: Set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        for file in sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]:
            resolved = file.resolve()
            posix = resolved.as_posix()
            if resolved in seen or any(
                posix.endswith("/" + e) or file.name == e for e in excludes
            ):
                continue
            seen.add(resolved)
            yield file
