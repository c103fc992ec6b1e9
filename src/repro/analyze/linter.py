"""Static API-misuse linter over code using the ``repro.runtime`` HIP API.

Two layers, one report:

* a **name table** (this module): ``lint.unknown-api`` flags a
  ``hipXxx`` call, attribute or name the simulated runtime does not
  expose, and ``lint.deprecated-api`` a CUDA-era spelling
  (``hipMallocHost``, ``hipMemcpyDtoH``, ...) with its replacement;
* **lifetime and synchronization rules** (``double-free``,
  ``use-after-free``, ``free-before-sync``, ``missing-sync``,
  ``leaked-alloc``, ``mixed-model``): checks over the advisor's
  per-function CFG dataflow (:mod:`repro.analyze.advise.lint`), so they
  follow every path through loops, branches and ``try`` blocks.

Severities come from the shared rule registry; ERROR findings gate CI.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterable, List, Set

from .advise.dataflow import call_name
from .advise.lint import lint_tree
from .findings import Finding, make_finding
from .paths import python_files

#: CUDA-era / removed spellings and their modern replacements.
DEPRECATED_APIS: Dict[str, str] = {
    "hipMallocHost": "hipHostMalloc",
    "hipHostAlloc": "hipHostMalloc",
    "hipFreeHost": "hipFree",
    "hipMemcpyDtoH": "hipMemcpy",
    "hipMemcpyHtoD": "hipMemcpy",
    "hipMemcpyDtoD": "hipMemcpy",
    "hipStreamWaitEvent_spin": "hipStreamWaitEvent",
}

_HIP_NAME = re.compile(r"^hip[A-Z]\w*$")


@functools.lru_cache(maxsize=1)
def known_hip_api() -> frozenset:
    """Every ``hipXxx`` name the simulated runtime exposes.

    Computed lazily so this module never imports the runtime at import
    time (the runtime imports :mod:`repro.analyze.events` for tracing).
    """
    from ..runtime import hip as hip_module
    from ..runtime.hip import HipRuntime

    names = {n for n in dir(HipRuntime) if n.startswith("hip")}
    names |= {n for n in dir(hip_module) if n.startswith("hip")}
    return frozenset(names)


def _api_findings(tree: ast.Module, file: str) -> List[Finding]:
    """``unknown-api`` / ``deprecated-api`` findings for one file."""
    defined, known = _defined_names(tree), known_hip_api()
    # Call targets are reported as calls; skip them in the name and
    # attribute checks so one misuse yields one finding.
    targets = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name, what = call_name(node), "API"
        elif isinstance(node, ast.Attribute) and id(node) not in targets:
            name, what = node.attr, "name"
        elif (
            isinstance(node, ast.Name)
            and id(node) not in targets
            and isinstance(node.ctx, ast.Load)
        ):
            name, what = node.id, "name"
        else:
            continue
        if name in DEPRECATED_APIS:
            if what == "API":
                findings.append(make_finding(
                    "lint.deprecated-api",
                    f"{name} is a deprecated API name",
                    file=file, line=node.lineno,
                    hint=f"use {DEPRECATED_APIS[name]} instead",
                ))
        elif (
            name
            and _HIP_NAME.match(name)
            and name not in known
            and name not in defined
        ):
            findings.append(make_finding(
                "lint.unknown-api",
                f"{name} is not a HIP {what} this runtime provides",
                file=file, line=node.lineno,
                hint="see dir(repro.runtime.HipRuntime) for the supported "
                "surface" if what == "API" else None,
            ))
    return findings


# ----------------------------------------------------------------------
# File / path drivers
# ----------------------------------------------------------------------


def _defined_names(tree: ast.Module) -> Set[str]:
    """Names the file itself defines, imports, or binds."""
    defined: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.alias):
            defined.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
    return defined


def lint_source(source: str, file: str = "<string>") -> List[Finding]:
    """Lint one source string."""
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError as exc:
        return [
            make_finding(
                "lint.syntax-error",
                f"cannot parse: {exc.msg}",
                file=file,
                line=exc.lineno,
            )
        ]
    findings = _api_findings(tree, file) + lint_tree(tree, file)
    findings.sort(key=lambda f: (f.line or 0, f.rule, f.message))
    return findings


def lint_file(path: Path | str) -> List[Finding]:
    """Lint one Python file."""
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), file=str(path))


def lint_paths(
    paths: Iterable[Path | str], exclude: Iterable[str] = ()
) -> List[Finding]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    findings: List[Finding] = []
    for file in python_files(paths, exclude):
        findings.extend(lint_file(file))
    return findings
