"""The linter's lifetime and synchronization rules over dataflow events.

Every scope — the module body and each function, nested ones included —
is analyzed on its own by
:func:`~repro.analyze.advise.dataflow.analyze_function`, with no
interprocedural summaries, so lint stays intraprocedural.  The checks read only the function's own events
(``via_summary=False``) and the freed/pending state carried on them,
which the fixpoint joined over every path: a free at the bottom of a
loop reaches the top of the next iteration, and a sync on one arm of an
``if`` does not excuse the other.

==================== ========================================== =======
rule                 fires when                                 event
==================== ========================================== =======
lint.double-free     a name that may already be freed is freed  free
lint.use-after-free  a name that may be freed is passed to a    use
                     call or dereferenced
lint.free-before-sync a free while async work may be pending    free
lint.missing-sync    host compute or a ``.np`` view while async host
                     work may be pending
lint.leaked-alloc    an allocation bound to a name reaches the  alloc
                     exit still bound, never freed or returned,
                     in a scope that creates its own runtime
                     (``make_runtime`` / ``make_apu``)
lint.mixed-model     a name bound by allocations of both the    alloc
                     explicit and the managed model
==================== ========================================== =======

A scope that receives its runtime as a parameter *borrows* the memory
arena — the creator owns teardown (the app harness frees everything
after the timed window) — so borrower scopes are exempt from leak
checks.  ``mixed-model`` is about naming, not paths: it compares each
allocation bound to a name with the previous one in program order.
Findings are reported once per (rule, line, name).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from ..findings import Finding, make_finding
from .dataflow import Event, FunctionResult, analyze_function
from .values import EXPLICIT_FAMILIES, MANAGED_FAMILIES, origins_of


def _model(ev: Event) -> Optional[str]:
    """The memory model of an allocation, when all its origins agree."""
    families = {o.family for o in origins_of(ev.buf)}
    if families and families <= EXPLICIT_FAMILIES:
        return "explicit"
    if families and families <= MANAGED_FAMILIES:
        return "managed"
    return None


def lint_function(fn: FunctionResult) -> List[Finding]:
    """The six lifetime/sync rules over one function's own events."""
    out: Dict[Tuple[str, int, str], Finding] = {}

    def add(rule: str, ev: Event, message: str, hint: str) -> None:
        out.setdefault(
            (rule, ev.line, ev.name),
            make_finding(rule, message, file=fn.file, line=ev.line,
                         hint=hint),
        )

    models: Dict[str, str] = {}
    allocs: List[Event] = []
    for ev in fn.events:
        if ev.via_summary:
            continue
        if ev.kind == "free" and ev.freed:
            add(
                "lint.double-free",
                ev,
                f"{ev.name!r} is freed twice (first at line "
                f"{min(ev.freed)})",
                "remove the second hipFree or rebind the name first",
            )
        elif ev.kind == "free" and ev.pending:
            add(
                "lint.free-before-sync",
                ev,
                "hipFree while asynchronous work from line "
                f"{min(ev.pending)} may still be in flight",
                "synchronize before freeing buffers kernels or async "
                "copies may still touch",
            )
        elif ev.kind == "use":
            add(
                "lint.use-after-free",
                ev,
                f"{ev.name!r} is used after hipFree "
                f"(freed at line {min(ev.freed)})",
                "free after the last use, or reallocate",
            )
        elif ev.kind == "host" and ev.pending and not ev.name:
            add(
                "lint.missing-sync",
                ev,
                f"host compute while asynchronous work from line "
                f"{min(ev.pending)} may still be in flight",
                "call hipDeviceSynchronize / hipStreamSynchronize "
                "before touching shared buffers on the host",
            )
        elif ev.kind == "host" and ev.pending:
            add(
                "lint.missing-sync",
                ev,
                f"host access to {ev.name!r}.np while asynchronous work "
                f"from line {min(ev.pending)} may still be in flight",
                "synchronize before reading or writing the buffer on "
                "the host",
            )
        elif ev.kind == "alloc" and ev.name:
            allocs.append(ev)
            model, previous = _model(ev), models.get(ev.name)
            if model is None:
                continue
            if previous is not None and previous != model:
                add(
                    "lint.mixed-model",
                    ev,
                    f"buffer {ev.name!r} is allocated through both the "
                    f"{previous} and {model} memory models",
                    "pick one model per logical buffer; mixing them "
                    "hides copies and defeats the unified-memory port",
                )
            models[ev.name] = model

    exit_state = fn.exit_state
    if fn.owns_runtime and exit_state is not None:
        freed = {name for name, _ in exit_state.freed}
        for ev in allocs:
            origins = origins_of(ev.buf)
            if (
                ev.name in freed
                or ev.name in fn.returned
                or all(o.family == "managed_static" for o in origins)
                or not origins & origins_of(exit_state.env.get(ev.name))
            ):
                continue  # freed, returned, static, or rebound
            add(
                "lint.leaked-alloc",
                ev,
                f"allocation {ev.name!r} is never freed in this scope",
                f"add hipFree({ev.name}) (or return the buffer to the "
                "caller)",
            )
    return list(out.values())


def lint_tree(tree: ast.Module, file: str) -> List[Finding]:
    """Lifetime/sync findings for every scope of one parsed file.

    Each scope is analyzed alone, with no summaries and its parameters
    unbound (TOP): the rules key handles by name, so a parameter is
    tracked like any other name.
    """
    scopes = [("<module>", tree.body)] + [
        (node.name, node.body)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    findings: List[Finding] = []
    for name, body in scopes:
        fn = analyze_function(name, body, [], {}, file, {})
        findings.extend(lint_function(fn))
    return findings
