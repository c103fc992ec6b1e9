"""Correctness and performance tooling for the simulated HIP runtime.

Four cooperating passes over programs written against
:mod:`repro.runtime`:

* **hipsan**, a dynamic happens-before sanitizer
  (:mod:`repro.analyze.sanitizer`): build the runtime with
  ``make_runtime(..., trace=True)``, run the program, then call
  :func:`analyze_runtime` (or ``python -m repro analyze``) to check the
  event log for CPU↔GPU races on unified pages, unsynchronized D2H
  reads, races with in-flight ``hipMemcpyAsync``, lifetime violations
  through ``hipFree``, and XNACK-off fatal accesses.

* a **porting report** (:mod:`repro.analyze.porting_report`): reads
  the same event log for what a unified port would remove — duplicated
  host/device buffer pairs and their copies, dead allocations and
  fault-dominated GPU kernels.

* a **static performance advisor** (:mod:`repro.analyze.advise`):
  ``python -m repro advise <paths|--apps>`` runs a CFG + dataflow
  analysis that prices the paper's UPM anti-patterns — redundant
  copies, first-touch placement, predicted fault storms, TLB reach,
  mixed allocation models, device syncs in loops — with SARIF 2.1.0
  output and a CI baseline.

* a **static linter** (:mod:`repro.analyze.linter`):
  ``python -m repro lint <paths>`` flags deprecated/unknown API names
  from a name table, and runs missing-sync, free-before-sync,
  use-after-free, double-free, leaked-allocation and mixed-model
  checks on the advisor's dataflow — one static engine, path- and
  loop-sensitive, without running anything.

hipsan, the advisor and the linter report
:class:`~repro.analyze.findings.Finding` records whose severities come
from the shared rule registry (:data:`~repro.analyze.findings.RULES`),
rendered by the common text/JSON/SARIF reporters.
"""

from .advise import (
    advise_apps,
    advise_file,
    advise_paths,
    advise_source,
    fingerprint,
    load_baseline,
    new_findings,
    port_is_clean,
    render_sarif,
    save_baseline,
    to_sarif,
    validate_sarif,
)
from .events import EventLog, RuntimeEvent
from .findings import (
    RULES,
    Finding,
    RuleSpec,
    Severity,
    all_rules,
    has_errors,
    make_finding,
    max_severity,
    render_json,
    render_text,
    rule_spec,
)
from .hb import VectorClock, ordered_before
from .linter import lint_file, lint_paths, lint_source
from .sanitizer import (
    GPU_FAULT_STORM_PAGES,
    SMALL_PARAMS,
    Sanitizer,
    analyze_app,
    analyze_log,
    analyze_runtime,
)

__all__ = [
    "EventLog",
    "Finding",
    "GPU_FAULT_STORM_PAGES",
    "RULES",
    "RuleSpec",
    "RuntimeEvent",
    "SMALL_PARAMS",
    "Sanitizer",
    "Severity",
    "VectorClock",
    "advise_apps",
    "advise_file",
    "advise_paths",
    "advise_source",
    "all_rules",
    "analyze_app",
    "analyze_log",
    "analyze_runtime",
    "fingerprint",
    "has_errors",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "make_finding",
    "max_severity",
    "new_findings",
    "ordered_before",
    "port_is_clean",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_spec",
    "save_baseline",
    "to_sarif",
    "validate_sarif",
]
