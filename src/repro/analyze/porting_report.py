"""Porting report: the explicit-model inefficiencies in a runtime trace.

The paper's related work surveys GPU memory profilers (DrGPUM [25],
Lotus [9]) that detect inefficient memory usage patterns without
modifying the application.  :func:`porting_report` brings that style of
analysis to the simulator: it reads the :class:`~repro.analyze.events.
EventLog` of a run built with ``make_runtime(..., trace=True)`` and
mines it for exactly the inefficiencies the paper's porting strategies
(Section 3.3) eliminate:

* **duplicated buffer pairs** — a host and a device allocation of equal
  size connected by copies: the explicit-model signature, mergeable
  into one unified allocation (the Fig. 11 memory saving);
* **copy overhead** — copy-engine time relative to GPU kernels, i.e.
  what merging would recover;
* **dead allocations** — buffers no copy, kernel or fault ever touched;
* **fault-dominated kernels** — GPU time dominated by page faults (the
  nn outlier), fixable with hipMalloc-backed containers or pre-faulting.

Buffers are keyed by the log's uids, so two allocations sharing a name
(a reallocated ``std::vector``) stay distinct; the report shows names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.allocators import AllocatorKind
from .events import RuntimeEvent

#: A GPU kernel whose fault time exceeds this share of its duration is
#: flagged fault-dominated.
FAULT_DOMINATED_SHARE = 0.5

#: Allocator kinds considered "host-side" for pairing purposes.
_HOST_KINDS = {
    AllocatorKind.MALLOC.value,
    AllocatorKind.MALLOC_REGISTERED.value,
    AllocatorKind.HIP_HOST_MALLOC.value,
}
_DEVICE_KINDS = {
    AllocatorKind.HIP_MALLOC.value,
    AllocatorKind.STATIC_DEVICE.value,
}


@dataclass(frozen=True)
class DuplicationFinding:
    """A host/device buffer pair that could be one unified allocation."""

    host_buffer: str
    device_buffer: str
    nbytes: int
    copies: int
    copy_time_ns: float

    @property
    def memory_saving_bytes(self) -> int:
        """Bytes saved by merging the pair (one copy disappears)."""
        return self.nbytes


@dataclass
class AdvisorReport:
    """The porting findings over one trace."""

    duplicated_pairs: List[DuplicationFinding] = field(default_factory=list)
    dead_allocations: List[str] = field(default_factory=list)
    copy_time_ns: float = 0.0
    kernel_time_ns: float = 0.0
    fault_dominated_kernels: List[str] = field(default_factory=list)
    #: Bytes recoverable by unifying all duplicated pairs.  Each host
    #: buffer counts once, however many device buffers it pairs with:
    #: unifying drops the host side, not one buffer per pair.
    potential_memory_saving_bytes: int = 0

    @property
    def copy_fraction(self) -> float:
        """Share of traced GPU-path time spent copying."""
        total = self.copy_time_ns + self.kernel_time_ns
        if total == 0:
            return 0.0
        return self.copy_time_ns / total

    def summary(self) -> str:
        """Human-readable findings (the DrGPUM-style report)."""
        lines = ["Porting advisor findings:"]
        if self.duplicated_pairs:
            lines.append(
                f"  {len(self.duplicated_pairs)} duplicated host/device "
                f"pair(s); merging saves "
                f"{self.potential_memory_saving_bytes >> 20} MiB and removes "
                f"{self.copy_time_ns / 1e6:.2f} ms of copies"
            )
            for f in self.duplicated_pairs:
                lines.append(
                    f"    {f.host_buffer} <-> {f.device_buffer}: "
                    f"{f.nbytes >> 20} MiB, {f.copies} copies"
                )
        else:
            lines.append("  no duplicated buffer pairs (already unified?)")
        if self.copy_fraction > 0.2:
            lines.append(
                f"  copies are {self.copy_fraction:.0%} of GPU-path time — "
                "a unified-memory port removes them (Listing 2)"
            )
        for name in self.fault_dominated_kernels:
            lines.append(
                f"  kernel {name!r} is fault-dominated — use a hipMalloc-"
                "backed container or CPU pre-faulting (Sections 5.2, 6)"
            )
        for name in self.dead_allocations:
            lines.append(f"  allocation {name!r} is never accessed")
        return "\n".join(lines)


def _host_device(
    src: Optional[Dict[str, Any]], dst: Optional[Dict[str, Any]]
) -> Optional[Tuple[str, str]]:
    """The (host, device) uids when a copy joins an equal-size pair."""
    if src is None or dst is None:
        return None
    if src["allocator"] in _HOST_KINDS and dst["allocator"] in _DEVICE_KINDS:
        host, device = src, dst
    elif src["allocator"] in _DEVICE_KINDS and dst["allocator"] in _HOST_KINDS:
        host, device = dst, src
    else:
        return None
    if host["size"] != device["size"]:
        return None
    return host["buffer"], device["buffer"]


def porting_report(log: Iterable[RuntimeEvent]) -> AdvisorReport:
    """Mine one runtime event log for explicit-model inefficiencies.

    Copy time is the copy engine's own ``memcpy`` duration.  Kernel time
    and fault-dominated kernels count GPU kernels only, so the copy
    share is a share of GPU-path time.
    """
    report = AdvisorReport()
    allocs: Dict[str, Dict[str, Any]] = {}  # uid -> alloc event data
    accessed: Set[str] = set()
    pairs: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for event in log:
        d = event.data
        if event.kind == "alloc":
            allocs[d["buffer"]] = d
        elif event.kind == "fault":
            accessed.add(d["buffer"])
        elif event.kind == "memcpy":
            accessed.update((d["src"], d["dst"]))
            report.copy_time_ns += d["duration_ns"]
            key = _host_device(allocs.get(d["src"]), allocs.get(d["dst"]))
            if key is not None:
                count, time_ns = pairs.get(key, (0, 0.0))
                pairs[key] = (count + 1, time_ns + d["duration_ns"])
        elif event.kind == "kernel":
            accessed.update(a["buffer"] for a in d["accesses"])
            if d["device"] != "gpu":
                continue
            duration = d["end_ns"] - d["start_ns"]
            report.kernel_time_ns += duration
            if d["fault_ns"] > FAULT_DOMINATED_SHARE * duration > 0:
                report.fault_dominated_kernels.append(d["name"])

    def name(uid: str) -> str:
        return allocs[uid]["name"] or uid

    report.duplicated_pairs = sorted(
        (
            DuplicationFinding(
                host_buffer=name(host),
                device_buffer=name(device),
                nbytes=allocs[host]["size"],
                copies=count,
                copy_time_ns=time_ns,
            )
            for (host, device), (count, time_ns) in pairs.items()
        ),
        key=lambda f: (f.host_buffer, f.device_buffer),
    )
    report.potential_memory_saving_bytes = sum(
        allocs[host]["size"] for host in {host for host, _ in pairs}
    )
    report.dead_allocations = [
        name(uid) for uid in allocs if uid not in accessed
    ]
    return report
