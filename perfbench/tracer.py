"""Outside-in span tracer for the simulator's layers.

The tracer wraps the public entry points of each ``repro`` subpackage on
the sweep's path (``exp``, ``bench``, ``apps``, ``porting``, ``runtime``,
``core``, ``hw``, ``profiling``, ``uvm``, ``partition``) without touching
the program's sources.  Each wrapper records one *span*: its call count,
its self time (span time minus the time of the spans it encloses) and a
few exact counters (pages, frames, bytes, elements).

Wrappers are installed where callers look a function up.  A module-level
function is replaced in every loaded ``repro`` module that holds it,
because ``from .fragments import compute_fragments`` binds the object into
the importing module; a method is replaced on the class that defines it.

The tracer also wraps :class:`repro.hw.clock.SimClock`.  Every clock
advance is charged to the cause of the innermost open span (allocation,
free, copy, kernel, fault, sync, I/O or other), giving the simulated-time
split of the paper's Fig. 11.  Time the program itself leaves out of its
reported totals is kept apart as ``unmeasured``:

* a clock that opens the ``"total"`` region (the Rodinia harness's
  ``/usr/bin/time`` window) counts only what advances inside it, so the
  harness teardown after the window is unmeasured;
* inside the UVM comparison, allocation cost is paid before each model
  starts its timer, so it is unmeasured too.

Measured plus unmeasured time must equal every clock's final reading;
:meth:`Tracer.end_point` reports any gap.

The tracer's own bookkeeping is timed and kept out of every span's self
time; it is reported as ``trace.bookkeeping_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: Layer lanes, in the order the Chrome trace shows them.
LAYERS = (
    "exp", "bench", "apps", "porting", "runtime", "core", "hw",
    "profiling", "uvm", "partition",
)

#: Simulated-time causes, in report order.
CAUSES = ("alloc", "free", "copy", "kernel", "fault", "sync", "io", "other")

#: The Rodinia harness's timed region (see ``repro.apps.common``).
WINDOW_REGION = "total"


def _len_arg(index: int, key: str) -> Callable:
    def count(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[key]
        return len(value)
    return count


def _len_result(args, kwargs, result):
    return len(result)


def _alloc_bytes(args, kwargs, result):
    return result.size_bytes


def _copy_bytes(args, kwargs, result):
    """Bytes of one ``hipMemcpy``/``hipMemcpyAsync``, resolved the way the
    runtime resolves a missing ``nbytes``."""
    nbytes = args[3] if len(args) > 3 else kwargs.get("nbytes")
    if nbytes is not None:
        return nbytes
    dst = args[1] if len(args) > 1 else kwargs["dst"]
    src = args[2] if len(args) > 2 else kwargs["src"]
    return min(
        getattr(dst, "allocation", dst).size_bytes,
        getattr(src, "allocation", src).size_bytes,
    )


def _fragments(args, kwargs, result):
    # One fragment of 2**e pages carries exponent e on each of its pages,
    # so the fragment count is the sum of 2**-e (exact in float64).
    if len(result) == 0:
        return 0
    import numpy as np

    return int(round(float(np.ldexp(1.0, -result.astype(np.int64)).sum())))


#: (span, "module:Class.attr" or "module:function", cause, counters).
#: ``counters`` maps a counter suffix to ``f(args, kwargs, result)``.
TARGETS: Tuple[Tuple[str, Tuple[str, ...], str, Dict[str, Callable]], ...] = (
    ("exp.point", ("repro.exp.engine:execute_point",), "other", {}),
    ("bench", (
        "repro.bench.multichase:chase_curve",
        "repro.bench.stream:gpu_triad",
        "repro.bench.stream:cpu_triad",
        "repro.bench.stream:cpu_fault_count",
        "repro.bench.hipbandwidth:measure_memcpy",
        "repro.bench.histogram:cpu_sweep",
        "repro.bench.histogram:gpu_sweep",
        "repro.bench.histogram:hybrid_grid",
        "repro.bench.allocspeed:cost_sweep",
        "repro.bench.pagefault:throughput_curve",
        "repro.bench.pagefault:latency_distributions",
    ), "other", {}),
    ("apps.run", ("repro.apps.common:RodiniaApp.run",), "other", {}),
    ("apps.io", ("repro.apps.common:simulate_io",), "io", {}),
    ("porting.extend", ("repro.porting.containers:UnifiedVector.extend",),
     "other", {"elements": _len_arg(1, "values")}),
    ("runtime.make_runtime", ("repro.runtime.hip:make_runtime",), "other", {}),
    ("runtime.make_apu", ("repro.runtime.apu:make_apu",), "other", {}),
    ("runtime.alloc", (
        "repro.runtime.hip:HipRuntime.hipMalloc",
        "repro.runtime.hip:HipRuntime.hipHostMalloc",
        "repro.runtime.hip:HipRuntime.hipMallocManaged",
        "repro.runtime.hip:HipRuntime.malloc",
        "repro.runtime.hip:HipRuntime.hipHostRegister",
    ), "alloc", {"bytes": _alloc_bytes}),
    ("runtime.free", ("repro.runtime.hip:HipRuntime.hipFree",), "free", {}),
    ("runtime.memcpy", (
        "repro.runtime.hip:HipRuntime.hipMemcpy",
        "repro.runtime.hip:HipRuntime.hipMemcpyAsync",
    ), "copy", {"bytes": _copy_bytes}),
    ("runtime.kernel", (
        "repro.runtime.kernels:KernelEngine.run_gpu",
        "repro.runtime.kernels:KernelEngine.run_cpu",
    ), "kernel", {}),
    ("runtime.touch", ("repro.runtime.apu:APU.touch",), "fault", {}),
    ("runtime.sync", (
        "repro.runtime.hip:HipRuntime.hipEventSynchronize",
        "repro.runtime.stream:StreamRegistry.device_synchronize",
        "repro.runtime.stream:Stream.synchronize",
    ), "sync", {}),
    ("core.allocators.alloc", (
        "repro.core.allocators:MemoryManager.malloc",
        "repro.core.allocators:MemoryManager.hip_malloc",
        "repro.core.allocators:MemoryManager.hip_host_malloc",
        "repro.core.allocators:MemoryManager.hip_malloc_managed",
        "repro.core.allocators:MemoryManager.host_register",
        "repro.core.allocators:MemoryManager.managed_static",
        "repro.core.allocators:MemoryManager.static_host",
        "repro.core.allocators:MemoryManager.static_device",
        "repro.core.allocators:MemoryManager.up_front_degraded",
    ), "alloc", {"bytes": _alloc_bytes}),
    ("core.allocators.free", ("repro.core.allocators:MemoryManager.free",),
     "free", {}),
    ("core.physical.alloc_scattered",
     ("repro.core.physical:PhysicalMemory.alloc_scattered",),
     "alloc", {"frames": _len_result}),
    ("core.physical.alloc_chunks",
     ("repro.core.physical:PhysicalMemory.alloc_chunks",),
     "alloc", {"frames": _len_result}),
    ("core.physical.free", ("repro.core.physical:PhysicalMemory.free",),
     "free", {}),
    ("core.page_table.map_range", (
        "repro.core.page_table:SystemPageTable.map_range",
        "repro.core.page_table:GPUPageTable.map_range",
    ), "other", {}),
    ("core.fragments", ("repro.core.fragments:compute_fragments",),
     "other", {"pages": _len_arg(0, "frames"), "fragments": _fragments}),
    ("core.faults.touch_range", ("repro.core.faults:FaultHandler.touch_range",),
     "fault", {}),
    ("core.hmm.propagate_range",
     ("repro.core.page_table:HMMMirror.propagate_range",), "fault", {}),
    ("core.tlb.streaming_misses", ("repro.core.tlb:streaming_tlb_misses",),
     "other", {}),
    ("hw.hbm.channels_of_frames",
     ("repro.hw.hbm:HBMSubsystem.channels_of_frames",),
     "other", {"frames": _len_arg(1, "frames")}),
    ("profiling.memusage.sample",
     ("repro.profiling.memusage:MemoryUsageProfiler.sample",), "other", {}),
    ("uvm.compare", ("repro.uvm.comparison:three_way_comparison",), "other",
     {}),
    ("uvm.memcpy", (
        "repro.uvm.system:UVMSystem.memcpy",
        "repro.uvm.system:UVMSystem.prefetch",
    ), "copy", {}),
    ("uvm.access", (
        "repro.uvm.system:UVMSystem.gpu_access",
        "repro.uvm.system:UVMSystem.cpu_access",
    ), "fault", {}),
    ("uvm.kernel", (
        "repro.uvm.system:UVMSystem.run_gpu_kernel",
        "repro.uvm.system:UVMSystem.run_cpu_kernel",
    ), "kernel", {}),
    ("partition", (
        "repro.partition:all_valid_modes",
        "repro.partition:device_stream_bandwidth",
        "repro.partition:kernel_launch_factor",
        "repro.partition.placement:PartitionPlacement.local_fraction",
    ), "other", {}),
)

SPAN_NAMES = tuple(target[0] for target in TARGETS)

_SPANS_PER_LAYER = {
    layer: sum(name.split(".")[0] == layer for name in SPAN_NAMES)
    for layer in LAYERS
}

#: Counter metrics each span reports besides ``calls`` and ``self_s``.
SPAN_COUNTERS = {name: tuple(counters) for name, _, _, counters in TARGETS}

_COUNTER_UNITS = {
    "bytes": "B", "frames": "count", "pages": "count", "fragments": "count",
    "elements": "count",
}


def _resolve(path: str) -> Tuple[Any, str, Callable]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute, original function)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class _ClockState:
    __slots__ = ("clock", "measured", "unmeasured", "window_depth",
                 "has_window")

    def __init__(self, clock) -> None:
        self.clock = clock
        self.measured = 0.0
        self.unmeasured = 0.0
        self.window_depth = 0
        self.has_window = False


class Tracer:
    """Installs the span wrappers; collects spans, counters and sim time."""

    def __init__(self) -> None:
        # name -> [calls, self_s, counter values...]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0] + [0] * len(SPAN_COUNTERS[name])
            for name in SPAN_NAMES
        }
        self.sim_ns: Dict[str, float] = {cause: 0.0 for cause in CAUSES}
        self.unmeasured_ns = 0.0
        self.advance_calls = 0
        self.bookkeeping_s = 0.0
        self.events: List[Tuple[str, float, float, str]] = []
        self.originals: Dict[str, List[Callable]] = {}
        self._stack: List[List[Any]] = []  # [span name, cause, child time]
        self._clocks: Dict[int, _ClockState] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._point = ""
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        for name, paths, cause, counters in TARGETS:
            for path in paths:
                owner, attr, original = _resolve(path)
                self.originals.setdefault(name, []).append(original)
                wrapper = self._span_wrapper(name, cause, counters, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        self._install_clock()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, cause, counters, original):
        perf_counter = time.perf_counter
        stack = self._stack
        stats = self.stats[name]
        counter_fns = list(counters.values())
        events = self.events
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            frame = [name, cause, 0.0]
            stack.append(frame)
            t_start = perf_counter()
            returned = False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                t_end = perf_counter()
                stack.pop()
                duration = t_end - t_start
                stats[0] += 1
                stats[1] += duration - frame[2]
                if returned:
                    for index, count in enumerate(counter_fns, start=2):
                        stats[index] += count(args, kwargs, result)
                events.append((name, t_start, duration, tracer._point))
                t_exit = perf_counter()
                if stack:
                    stack[-1][2] += t_exit - t_enter
                tracer.bookkeeping_s += (t_start - t_enter) + (t_exit - t_end)

        return wrapper

    def _install_clock(self) -> None:
        from repro.hw.clock import SimClock

        clocks = self._clocks
        tracer = self
        init, advance = SimClock.__init__, SimClock.advance
        advance_to, region = SimClock.advance_to, SimClock.region
        self.originals["hw.clock.advance"] = [advance, advance_to]

        def state_of(clock) -> _ClockState:
            # A state keeps its clock alive, so an id is never reused
            # while its entry exists.
            state = clocks.get(id(clock))
            if state is None:
                state = clocks[id(clock)] = _ClockState(clock)
            return state

        @functools.wraps(init)
        def traced_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            state_of(self)

        @functools.wraps(advance)
        def traced_advance(self, delta_ns):
            result = advance(self, delta_ns)
            tracer._charge(state_of(self), delta_ns)
            return result

        @functools.wraps(advance_to)
        def traced_advance_to(self, when_ns):
            before = self.now_ns
            result = advance_to(self, when_ns)
            tracer._charge(state_of(self), result - before)
            return result

        @functools.wraps(region)
        def traced_region(self, name):
            manager = region(self, name)
            if name != WINDOW_REGION:
                return manager
            return _Window(state_of(self), manager)

        self._patch(SimClock, "__init__", traced_init)
        self._patch(SimClock, "advance", traced_advance)
        self._patch(SimClock, "advance_to", traced_advance_to)
        self._patch(SimClock, "region", traced_region)

    def _charge(self, state: _ClockState, delta_ns: float) -> None:
        self.advance_calls += 1
        cause = self._stack[-1][1] if self._stack else "other"
        if (state.has_window and not state.window_depth) or (
            cause == "alloc" and any(f[0] == "uvm.compare" for f in self._stack)
        ):
            state.unmeasured += delta_ns
            self.unmeasured_ns += delta_ns
        else:
            state.measured += delta_ns
            self.sim_ns[cause] += delta_ns

    # -- per-point accounting -------------------------------------------

    def begin_point(self, key: str = "") -> None:
        self._point = key
        self._clocks.clear()

    def end_point(self) -> Tuple[float, float]:
        """Close a grid point; returns ``(measured sim ns, accounting gap)``.

        The gap is the largest relative difference, over the clocks the
        point created, between the clock's reading and the time the tracer
        charged; it is 0 when no advance escaped the wrappers.
        """
        gap = measured = 0.0
        for state in self._clocks.values():
            measured += state.measured
            now = state.clock.now_ns
            charged = state.measured + state.unmeasured
            if now or charged:
                gap = max(gap, abs(now - charged) / max(abs(now), 1e-300))
        self._clocks.clear()
        return measured, gap

    # -- reports --------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        out: Dict[str, Tuple[float, str]] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name in SPAN_NAMES:
            calls, self_s, *counts = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            for suffix, value in zip(SPAN_COUNTERS[name], counts):
                out[f"{name}.{suffix}"] = (value, _COUNTER_UNITS[suffix])
            layer_self[name.split(".")[0]] += self_s
        pages = self.stats["core.fragments"][2]
        fragments = self.stats["core.fragments"][3]
        out["core.fragments.pages_per_fragment"] = (
            pages / fragments if fragments else 0.0, "pages"
        )
        for layer, self_s in layer_self.items():
            if _SPANS_PER_LAYER[layer] > 1:
                out[f"{layer}.self_s"] = (self_s, "s")
        out["hw.clock.advance.calls"] = (self.advance_calls, "count")
        for cause in CAUSES:
            out[f"sim.{cause}_s"] = (self.sim_ns[cause] / 1e9, "sim_s")
        out["sim.total_s"] = (sum(self.sim_ns.values()) / 1e9, "sim_s")
        out["sim.unmeasured_s"] = (self.unmeasured_ns / 1e9, "sim_s")
        out["trace.bookkeeping_s"] = (self.bookkeeping_s, "s")
        return out

    def write_chrome_trace(self, path, title: str) -> int:
        """Write the spans as Chrome trace-event JSON, one lane per layer.

        Returns the number of span events written.
        """
        lane = {layer: index + 1 for index, layer in enumerate(LAYERS)}
        trace: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": title}},
        ]
        for layer, tid in lane.items():
            trace.append({"ph": "M", "pid": 1, "tid": tid,
                          "name": "thread_name", "args": {"name": layer}})
            trace.append({"ph": "M", "pid": 1, "tid": tid,
                          "name": "thread_sort_index",
                          "args": {"sort_index": tid}})
        for name, start, duration, point in self.events:
            layer = name.split(".")[0]
            trace.append({
                "ph": "X", "pid": 1, "tid": lane[layer], "name": name,
                "cat": layer, "ts": round((start - self._t0) * 1e6, 3),
                "dur": round(duration * 1e6, 3), "args": {"point": point},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle)
        return len(self.events)


class _Window:
    """Context manager around the harness's ``"total"`` clock region."""

    def __init__(self, state: _ClockState, manager) -> None:
        self._state = state
        self._manager = manager

    def __enter__(self):
        self._state.has_window = True
        self._state.window_depth += 1
        return self._manager.__enter__()

    def __exit__(self, *exc):
        try:
            return self._manager.__exit__(*exc)
        finally:
            self._state.window_depth -= 1
