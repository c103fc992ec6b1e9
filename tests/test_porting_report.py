"""Tests for the porting report over runtime event logs
(repro.analyze.porting_report)."""

import pytest

from repro.analyze import SMALL_PARAMS, EventLog
from repro.analyze.porting_report import porting_report
from repro.apps import ALL_APPS
from repro.hw.config import MiB
from repro.runtime import make_runtime
from repro.runtime.kernels import BufferAccess, KernelSpec


class _Trace:
    """A synthetic event log whose clock the test sets per event."""

    def __init__(self) -> None:
        self.now_ns = 0.0
        self.log = EventLog(self)

    def at(self, t_ns: float, kind: str, **data) -> None:
        self.now_ns = t_ns
        self.log.emit(kind, **data)

    def alloc(self, t_ns, uid, name, allocator, size) -> None:
        self.at(t_ns, "alloc", buffer=uid, name=name, allocator=allocator,
                size=size)

    def memcpy(self, t_ns, dst, src, nbytes, duration_ns) -> None:
        self.at(t_ns, "memcpy", dst=dst, src=src, nbytes=nbytes,
                duration_ns=duration_ns)

    def kernel(self, t_ns, name, buffers, duration_ns, fault_ns=0.0,
               device="gpu") -> None:
        self.at(t_ns, "kernel", name=name, device=device, start_ns=t_ns,
                end_ns=t_ns + duration_ns, fault_ns=fault_ns,
                accesses=[{"buffer": b} for b in buffers])


@pytest.fixture
def traced_explicit_run():
    """A miniature explicit-model log: h/d pair + copies + kernel."""
    trace = _Trace()
    trace.alloc(0.0, "b0", "h_data", "malloc", 16 * MiB)
    trace.alloc(100.0, "b1", "d_data", "hipMalloc", 16 * MiB)
    trace.alloc(150.0, "b2", "d_scratch", "hipMalloc", 4 * MiB)
    trace.memcpy(200.0, "b1", "b0", 16 * MiB, 280_000.0)
    trace.kernel(500_000.0, "stencil", ["b1"], 90_000.0)
    trace.memcpy(600_000.0, "b0", "b1", 16 * MiB, 280_000.0)
    return trace.log


class TestLog:
    def test_records_events_in_order(self, traced_explicit_run):
        kinds = [e.kind for e in traced_explicit_run]
        assert kinds == [
            "alloc", "alloc", "alloc", "memcpy", "kernel", "memcpy",
        ]
        times = [e.t_ns for e in traced_explicit_run]
        assert times == sorted(times)


class TestAdvisor:
    def test_finds_duplicated_pair(self, traced_explicit_run):
        report = porting_report(traced_explicit_run)
        assert len(report.duplicated_pairs) == 1
        finding = report.duplicated_pairs[0]
        assert finding.host_buffer == "h_data"
        assert finding.device_buffer == "d_data"
        assert finding.copies == 2
        assert finding.memory_saving_bytes == 16 * MiB

    def test_potential_saving(self, traced_explicit_run):
        report = porting_report(traced_explicit_run)
        assert report.potential_memory_saving_bytes == 16 * MiB

    def test_copy_fraction(self, traced_explicit_run):
        report = porting_report(traced_explicit_run)
        assert report.copy_time_ns == pytest.approx(560_000.0)
        assert report.kernel_time_ns == pytest.approx(90_000.0)
        assert report.copy_fraction == pytest.approx(560 / 650, rel=0.01)

    def test_dead_allocation_detected(self, traced_explicit_run):
        report = porting_report(traced_explicit_run)
        assert report.dead_allocations == ["d_scratch"]

    def test_fault_dominated_kernel(self):
        trace = _Trace()
        trace.alloc(0.0, "b0", "std::vector", "malloc", 4 * MiB)
        trace.kernel(100.0, "euclid", ["b0"], duration_ns=1e6, fault_ns=9e5)
        report = porting_report(trace.log)
        assert report.fault_dominated_kernels == ["euclid"]

    def test_unified_run_is_clean(self):
        trace = _Trace()
        trace.alloc(0.0, "b0", "unified", "hipMalloc", 16 * MiB)
        trace.kernel(100.0, "stencil", ["b0"], 90_000.0)
        report = porting_report(trace.log)
        assert not report.duplicated_pairs
        assert not report.dead_allocations
        assert report.copy_fraction == 0.0

    def test_host_buffer_with_two_device_partners_counts_once(self):
        # Copied in to one device buffer and back from another: two
        # pairs, but unifying removes one host-sized buffer.
        trace = _Trace()
        trace.alloc(0.0, "b0", "h", "malloc", 4 * MiB)
        trace.alloc(0.0, "b1", "d_in", "hipMalloc", 4 * MiB)
        trace.alloc(0.0, "b2", "d_out", "hipMalloc", 4 * MiB)
        trace.memcpy(100.0, "b1", "b0", 4 * MiB, 1000.0)
        trace.memcpy(200.0, "b0", "b2", 4 * MiB, 1000.0)
        report = porting_report(trace.log)
        assert len(report.duplicated_pairs) == 2
        assert report.potential_memory_saving_bytes == 4 * MiB

    def test_size_mismatch_not_paired(self):
        trace = _Trace()
        trace.alloc(0.0, "b0", "h", "malloc", 16 * MiB)
        trace.alloc(0.0, "b1", "d", "hipMalloc", 8 * MiB)
        trace.memcpy(100.0, "b1", "b0", 8 * MiB, 1000.0)
        report = porting_report(trace.log)
        assert not report.duplicated_pairs

    def test_summary_text(self, traced_explicit_run):
        text = porting_report(traced_explicit_run).summary()
        assert "duplicated" in text
        assert "h_data" in text
        assert "d_scratch" in text
        assert "copies are" in text

    def test_summary_clean_text(self):
        trace = _Trace()
        trace.alloc(0.0, "b0", "u", "hipMalloc", 1 * MiB)
        trace.kernel(0.0, "k", ["b0"], 1000.0)
        text = porting_report(trace.log).summary()
        assert "already unified" in text

    def test_same_name_buffers_stay_distinct(self):
        # A reallocated std::vector: the first buffer dies untouched,
        # the second one is used; a name-keyed report would merge them.
        trace = _Trace()
        trace.alloc(0.0, "b0", "std::vector", "malloc", 64)
        trace.alloc(10.0, "b1", "std::vector", "malloc", 4 * MiB)
        trace.kernel(20.0, "euclid", ["b1"], 1000.0)
        report = porting_report(trace.log)
        assert report.dead_allocations == ["std::vector"]

    def test_fault_counts_as_access(self):
        trace = _Trace()
        trace.alloc(0.0, "b0", "bmp_raw", "malloc", 4 * MiB)
        trace.at(10.0, "fault", device="cpu", buffer="b0", name="bmp_raw")
        assert porting_report(trace.log).dead_allocations == []

    def test_cpu_kernels_are_not_gpu_path_time(self):
        trace = _Trace()
        trace.alloc(0.0, "b0", "h", "malloc", 4 * MiB)
        trace.kernel(0.0, "init", ["b0"], 1e6, fault_ns=9e5, device="cpu")
        report = porting_report(trace.log)
        assert report.kernel_time_ns == 0.0
        assert report.fault_dominated_kernels == []
        assert report.dead_allocations == []


class TestRuntimeFields:
    def test_memcpy_carries_copy_engine_duration(self):
        hip = make_runtime(memory_gib=2, trace=True)
        src = hip.apu.memory.hip_malloc(4 * MiB, name="src")
        dst = hip.apu.memory.hip_malloc(4 * MiB, name="dst")
        hip.hipMemcpy(dst, src, 4 * MiB)
        before = hip.apu.clock.now_ns
        hip.hipMemcpy(dst, src, 4 * MiB)
        copy = [e for e in hip.apu.trace if e.kind == "memcpy"][-1]
        # The first copy faulted both ends in from the CPU; the second
        # takes no faults, so the clock advances by the engine's time.
        assert copy.data["duration_ns"] > 0
        assert copy.data["duration_ns"] == pytest.approx(
            hip.apu.clock.now_ns - before
        )

    @pytest.mark.parametrize("device", ["gpu", "cpu"])
    def test_kernel_carries_fault_time(self, device):
        hip = make_runtime(memory_gib=2, xnack=True, trace=True)
        buf = hip.apu.memory.malloc(4 * MiB, name="pageable")
        spec = KernelSpec("touch", [BufferAccess(buf, "write")])
        if device == "gpu":
            result = hip.launchKernel(spec)
        else:
            result = hip.runCpuKernel(spec)
        (kernel,) = [e for e in hip.apu.trace if e.kind == "kernel"]
        assert kernel.data["device"] == device
        assert result.fault_ns > 0
        assert kernel.data["fault_ns"] == result.fault_ns


#: Duplicated host/device pairs per explicit port on SMALL_PARAMS.
#: dwt2d's host image pairs with both of its device arrays.
_EXPLICIT_PAIRS = {
    "backprop": 3,
    "dwt2d": 2,
    "heartwall": 1,
    "hotspot": 2,
    "nn": 2,
    "srad_v1": 2,
}


@pytest.fixture(scope="module")
def rodinia_runs():
    """Traced SMALL_PARAMS runs of every port: (app, variant) -> log."""
    runs = {}
    for name, cls in ALL_APPS.items():
        app = cls()
        for variant in app.variants:
            app.run(variant, memory_gib=8, params=SMALL_PARAMS[name],
                    trace=True)
            runs[name, variant] = app.last_apu.trace
    return runs


class TestRodiniaPorts:
    def test_explicit_ports_have_duplicated_pairs(self, rodinia_runs):
        counts = {
            name: len(porting_report(log).duplicated_pairs)
            for (name, variant), log in rodinia_runs.items()
            if variant == "explicit"
        }
        assert counts == _EXPLICIT_PAIRS

    def test_unified_ports_have_no_pairs(self, rodinia_runs):
        for (name, variant), log in rodinia_runs.items():
            if variant != "explicit":
                report = porting_report(log)
                assert report.duplicated_pairs == [], (name, variant)

    def test_dwt2d_image_saving_counted_once(self, rodinia_runs):
        # The host image pairs with both device arrays; the saving is
        # the one 4 MiB image (dim 1024, float32), not 8 MiB.
        report = porting_report(rodinia_runs["dwt2d", "explicit"])
        assert {f.host_buffer for f in report.duplicated_pairs} == {"image"}
        assert report.potential_memory_saving_bytes == 4 * MiB

    def test_nn_fault_outlier(self, rodinia_runs):
        unified = porting_report(rodinia_runs["nn", "unified"])
        assert unified.fault_dominated_kernels == ["euclid"]
        hipalloc = porting_report(rodinia_runs["nn", "unified-hipalloc"])
        assert hipalloc.fault_dominated_kernels == []

    def test_cpu_touched_buffers_are_not_dead(self, rodinia_runs):
        # dwt2d's bmp_raw and planes are only ever touched by the CPU.
        log = rodinia_runs["dwt2d", "explicit"]
        names = {e.data["name"] for e in log if e.kind == "alloc"}
        assert {"bmp_raw", "plane0", "plane1"} <= names
        assert porting_report(log).dead_allocations == []

    def test_nn_initial_vector_is_dead(self, rodinia_runs):
        # The 64-byte initial std::vector is reallocated before anything
        # touches it; its successors share the name but are used.
        log = rodinia_runs["nn", "unified"]
        vectors = [
            e.data for e in log
            if e.kind == "alloc" and e.data["name"] == "std::vector"
        ]
        assert len(vectors) > 1
        assert vectors[0]["size"] == 64
        assert porting_report(log).dead_allocations == ["std::vector"]
