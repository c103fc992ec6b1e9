"""Shared harness for the six ported Rodinia workloads (paper Section 3.4).

Every application is implemented twice:

* an **explicit** variant, the hipify-style baseline: separate host and
  device allocations, hipMemcpy at the phase boundaries (Listing 1);
* a **unified** variant: one allocation per logical buffer, no copies
  (Listing 2), using the Section 3.3 porting strategies where a
  challenge arises.

Both variants do the numerically identical computation with numpy, so
equality of their outputs is an invariant the test suite checks.  Total
time is what ``/usr/bin/time`` would report on the simulated clock; the
compute phase is bracketed with the inserted-timer analogue (clock
regions).  Peak memory is sampled libnuma-style.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..profiling.memusage import MemoryUsageProfiler
from ..runtime.apu import APU
from ..runtime.hip import HipRuntime, make_runtime

#: Simulated filesystem streaming bandwidth for I/O phases (bytes/s).
IO_BANDWIDTH = 2.0e9

#: Host bytes per grid row block of the stencil kernels (hotspot,
#: srad_v1): small enough that a block's neighbour buffers and
#: temporaries stay in cache across the ufunc passes over it.
BLOCK_BYTES = 128 << 10


@dataclass(frozen=True)
class AppResult:
    """One application run's headline numbers (one bar group of Fig. 11)."""

    app: str
    variant: str
    total_time_s: float
    compute_time_s: float
    peak_memory_bytes: int
    checksum: float

    @property
    def io_time_s(self) -> float:
        """Non-compute portion of the run."""
        return self.total_time_s - self.compute_time_s


@dataclass(frozen=True)
class Comparison:
    """Unified-vs-explicit ratios, normalised to the explicit baseline."""

    app: str
    variant: str
    total_time_ratio: float
    compute_time_ratio: float
    memory_ratio: float


def compare(baseline: AppResult, candidate: AppResult) -> Comparison:
    """Normalise *candidate* to *baseline* (the Fig. 11 presentation)."""
    if baseline.app != candidate.app:
        raise ValueError("comparing different applications")
    return Comparison(
        app=candidate.app,
        variant=candidate.variant,
        total_time_ratio=candidate.total_time_s / baseline.total_time_s,
        compute_time_ratio=candidate.compute_time_s / baseline.compute_time_s,
        memory_ratio=candidate.peak_memory_bytes
        / max(1, baseline.peak_memory_bytes),
    )


def block_buffers(grid: np.ndarray, count: int) -> List[np.ndarray]:
    """*count* row-block buffers shaped for :func:`neighbour_blocks`."""
    rows = max(1, min(grid.shape[0], BLOCK_BYTES // grid[0].nbytes))
    return [np.empty((rows, grid.shape[1]), grid.dtype) for _ in range(count)]


def neighbour_blocks(
    grid: np.ndarray,
    north: np.ndarray,
    south: np.ndarray,
    west: np.ndarray,
    east: np.ndarray,
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk *grid* in row blocks, filling each block's 4-neighbours.

    The four buffers are the caller's (``north.shape[0]`` rows per
    block); for every block this yields its row slice and views of the
    buffers holding the north/south/west/east neighbour of each cell,
    clamped at the grid's edges.  The caller may overwrite the views.
    """
    n_rows = grid.shape[0]
    step = north.shape[0]
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        k = r1 - r0
        n, s, w, e = north[:k], south[:k], west[:k], east[:k]
        block = grid[r0:r1]
        n[1:] = grid[r0:r1 - 1]
        n[0] = grid[max(r0 - 1, 0)]
        s[:-1] = grid[r0 + 1:r1]
        s[-1] = grid[min(r1, n_rows - 1)]
        w[:, 1:] = block[:, :-1]
        w[:, 0] = block[:, 0]
        e[:, :-1] = block[:, 1:]
        e[:, -1] = block[:, -1]
        yield slice(r0, r1), n, s, w, e


def simulate_io(apu: APU, nbytes: int) -> None:
    """Advance the clock by a file-read/write of *nbytes*."""
    if nbytes < 0:
        raise ValueError(f"negative I/O size {nbytes}")
    apu.clock.advance(nbytes / IO_BANDWIDTH * 1e9)


class RodiniaApp(abc.ABC):
    """Base class for the six ported workloads."""

    #: Application name (matches the Rodinia binary name).
    name: str = ""
    #: Variant labels this app supports.
    variants: Tuple[str, ...] = ("explicit", "unified")

    #: APU of the most recent run, kept so the chaos harness can check
    #: post-run invariants (leaked frames, page-table consistency) and
    #: traced runs can be analysed through its ``trace`` event log.
    last_apu = None

    #: Map from port model to the method names implementing it, used by
    #: ``repro advise --apps`` to bucket static findings per port.
    #: Apps whose entry points differ (nn, heartwall) override this.
    advise_ports: Dict[str, Tuple[str, ...]] = {
        "explicit": ("_run_explicit",),
        "managed": ("_run_unified",),
    }

    def default_params(self) -> Dict[str, int]:
        """Problem-size parameters (overridable per run)."""
        return {}

    @abc.abstractmethod
    def _run(
        self,
        variant: str,
        runtime: HipRuntime,
        profiler: MemoryUsageProfiler,
        params: Dict[str, int],
    ) -> float:
        """Execute one variant; returns the output checksum.

        Implementations bracket the main compute phase with
        ``runtime.apu.clock.region("compute")``.
        """

    def needs_xnack(self, variant: str) -> bool:
        """Whether the variant relies on GPU fault replay.

        Unified variants touch pageable memory from the GPU (nn's
        std::vector is the paper's example) and therefore run with
        HSA_XNACK=1, as the paper's unified configurations do.
        """
        return variant != "explicit"

    def run(
        self,
        variant: str = "explicit",
        memory_gib: Optional[int] = 16,
        params: Optional[Dict[str, int]] = None,
        seed: int = 0x1300A,
        trace: bool = False,
        inject=None,
    ) -> AppResult:
        """Run one variant on a fresh APU and collect the Fig. 11 metrics.

        With ``trace=True`` the runtime records an event log, available
        afterwards as ``last_apu.trace``.  *inject* attaches an
        :class:`~repro.inject.InjectionPlan` to the run's APU (the chaos
        harness's entry point); the APU stays reachable as
        :attr:`last_apu` for post-run invariant checks.
        """
        if variant not in self.variants:
            raise ValueError(
                f"{self.name} supports variants {self.variants}, "
                f"got {variant!r}"
            )
        merged = dict(self.default_params())
        if params:
            unknown = set(params) - set(merged)
            if unknown:
                raise ValueError(f"unknown params for {self.name}: {unknown}")
            merged.update(params)
        runtime = make_runtime(
            memory_gib, xnack=self.needs_xnack(variant), seed=seed,
            trace=trace, inject=inject,
        )
        self.last_apu = runtime.apu
        apu = runtime.apu
        profiler = MemoryUsageProfiler(apu)
        start = apu.clock.now_ns
        try:
            with apu.clock.region("total"):
                checksum = self._run(variant, runtime, profiler, merged)
                runtime.hipDeviceSynchronize()
            profiler.sample()
        finally:
            # Teardown: the apps borrow the runtime's memory arena and
            # leave their buffers live; the harness releases everything
            # here, after the measured window, the way process exit does
            # for the real Rodinia binaries.  hipFree is expensive at
            # these sizes (Fig. 6), so freeing inside the window would
            # distort the Fig. 11 ratios.  Running in a finally block
            # means a faulted run (injected fatal error) still returns
            # its frames — the no-leak invariant the chaos harness
            # checks.
            end_ns = apu.clock.now_ns
            for allocation in list(apu.memory.allocations):
                apu.memory.free(allocation)
        total_s = (end_ns - start) / 1e9
        compute_s = apu.clock.region_ns("compute") / 1e9
        return AppResult(
            app=self.name,
            variant=variant,
            total_time_s=total_s,
            compute_time_s=compute_s,
            peak_memory_bytes=profiler.peak_bytes,
            checksum=float(checksum),
        )
