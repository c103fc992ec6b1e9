#!/usr/bin/env python3
"""flaky_port: a unified-memory port surviving injected hardware faults.

A small staged pipeline (host build, H2D copy, kernel, D2H copy) is run
three times on the simulated MI300A:

1. **clean** — no injection, establishing the reference checksum;
2. **recoverable campaign** — transient allocation failures, a stalled
   and a failed SDMA transfer, and correctable HBM ECC errors.  The
   hardened HIP runtime absorbs every fault (bounded retry-with-backoff,
   blit-path failover, ECC scrub latency) and the output checksum still
   matches the clean run;
3. **fatal campaign** — a non-retryable SDMA engine abort.  The run
   fails *cleanly*: a typed ``HipError`` whose code is also latched for
   ``hipGetLastError``, and teardown still returns every physical frame.

``tests/test_inject.py`` runs all three scenarios as a regression test;
run it by hand with:  python examples/flaky_port.py
"""

import numpy as np

from repro import BufferAccess, KernelSpec, make_runtime
from repro.inject import CallWindow, InjectionPlan, Injector, NthCall, Probability
from repro.runtime.hip import HipError, hipSuccess

#: Pipeline working-set size (elements of float32).
ELEMENTS = 1 << 20


def recoverable_plan(seed: int = 7) -> InjectionPlan:
    """Faults the hardened runtime must absorb without output changes."""
    return InjectionPlan(
        [
            Injector("physical.alloc", "transient", CallWindow(1, 3), times=2),
            Injector("sdma.transfer", "stall", NthCall(1),
                     params={"factor": 4.0}),
            Injector("sdma.transfer", "failure", NthCall(2)),
            Injector("hbm.ecc", "correctable", Probability(0.25), times=2),
        ],
        seed=seed,
        name="flaky-port-recoverable",
    )


def fatal_plan(seed: int = 7) -> InjectionPlan:
    """A non-retryable SDMA abort: the pipeline must fail typed."""
    return InjectionPlan(
        [Injector("sdma.transfer", "abort", NthCall(1))],
        seed=seed,
        name="flaky-port-fatal",
    )


def run_pipeline(inject=None, memory_gib: int = 4) -> dict:
    """One pipeline pass; returns a summary the caller can assert on."""
    hip = make_runtime(memory_gib=memory_gib, inject=inject)
    rng = np.random.default_rng(11)
    values = rng.random(ELEMENTS, dtype=np.float32)
    nbytes = ELEMENTS * 4

    error = None
    checksum = None
    try:
        host = hip.array(ELEMENTS, np.float32, "malloc", name="host_src")
        hip.apu.touch(host.allocation, "cpu")
        device = hip.hipMalloc(nbytes, name="device")
        result = hip.hipMalloc(nbytes, name="result")
        hip.hipMemcpy(device, host.allocation, nbytes)

        hip.launchKernel(KernelSpec(
            "scale",
            [
                BufferAccess(device, "read", size_bytes=nbytes),
                BufferAccess(result, "write", size_bytes=nbytes),
            ],
            compute_ns=ELEMENTS * 0.01,
        ))
        hip.hipDeviceSynchronize()

        host_out = hip.array(ELEMENTS, np.float32, "malloc", name="host_out")
        hip.apu.touch(host_out.allocation, "cpu")
        hip.hipMemcpy(host_out, result, nbytes)
        # The simulator models timing, not data — the "computation" runs
        # host-side, so a surviving pipeline reproduces this exactly.
        checksum = float(np.sum(values * 2.0))
        hip.hipFree(host)
        hip.hipFree(device)
        hip.hipFree(result)
        hip.hipFree(host_out)
    except HipError as failure:
        error = failure
    finally:
        # The fatal scenario bails mid-pipeline: drain the device, then
        # release the stragglers.
        hip.hipDeviceSynchronize()
        for allocation in list(hip.apu.memory.allocations):
            hip.hipFree(allocation)

    return {
        "checksum": checksum,
        "error": error,
        "last_error": hip.hipPeekAtLastError(),
        "free_frames": hip.apu.physical.free_frames,
        "total_frames": hip.apu.physical.total_frames,
        "elapsed_ns": hip.apu.clock.now_ns,
        "fired": inject.fired() if inject is not None else 0,
        "notes": list(inject.notes()) if inject is not None else [],
    }


def main() -> int:
    clean = run_pipeline()
    print(f"clean:       checksum={clean['checksum']:.3f} "
          f"elapsed={clean['elapsed_ns'] / 1e6:.2f} ms")

    flaky = run_pipeline(inject=recoverable_plan())
    recovered = [note["event"] for note in flaky["notes"]
                 if note["event"].startswith(("recover.", "degrade."))]
    print(f"recoverable: checksum={flaky['checksum']:.3f} "
          f"elapsed={flaky['elapsed_ns'] / 1e6:.2f} ms "
          f"faults={flaky['fired']} recoveries={len(recovered)}")
    for event in recovered:
        print(f"    {event}")
    assert flaky["checksum"] == clean["checksum"], "output diverged"
    assert flaky["last_error"] == hipSuccess

    fatal = run_pipeline(inject=fatal_plan())
    assert fatal["error"] is not None, "the abort should have surfaced"
    print(f"fatal:       {fatal['error'].code} "
          f"(last_error={fatal['last_error']})")
    assert fatal["free_frames"] == fatal["total_frames"], "leaked frames"

    print("all scenarios behaved; no frames leaked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
