"""dwt2d — 2D discrete wavelet transform (Rodinia).

Transforms an input image through several levels of a 2D Haar-style
wavelet decomposition.  The explicit variant stages the image to the
device through a *partial-transfer pipeline* — chunks are copied and
consumed in a loop to overlap movement with compute (the Section 3.3
"Partial Memory Transfer" pattern) — and copies the coefficients back.
In the unified variant the merged buffer obviates the transfers
entirely: the paper measures an 86 % compute-time reduction, while total
time barely moves because image I/O dominates it (Fig. 11).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..porting.strategies import ChunkSchedule, merged_pipeline
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io

#: Fitted per-pixel kernel cost of one DWT level (lifting steps),
#: calibrated so removing the transfers cuts compute time by ~86 %
#: (Fig. 11's dwt2d bar).
PIXEL_NS = 0.018

#: Pipeline chunk size of the explicit variant (rows worth of bytes).
CHUNK_BYTES = 16 << 20


def dwt_forward(
    image: np.ndarray, levels: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Multi-level forward 2D Haar DWT of *image* into *out* (float32).

    Each level transforms the LL quadrant: a horizontal pass writes the
    pairwise means and half-differences of the columns into a scratch
    grid, then a vertical pass does the same over its rows straight
    into *out*.  *image* is never written.
    """
    if out is None:
        out = np.empty(image.shape, np.float32)
    out[...] = image
    scratch = np.empty_like(out)
    h, w = out.shape
    for _ in range(levels):
        src, tmp = out[:h, :w], scratch[:h, :w]
        even, odd = src[:, 0::2], src[:, 1::2]
        low, high = tmp[:, : w // 2], tmp[:, w // 2:]
        np.divide(np.add(even, odd, out=low), 2.0, out=low)
        np.divide(np.subtract(even, odd, out=high), 2.0, out=high)
        top, bottom = tmp[0::2], tmp[1::2]
        low, high = src[: h // 2], src[h // 2:]
        np.divide(np.add(top, bottom, out=low), 2.0, out=low)
        np.divide(np.subtract(top, bottom, out=high), 2.0, out=high)
        h, w = h // 2, w // 2
        if h < 2 or w < 2:
            break
    return out


class Dwt2d(RodiniaApp):
    """The dwt2d workload in both memory models."""

    name = "dwt2d"

    def default_params(self) -> Dict[str, int]:
        return {"dim": 8192, "levels": 3}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        return self._run_unified(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _load_image(self, runtime: HipRuntime, profiler, dim: int, allocator: str):
        """The dominant I/O phase: decode the input bitmap.

        The decoder stages the raw RGB file and two component planes in
        temporary CPU buffers — this is where dwt2d's peak memory occurs,
        which is why unifying the GPU buffers does not reduce the
        application's peak usage (Fig. 11, lower plot).
        """
        apu = runtime.apu
        rng = np.random.default_rng(23)
        image = runtime.array((dim, dim), np.float32, allocator, name="image")
        # Temporary decode buffers: raw 3-byte pixels + two float planes.
        raw = apu.memory.malloc(dim * dim * 3, name="bmp_raw")
        planes = [
            apu.memory.malloc(dim * dim * 4, name=f"plane{i}") for i in range(2)
        ]
        apu.touch(raw, "cpu")
        for plane in planes:
            apu.touch(plane, "cpu")
        image.np[:] = rng.integers(0, 256, size=(dim, dim)).astype(np.float32)
        simulate_io(apu, raw.size_bytes)  # read the bitmap file
        init = KernelSpec(
            "bmp_decode", [BufferAccess(image.allocation, "write")]
        )
        runtime.runCpuKernel(init, threads=1)
        profiler.sample()  # the application's peak footprint is here
        for plane in planes:
            apu.memory.free(plane)
        apu.memory.free(raw)
        return image

    def _dwt_kernels(self, src_alloc, dst_alloc, dim: int, levels: int):
        """One KernelSpec per decomposition level (shrinking quadrant)."""
        specs = []
        h = dim
        for level in range(levels):
            nbytes = h * h * 4
            specs.append(
                KernelSpec(
                    f"fdwt53_level{level}",
                    [
                        BufferAccess(src_alloc, "read", size_bytes=nbytes),
                        BufferAccess(dst_alloc, "write", size_bytes=nbytes),
                    ],
                    compute_ns=h * h * PIXEL_NS,
                )
            )
            h //= 2
            if h < 2:
                break
        return specs

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        dim, levels = params["dim"], params["levels"]
        apu = runtime.apu
        h_image = self._load_image(runtime, profiler, dim, "malloc")
        d_image = runtime.array((dim, dim), np.float32, "hipMalloc")
        d_out = runtime.array((dim, dim), np.float32, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            # Partial-transfer pipeline: copy chunk i while chunk i-1 is
            # being pre-processed, then run the level kernels.
            schedule = ChunkSchedule(h_image.nbytes, min(CHUNK_BYTES, h_image.nbytes))
            for offset, size in schedule.chunks():
                runtime.hipMemcpy(
                    d_image, h_image, size, dst_offset=offset, src_offset=offset
                )
            for spec in self._dwt_kernels(
                d_image.allocation, d_out.allocation, dim, levels
            ):
                runtime.launchKernel(spec)
            runtime.hipDeviceSynchronize()
            dwt_forward(h_image.np, levels, out=d_out.np)
            runtime.hipMemcpy(h_image, d_out)
            profiler.sample()
        simulate_io(apu, h_image.nbytes)  # write coefficient planes
        return float(np.abs(h_image.np).sum())

    def _run_unified(self, runtime: HipRuntime, profiler, params):
        dim, levels = params["dim"], params["levels"]
        apu = runtime.apu
        image = self._load_image(runtime, profiler, dim, "hipMalloc")
        out = runtime.array((dim, dim), np.float32, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            # Merged buffers: same chunk coverage, zero transfers.
            schedule = ChunkSchedule(image.nbytes, min(CHUNK_BYTES, image.nbytes))
            merged_pipeline(schedule)  # the kernels consume chunks in place
            for spec in self._dwt_kernels(
                image.allocation, out.allocation, dim, levels
            ):
                runtime.launchKernel(spec)
            runtime.hipDeviceSynchronize()
            dwt_forward(image.np, levels, out=out.np)
            profiler.sample()
        simulate_io(apu, out.nbytes)
        return float(np.abs(out.np).sum())
