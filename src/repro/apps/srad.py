"""srad_v1 — speckle-reducing anisotropic diffusion (Rodinia).

An iterative image-denoising stencil: each iteration computes diffusion
coefficients from local gradients and then updates the image.  The
explicit variant performs only a small transfer per iteration (the
statistics needed for the diffusion coefficient), so runtime is
dominated by kernel execution and the unified variant's compute time is
essentially unchanged (Fig. 11).  The port exercises two Section 3.3
strategies: merged buffers for the partial per-iteration transfers, and
a *stack variable* — the loop-stop flag written by a GPU kernel — which
is safe to share because the host synchronises before reading it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..porting.strategies import StackFlag
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, block_buffers, neighbour_blocks, simulate_io

#: Diffusion coefficient scale of the Rodinia code.
LAMBDA = 0.5

#: Fitted per-pixel cost of one iteration's two kernels combined
#: (kernel execution dominates srad_v1's runtime, Fig. 11).
PIXEL_NS = 0.15


def _srad_iteration(
    image: np.ndarray, out: np.ndarray, scratch: List[np.ndarray]
) -> None:
    """One numerically real SRAD update of *image* into *out*.

    Edge pixels clamp outward.  The image statistics for q0 come from
    the whole array first (numpy's pairwise sums depend on the memory
    layout, so they are never taken blockwise); the element-wise update
    then runs per row block, operation by operation in the order of
    ``image + (LAMBDA / 4) * coeff * grad``.  *scratch* is six
    :func:`block_buffers` of *image*.
    """
    mean = image.mean()
    var = image.var()
    q0_sq = var / (mean * mean + 1e-12)
    q0_scale = q0_sq * (1.0 + q0_sq) + 1e-12

    north, south, west, east, grad, tmp = scratch
    for rows, n, s, w, e in neighbour_blocks(image, north, south, west, east):
        i = image[rows]
        g, t = grad[: len(i)], tmp[: len(i)]
        # grad = north + south + east + west - 4 image
        np.add(n, s, out=g)
        np.add(g, e, out=g)
        np.add(g, w, out=g)
        np.subtract(g, np.multiply(i, 4.0, out=t), out=g)
        # num = (n - i)^2 + (s - i)^2 + ((e - i)^2 + (w - i)^2), into n
        for d in (n, s, e, w):
            np.square(np.subtract(d, i, out=d), out=d)
        np.add(n, s, out=n)
        np.add(e, w, out=e)
        np.add(n, e, out=n)
        # q_sq = (0.5 num / denom - 0.0625 (grad / i)^2)
        #        / ((1 + 0.25 grad / i)^2 + 1e-12), into n
        np.add(np.multiply(i, i, out=t), 1e-12, out=t)  # denom
        np.multiply(n, 0.5, out=n)
        np.divide(n, t, out=n)
        np.square(np.divide(g, i, out=t), out=t)
        np.subtract(n, np.multiply(t, 0.0625, out=t), out=n)
        np.divide(np.multiply(g, 0.25, out=t), i, out=t)
        np.square(np.add(t, 1.0, out=t), out=t)
        np.divide(n, np.add(t, 1e-12, out=t), out=n)
        # coeff = clip(1 / (1 + (q_sq - q0_sq) / q0_scale), 0, 1), into n
        np.divide(np.subtract(n, q0_sq, out=n), q0_scale, out=n)
        np.divide(1.0, np.add(n, 1.0, out=n), out=n)
        np.clip(n, 0.0, 1.0, out=n)
        np.multiply(np.multiply(n, LAMBDA / 4.0, out=n), g, out=n)
        np.add(i, n, out=out[rows])


class SradV1(RodiniaApp):
    """The srad_v1 workload in both memory models."""

    name = "srad_v1"

    def default_params(self) -> Dict[str, int]:
        return {"dim": 1024, "iterations": 40}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        return self._run_unified(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _load(self, runtime: HipRuntime, dim: int, allocator: str):
        rng = np.random.default_rng(31)
        image = runtime.array((dim, dim), np.float32, allocator, name="image")
        image.np[:] = np.exp(
            rng.random((dim, dim), dtype=np.float32)
        )
        simulate_io(runtime.apu, image.nbytes)
        init = KernelSpec("read_pgm", [BufferAccess(image.allocation, "write")])
        runtime.runCpuKernel(init, threads=1)
        return image

    def _iteration_kernels(self, image_alloc, coeff_alloc, dim: int):
        prepare = KernelSpec(
            "srad_kernel1",  # gradients + diffusion coefficient
            [
                BufferAccess(image_alloc, "read"),
                BufferAccess(coeff_alloc, "write"),
            ],
            compute_ns=dim * dim * PIXEL_NS * 0.5,
        )
        update = KernelSpec(
            "srad_kernel2",  # divergence + image update
            [
                BufferAccess(coeff_alloc, "read"),
                BufferAccess(image_alloc, "readwrite"),
            ],
            compute_ns=dim * dim * PIXEL_NS * 0.5,
        )
        return prepare, update

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        dim, iterations = params["dim"], params["iterations"]
        apu = runtime.apu
        h_image = self._load(runtime, dim, "malloc")
        h_stats = runtime.array(2, np.float32, "malloc", name="stats")
        d_image = runtime.array((dim, dim), np.float32, "hipMalloc")
        d_coeff = runtime.array((dim, dim), np.float32, "hipMalloc")
        d_stats = runtime.array(2, np.float32, "hipMalloc")
        profiler.sample()

        result, spare = h_image.np.astype(np.float64), np.empty((dim, dim))
        scratch = block_buffers(result, 6)
        with apu.clock.region("compute"):
            runtime.hipMemcpy(d_image, h_image)
            prepare, update = self._iteration_kernels(
                d_image.allocation, d_coeff.allocation, dim
            )
            for _ in range(iterations):
                # Per-iteration partial transfer: image statistics for q0.
                runtime.hipMemcpy(h_stats, d_stats)
                runtime.launchKernel(prepare)
                runtime.launchKernel(update)
                _srad_iteration(result, spare, scratch)
                result, spare = spare, result
            runtime.hipDeviceSynchronize()
            d_image.np[:] = result
            runtime.hipMemcpy(h_image, d_image)
            profiler.sample()
        simulate_io(apu, h_image.nbytes)
        return float(h_image.np.mean())

    def _run_unified(self, runtime: HipRuntime, profiler, params):
        dim, iterations = params["dim"], params["iterations"]
        apu = runtime.apu
        image = self._load(runtime, dim, "hipMalloc")
        coeff = runtime.array((dim, dim), np.float32, "hipMalloc")
        profiler.sample()

        result, spare = image.np.astype(np.float64), np.empty((dim, dim))
        scratch = block_buffers(result, 6)
        with apu.clock.region("compute"):
            prepare, update = self._iteration_kernels(
                image.allocation, coeff.allocation, dim
            )
            # The loop-stop flag lives on the host stack and is written
            # by the GPU kernel; safe under the synchronise-before-read
            # discipline (Section 3.3, Stack Variables).
            with StackFlag(runtime, initial=1.0) as continue_flag:
                i = 0
                while continue_flag.read() and i < iterations:
                    runtime.launchKernel(prepare)
                    kernel = runtime.launchKernel(update)
                    _srad_iteration(result, spare, scratch)
                    result, spare = spare, result
                    i += 1
                    continue_flag.gpu_write(
                        1.0 if i < iterations else 0.0
                    )
                runtime.hipDeviceSynchronize()
            image.np[:] = result
            profiler.sample()
        simulate_io(apu, image.nbytes)
        return float(image.np.mean())
