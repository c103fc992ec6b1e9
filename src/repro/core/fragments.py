"""Opportunistic GPU page-table fragment computation.

A *fragment* is a virtually and physically contiguous, naturally aligned,
power-of-two run of pages with identical flags.  The GPU L1 TLB can hold a
single entry for a whole fragment, greatly increasing its reach (paper
Section 3.2).  The amdgpu driver sets the 5-bit PTE fragment field
opportunistically by scanning for maximal contiguous page ranges when it
maps pages.

This module reproduces that scan.  Given the physical frames backing a
virtually contiguous page range, it:

1. finds maximal runs where frames are physically contiguous (constant
   ``frame - vpn`` delta),
2. decomposes each run into maximal power-of-two blocks aligned in both
   the virtual and the physical address space (which coincide whenever the
   run's delta is itself suitably aligned), and
3. assigns each page the exponent of its covering block.

Up-front allocators produce long aligned runs and therefore large
fragments; on-demand first-touch order produces mostly single-page runs
and fragment exponent 0 — the mechanism behind Fig. 9's TLB miss gap.
"""

from __future__ import annotations

import numpy as np

from ..hw.config import MAX_FRAGMENT_EXPONENT


def _adjacent(frames: np.ndarray) -> np.ndarray:
    """Run boundaries: entry i is True when page i+1's frame follows page i's."""
    return np.diff(frames) == 1


def contiguous_runs(frames: np.ndarray) -> list[tuple[int, int]]:
    """Maximal physically contiguous runs over a virtually contiguous range.

    *frames* holds the physical frame of each consecutive virtual page.
    Returns ``(start_index, length)`` pairs covering the whole range.
    """
    frames = np.asarray(frames, dtype=np.int64)
    n = len(frames)
    if n == 0:
        return []
    breaks = np.flatnonzero(~_adjacent(frames)) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [n]))
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]


def compute_fragments(
    frames: np.ndarray,
    base_vpn: int,
    max_exponent: int = MAX_FRAGMENT_EXPONENT,
) -> np.ndarray:
    """Per-page fragment exponents for a mapped virtual range.

    amdgpu's greedy walk emits, at each position of a contiguous run, the
    largest block aligned at both the virtual and the physical page number
    that fits in the rest of the run.  That gives every page the largest
    ``2**e``-page block aligned in both spaces that contains it and lies
    wholly inside its run (MODELING.md section 4).  A block of level ``e``
    qualifies when both of its level ``e - 1`` halves do, the halves are
    physically adjacent, and its first frame is ``2**e``-aligned, so one
    pass per level finds them all, stopping at the first empty level.

    Args:
        frames: physical frame number of each consecutive virtual page,
            starting at virtual page number *base_vpn*.
        base_vpn: virtual page number of ``frames[0]`` (fragment blocks
            must be aligned in the virtual address space).
        max_exponent: cap on the exponent (5-bit field -> 31).

    Returns:
        int8 array of the same length: entry i covers ``2**exp[i]`` pages.
    """
    frames = np.asarray(frames, dtype=np.int64)
    n = len(frames)
    top = min(max_exponent, n.bit_length() - 1)
    if top <= 0:
        return np.zeros(n, dtype=np.int8)
    # Index pages from the 2**top-aligned page at or below base_vpn, so the
    # level-e blocks are the slices [k << e, (k + 1) << e) of that index.
    pad = int(base_vpn) & ((1 << top) - 1)
    size = -(-(pad + n) >> top) << top
    adjacent = np.zeros(size, dtype=bool)
    adjacent[pad : pad + n - 1] = _adjacent(frames)
    ok = np.zeros(size, dtype=bool)
    ok[pad : pad + n] = True
    levels = []
    for e in range(1, top + 1):
        step = 1 << e
        ok = ok[0::2] & ok[1::2] & adjacent[step // 2 - 1 :: step]
        # The first frame of every block that starts inside the range.
        first = -pad % step
        lead = frames[first::step]
        k0 = (pad + first) >> e
        ok[k0 : k0 + len(lead)] &= (lead & (step - 1)) == 0
        if not ok.any():
            break
        levels.append(ok)
    # Each page's exponent is the number of levels whose block holds it.
    depth = levels.pop().astype(np.int8) if levels else np.zeros(size, np.int8)
    for ok in reversed(levels):
        depth = np.repeat(depth, 2) + ok
    return np.repeat(depth, size // len(depth))[pad : pad + n]


def fragment_histogram(exponents: np.ndarray) -> dict[int, int]:
    """Count of pages per fragment exponent (for profiling/diagnostics)."""
    exponents = np.asarray(exponents)
    values, counts = np.unique(exponents, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def distinct_fragments(exponents: np.ndarray) -> int:
    """Number of distinct fragment entries covering the range.

    Each block of ``2**exp`` pages sharing one exponent is a single TLB
    entry, so the count of distinct fragments is what a streaming kernel's
    TLB miss counter converges to (one miss per fragment per pass when the
    stream exceeds TLB reach).
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    if len(exponents) == 0:
        return 0
    weights = 1.0 / np.power(2.0, exponents)
    return int(round(float(weights.sum())))


def average_fragment_bytes(exponents: np.ndarray, page_size: int = 4096) -> float:
    """Average fragment size in bytes over the mapped range."""
    count = distinct_fragments(exponents)
    if count == 0:
        return 0.0
    return len(exponents) * page_size / count
