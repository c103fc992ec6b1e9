"""Unit tests for the amdgpu fragment scan (repro.core.fragments)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.fragments import (
    average_fragment_bytes,
    compute_fragments,
    contiguous_runs,
    distinct_fragments,
    fragment_histogram,
)


def _scalar_trailing_zeros(value: int) -> int:
    if value == 0:
        return 63
    return (value & -value).bit_length() - 1


def _assign_run(out, frames, base_vpn, start, length, max_exponent):
    """Greedy aligned power-of-two decomposition of one contiguous run.

    Mirrors amdgpu's update loop: repeatedly emit the largest block that
    (a) starts at the current position, (b) is aligned at both the virtual
    and physical page number, and (c) fits in the remainder of the run.
    """
    pos = start
    end = start + length
    while pos < end:
        align = min(
            _scalar_trailing_zeros(base_vpn + pos),
            _scalar_trailing_zeros(frames[pos]),
        )
        remaining = end - pos
        size_exp = min(align, remaining.bit_length() - 1, max_exponent)
        block = 1 << size_exp
        out[pos : pos + block] = size_exp
        pos += block


def reference_fragments(frames, base_vpn, max_exponent=31):
    """The scalar greedy scan, run by run: the oracle for the fast path."""
    frames = [int(f) for f in frames]
    out = np.zeros(len(frames), dtype=np.int8)
    start = 0
    for i in range(1, len(frames) + 1):
        if i == len(frames) or frames[i] != frames[i - 1] + 1:
            _assign_run(out, frames, base_vpn, start, i - start, max_exponent)
            start = i
    return out


def _aligned(max_value_bits, max_align):
    """Non-negative ints with a chosen number of trailing zero bits."""
    return st.builds(
        lambda m, k: m << k,
        st.integers(0, 1 << max_value_bits),
        st.integers(0, max_align),
    )


@st.composite
def run_layouts(draw):
    """(frames, base_vpn): runs placed at a drawn ``pfn - vpn`` delta.

    Deltas mix odd, zero, negative and highly aligned values, so runs
    start at ``pfn == 0``, merge with their neighbours or stay single
    pages, and the base may be ``vpn == 0``.
    """
    base_vpn = draw(_aligned(16, 24))
    pieces, pos = [], 0
    for _ in range(draw(st.integers(0, 6))):
        delta = draw(_aligned(12, 22)) * draw(st.sampled_from([1, -1]))
        length = draw(st.integers(1, 300))
        start = max(0, base_vpn + pos + delta)
        pieces.append(np.arange(start, start + length, dtype=np.int64))
        pos += length
    frames = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return frames, base_vpn


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs(np.array([], dtype=np.int64)) == []

    def test_single_run(self):
        assert contiguous_runs(np.arange(5)) == [(0, 5)]

    def test_all_isolated(self):
        assert contiguous_runs(np.array([0, 2, 4])) == [(0, 1), (1, 1), (2, 1)]

    def test_mixed(self):
        frames = np.array([10, 11, 12, 20, 30, 31])
        assert contiguous_runs(frames) == [(0, 3), (3, 1), (4, 2)]


class TestComputeFragments:
    def test_scattered_pages_are_exponent_zero(self):
        frames = np.array([5, 99, 17, 1000])
        assert (compute_fragments(frames, base_vpn=0) == 0).all()

    def test_aligned_contiguous_block(self):
        # 16 pages, VA and PA both 16-aligned: one exponent-4 fragment.
        frames = np.arange(64, 80)
        exps = compute_fragments(frames, base_vpn=16)
        assert (exps == 4).all()

    def test_unaligned_physical_run_decomposes(self):
        # Physically contiguous but starting at an odd frame: the first
        # page cannot join a larger block; the aligned middle can.
        frames = np.arange(7, 7 + 8)
        exps = compute_fragments(frames, base_vpn=7)
        assert exps[0] == 0  # pfn 7 has no trailing zeros
        assert exps.max() >= 2  # pfn 8..11 forms an aligned 4-page block

    def test_odd_va_pa_delta_prevents_fragments(self):
        # VA and PA alignments can never coincide when their delta is
        # odd, so a physically contiguous run still yields single pages.
        frames = np.arange(7, 7 + 8)
        exps = compute_fragments(frames, base_vpn=0)
        assert (exps == 0).all()

    def test_virtual_alignment_limits(self):
        # PA aligned, but VA base odd: blocks limited by VPN alignment.
        frames = np.arange(64, 72)
        exps = compute_fragments(frames, base_vpn=1)
        assert exps[0] == 0

    def test_aligned_pair(self):
        frames = np.array([10, 11])  # pfn 10 is 2-aligned
        exps = compute_fragments(frames, base_vpn=2)
        assert (exps == 1).all()

    def test_unaligned_pair_stays_single_pages(self):
        frames = np.array([11, 12])
        exps = compute_fragments(frames, base_vpn=2)
        assert (exps == 0).all()

    def test_max_exponent_cap(self):
        frames = np.arange(0, 64)
        exps = compute_fragments(frames, base_vpn=0, max_exponent=3)
        assert exps.max() == 3

    def test_block_coverage_is_consistent(self):
        # Every aligned block of 2**e pages shares one exponent.
        frames = np.arange(0, 128)
        exps = compute_fragments(frames, base_vpn=0)
        for start in range(0, 128, 1 << int(exps[0])):
            block = exps[start : start + (1 << int(exps[start]))]
            assert (block == block[0]).all()

    def test_empty(self):
        assert len(compute_fragments(np.array([], dtype=np.int64), 0)) == 0


class TestAgainstScalarReference:
    @given(layout=run_layouts(), max_exponent=st.integers(0, 31))
    @settings(max_examples=300, deadline=None)
    @example(layout=(np.empty(0, dtype=np.int64), 0), max_exponent=31)
    @example(layout=(np.array([0]), 0), max_exponent=31)
    @example(layout=(np.array([5]), 3), max_exponent=0)
    @example(layout=(np.arange(0, 1024), 0), max_exponent=31)
    @example(layout=(np.arange(0, 1024), 0), max_exponent=0)
    @example(layout=(np.arange(1 << 20, (1 << 20) + 777), 512), max_exponent=5)
    @example(layout=(np.arange(1, 600), 0), max_exponent=31)
    def test_matches_greedy_scan(self, layout, max_exponent):
        frames, base_vpn = layout
        fast = compute_fragments(frames, base_vpn, max_exponent)
        assert fast.dtype == np.int8
        np.testing.assert_array_equal(
            fast, reference_fragments(frames, base_vpn, max_exponent)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_on_allocator_layouts(self, seed):
        # Pairs and chunks with gaps, as the allocators lay them out.
        rng = np.random.default_rng(seed)
        starts = np.sort(rng.choice(1 << 14, size=200, replace=False)) * 16
        runs = rng.choice([1, 2, 4, 16], size=200)
        frames = np.concatenate(
            [np.arange(s, s + r) for s, r in zip(starts, runs)]
        )
        base_vpn = int(rng.integers(0, 1 << 20)) << 4
        np.testing.assert_array_equal(
            compute_fragments(frames, base_vpn),
            reference_fragments(frames, base_vpn),
        )


class TestAggregates:
    def test_fragment_histogram(self):
        exps = np.array([0, 0, 1, 1, 4])
        assert fragment_histogram(exps) == {0: 2, 1: 2, 4: 1}

    def test_distinct_fragments_single_pages(self):
        assert distinct_fragments(np.zeros(10, dtype=np.int8)) == 10

    def test_distinct_fragments_blocks(self):
        # 16 pages as one exponent-4 block -> 1 fragment.
        assert distinct_fragments(np.full(16, 4, dtype=np.int8)) == 1

    def test_distinct_fragments_mixed(self):
        exps = np.concatenate([np.full(16, 4), np.zeros(4)]).astype(np.int8)
        assert distinct_fragments(exps) == 5

    def test_average_fragment_bytes(self):
        exps = np.full(16, 4, dtype=np.int8)
        assert average_fragment_bytes(exps) == pytest.approx(64 * 1024)
        assert average_fragment_bytes(np.zeros(4, dtype=np.int8)) == 4096.0

    def test_average_fragment_empty(self):
        assert average_fragment_bytes(np.array([], dtype=np.int8)) == 0.0
