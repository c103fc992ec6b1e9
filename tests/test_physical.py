"""Unit tests for the physical frame allocator (repro.core.physical)."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.config import PAGE_SIZE, small_config
from repro.hw.hbm import HBMSubsystem, channel_balance
from repro.core.physical import OutOfMemoryError, PhysicalMemory, _all_set_blocks


@pytest.fixture
def phys():
    return PhysicalMemory(small_config(1 << 30))


class TestBookkeeping:
    def test_starts_all_free(self, phys):
        assert phys.free_frames == phys.total_frames
        assert phys.used_bytes == 0

    def test_alloc_reduces_free(self, phys):
        phys.alloc_chunks(100, 16)
        assert phys.free_frames == phys.total_frames - 100
        assert phys.used_bytes == 100 * PAGE_SIZE

    def test_free_restores(self, phys):
        frames = phys.alloc_chunks(64, 16)
        phys.free(frames)
        assert phys.free_frames == phys.total_frames

    def test_double_free_rejected(self, phys):
        frames = phys.alloc_chunks(16, 16)
        phys.free(frames)
        with pytest.raises(ValueError):
            phys.free(frames)

    def test_free_out_of_range_rejected(self, phys):
        with pytest.raises(ValueError):
            phys.free(np.array([phys.total_frames + 1]))

    def test_free_empty_is_noop(self, phys):
        phys.free(np.array([], dtype=np.int64))
        assert phys.free_frames == phys.total_frames


class TestContiguousAllocation:
    def test_chunks_are_contiguous_and_aligned(self, phys):
        frames = phys.alloc_chunks(64, 16)
        for i in range(0, 64, 16):
            chunk = frames[i : i + 16]
            assert (np.diff(chunk) == 1).all()
            assert chunk[0] % 16 == 0

    def test_partial_tail_chunk(self, phys):
        frames = phys.alloc_chunks(20, 16)
        assert len(frames) == 20
        assert len(np.unique(frames)) == 20

    def test_separate_chunks_do_not_merge(self, phys):
        frames = phys.alloc_chunks(64, 16)
        # Gap between consecutive chunks (steady-state fragmentation model).
        for i in range(16, 64, 16):
            assert frames[i] != frames[i - 1] + 1

    def test_chunk_pages_must_be_power_of_two(self, phys):
        with pytest.raises(ValueError):
            phys.alloc_chunks(10, 3)

    def test_oversized_request_rejected(self, phys):
        with pytest.raises(OutOfMemoryError):
            phys.alloc_chunks(phys.total_frames + 1, 16)

    def test_chunked_allocation_covers_all_channels(self, phys):
        hbm = HBMSubsystem(small_config(1 << 30).hbm)
        frames = phys.alloc_chunks(128 * 32, 16)
        hist = hbm.channel_histogram(frames)
        assert channel_balance(hist) > 0.9

    def test_zero_pages_rejected(self, phys):
        with pytest.raises(ValueError):
            phys.alloc_chunks(0, 16)


class TestScatteredAllocation:
    def test_unique_free_frames(self, phys):
        frames = phys.alloc_scattered(5000)
        assert len(np.unique(frames)) == 5000
        assert not phys._free[frames].any()

    def test_low_contiguity(self, phys):
        frames = np.sort(phys.alloc_scattered(4096))
        adjacent = (np.diff(frames) == 1).sum()
        # Mostly pairs at best: never long runs.
        runs = np.split(frames, np.flatnonzero(np.diff(frames) != 1) + 1)
        assert max(len(r) for r in runs) <= 4

    def test_channel_bias(self):
        cfg = small_config(8 << 30)
        phys = PhysicalMemory(cfg)
        hbm = HBMSubsystem(cfg.hbm)
        frames = phys.alloc_scattered(50_000)
        hist = hbm.channel_histogram(frames)
        # Scattered draws follow the skewed free list: clearly unbalanced.
        assert channel_balance(hist) < 0.5

    def test_pair_fraction_controls_adjacency(self):
        def paired_fraction(pf):
            phys = PhysicalMemory(small_config(1 << 30), seed=7)
            frames = np.sort(phys.alloc_scattered(2048, pair_fraction=pf))
            runs = np.split(frames, np.flatnonzero(np.diff(frames) != 1) + 1)
            return sum(len(r) for r in runs if len(r) > 1) / 2048

        # Hot channels make some accidental adjacency unavoidable, but
        # the buddy-pair fraction must clearly dominate it.
        assert paired_fraction(0.0) < paired_fraction(0.88) - 0.2

    def test_deterministic_given_seed(self):
        cfg = small_config(1 << 30)
        a = PhysicalMemory(cfg, seed=42).alloc_scattered(1000)
        b = PhysicalMemory(cfg, seed=42).alloc_scattered(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        cfg = small_config(1 << 30)
        a = PhysicalMemory(cfg, seed=1).alloc_scattered(1000)
        b = PhysicalMemory(cfg, seed=2).alloc_scattered(1000)
        assert not np.array_equal(a, b)

    def test_nearly_full_pool_falls_back_to_sweep(self):
        phys = PhysicalMemory(small_config(1 << 30))
        bulk = phys.alloc_chunks((phys.total_frames // 16 - 2) * 16, 16)
        remaining = phys.free_frames
        frames = phys.alloc_scattered(remaining)
        assert len(frames) == remaining
        assert phys.free_frames == 0

    def test_exhaustion_raises(self, phys):
        with pytest.raises(OutOfMemoryError):
            phys.alloc_scattered(phys.total_frames + 1)


class TestChannelWeights:
    def test_weights_normalised(self, phys):
        weights = phys.channel_weights()
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()

    def test_zero_skew_is_uniform(self):
        cfg = small_config(1 << 30)
        cfg = cfg.replace(
            policy=cfg.policy.__class__(free_list_channel_skew=0.0)
        )
        phys = PhysicalMemory(cfg)
        weights = phys.channel_weights()
        assert np.allclose(weights, weights[0])


def reference_chunk_frames(free, npages, chunk_pages, frame_range=None):
    """alloc_chunks' frames from a row-wise block scan and one arange per chunk."""
    if frame_range is None:
        first_block, usable = 0, (len(free) // chunk_pages) * chunk_pages
    else:
        lo, hi = frame_range
        first_block = -(-lo // chunk_pages)
        usable = (hi // chunk_pages) * chunk_pages
    blocks = free[first_block * chunk_pages : usable].reshape(-1, chunk_pages)
    candidates = first_block + np.flatnonzero(blocks.all(axis=1))
    count = -(-npages // chunk_pages)
    if len(candidates) >= 3 * count:
        candidates = candidates[::3]
    starts = candidates[:count] * chunk_pages
    frames = np.concatenate(
        [np.arange(s, s + chunk_pages, dtype=np.int64) for s in starts]
    )
    return frames[:npages]


class TestFastPathsAgainstReference:
    @pytest.mark.parametrize("frame_range", [None, (1003, 50_000)])
    @pytest.mark.parametrize("chunk_pages", [1, 2, 4, 8, 16, 64])
    def test_chunk_frames_match_reference(self, chunk_pages, frame_range):
        # Punch scattered holes first so the block scan has work to do.
        phys = PhysicalMemory(small_config(1 << 28), seed=11)
        free = np.ones(phys.total_frames, dtype=bool)
        free[phys.alloc_scattered(1500)] = False
        # Asking for more pages than the pool holds lists every free chunk.
        every = len(reference_chunk_frames(
            free, phys.total_frames, chunk_pages, frame_range
        ))
        # A strided request (few chunks) and a dense one (most of them),
        # each ending in a partial chunk when chunk_pages > 1.
        for npages in (37 * chunk_pages + chunk_pages // 2, every * 2 // 3 + 1):
            expected = reference_chunk_frames(
                free, npages, chunk_pages, frame_range
            )
            frames = phys.alloc_chunks(npages, chunk_pages, frame_range)
            assert frames.dtype == np.int64
            np.testing.assert_array_equal(frames, expected)
            free[frames] = False

    @given(
        width_exp=st.integers(0, 10),
        nblocks=st.integers(1, 40),
        offset_blocks=st.integers(0, 3),
        density=st.sampled_from([0.3, 0.9, 0.995, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_block_scan_matches_row_all(
        self, width_exp, nblocks, offset_blocks, density, seed
    ):
        width = 1 << width_exp
        pool = np.random.default_rng(seed).random(
            (nblocks + offset_blocks) * width
        ) < density
        bits = pool[offset_blocks * width :]
        np.testing.assert_array_equal(
            _all_set_blocks(bits, width), bits.reshape(-1, width).all(axis=1)
        )


def skewed_config(skew, memory_bytes=1 << 28):
    cfg = small_config(memory_bytes)
    return cfg.replace(
        policy=dataclasses.replace(cfg.policy, free_list_channel_skew=skew)
    )


def reference_draw(phys, rng, free, ndraws, run, lo, hi):
    """The scattered draw loop as first written: channels from
    ``Generator.choice``, the window filter on every attempt and
    ``np.unique`` before the overlap filter.

    Claims frames in the *free* bitmap copy; raises OutOfMemoryError where
    the window lacks free frames.
    """
    weights = phys.channel_weights()
    mod = phys._residue_modulus
    k_lo, k_hi = -(-lo // mod), hi // mod
    total = ndraws * run
    out = np.empty(total, dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < total and attempts < 64:
        need_runs = (total - filled + run - 1) // run
        n = max(int(need_runs * 1.6) + 16, 32)
        channels = rng.choice(len(weights), size=n, p=weights)
        ks = rng.integers(k_lo, max(k_hi - 1, k_lo + 1), size=n)
        starts = phys._channel_residue[channels] + ks * mod
        if run > 1:
            starts &= ~np.int64(run - 1)
        starts = starts[(starts >= lo) & (starts + run <= hi)]
        ok = free[starts]
        for extra in range(1, run):
            ok &= free[starts + extra]
        starts = np.unique(starts[ok])
        if run > 1 and starts.size > 1:
            keep = np.empty(starts.size, dtype=bool)
            keep[0] = True
            keep[1:] = np.diff(starts) >= run
            starts = starts[keep]
        starts = starts[:need_runs]
        if starts.size:
            frames = (starts[:, None] + np.arange(run, dtype=np.int64)).ravel()
            free[frames] = False
            out[filled : filled + len(frames)] = frames
            filled += len(frames)
        attempts += 1
    if filled < total:
        free_idx = lo + np.flatnonzero(free[lo:hi])[: total - filled]
        if len(free_idx) < total - filled:
            raise OutOfMemoryError("physical pool exhausted")
        free[free_idx] = False
        out[filled:] = free_idx
    return out


def reference_alloc_scattered(phys, npages, pair_fraction, frame_range):
    """``alloc_scattered``'s frames and the generator after it, computed on
    copies of the pool's bitmap and generator."""
    free = phys._free.copy()
    rng = copy.deepcopy(phys._rng)
    lo, hi = frame_range or (0, phys.total_frames)
    pair_pages = int(npages * pair_fraction) & ~1
    batches = []
    if pair_pages:
        batches.append(
            reference_draw(phys, rng, free, pair_pages // 2, 2, lo, hi)
        )
    if npages > pair_pages:
        batches.append(
            reference_draw(phys, rng, free, npages - pair_pages, 1, lo, hi)
        )
    return np.concatenate(batches)[:npages], rng


class TestTableSamplerAgainstChoice:
    # skew 0 puts every cdf value on a bin edge (no sentinel bins); 1.1 is
    # the default; at 3.0 most cdf steps are far below a bin (2^-16).
    @pytest.mark.parametrize("skew", [0.0, 1.1, 3.0])
    @pytest.mark.parametrize("seed", [0, 0x1300A, 12345])
    def test_draws_and_generator_state_match(self, skew, seed):
        phys = PhysicalMemory(skewed_config(skew), seed=seed)
        cdf, table = phys._residue_sampler
        sentinel = phys._residue_modulus
        if skew == 0.0:
            assert not (table == sentinel).any()
        if skew == 3.0:
            assert (np.diff(cdf) < 2.0**-16).sum() > 10
        weights = phys.channel_weights()
        for n in (0, 1, 32, 10**6):
            reference = copy.deepcopy(phys._rng)
            if n == 10**6 and skew > 0:
                # The draw reaches the sentinel bins' searchsorted path.
                u = copy.deepcopy(phys._rng).random(n)
                assert (table[(u * 2**16).astype(np.intp)] == sentinel).any()
            residues = phys._sample_residues(n)
            expected = phys._channel_residue[
                reference.choice(len(weights), size=n, p=weights)
            ]
            np.testing.assert_array_equal(residues, expected)
            assert phys._rng.integers(0, 2**62) == reference.integers(0, 2**62)

    @given(
        seed=st.integers(0, 2**32 - 1),
        skew=st.sampled_from([0.0, 1.1, 3.0]),
        prefill=st.integers(0, 6000),
        npages=st.integers(1, 3000),
        pair_fraction=st.floats(0.0, 1.0),
        bounds=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 16383), st.integers(1, 16384)),
        ),
    )
    # Windows with no whole residue period (128 frames), exactly one, and
    # more than one.
    @example(seed=0, skew=1.1, prefill=0, npages=60, pair_fraction=0.5,
             bounds=(200, 300))
    @example(seed=1, skew=1.1, prefill=0, npages=40, pair_fraction=0.9,
             bounds=(130, 250))
    @example(seed=2, skew=1.1, prefill=100, npages=90, pair_fraction=0.5,
             bounds=(256, 384))
    @example(seed=3, skew=3.0, prefill=0, npages=200, pair_fraction=0.5,
             bounds=(100, 400))
    @settings(max_examples=80, deadline=None)
    def test_alloc_scattered_matches_choice_reference(
        self, seed, skew, prefill, npages, pair_fraction, bounds
    ):
        # A 64 MiB pool (16384 frames, 128 residue periods): windows range
        # from a few frames to the whole pool.
        phys = PhysicalMemory(skewed_config(skew, 1 << 26), seed=seed)
        if prefill:
            phys.alloc_scattered(prefill)
        frame_range = None
        if bounds is not None:
            frame_range = (min(bounds), max(max(bounds), min(bounds) + 1))
        npages = min(npages, phys.free_frames)
        before = phys._free.copy()
        try:
            expected, rng = reference_alloc_scattered(
                phys, npages, pair_fraction, frame_range
            )
        except OutOfMemoryError:
            with pytest.raises(OutOfMemoryError):
                phys.alloc_scattered(npages, pair_fraction, frame_range)
            # A failed allocation gives back what it claimed.
            np.testing.assert_array_equal(phys._free, before)
            return
        frames = phys.alloc_scattered(npages, pair_fraction, frame_range)
        np.testing.assert_array_equal(frames, expected)
        assert phys._rng.integers(0, 2**62) == rng.integers(0, 2**62)
