"""Unit tests for HBM channel mapping and balance metrics (repro.hw.hbm)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.config import HBMGeometry, PAGE_SIZE, default_config
from repro.hw.hbm import (
    HBMSubsystem,
    channel_balance,
    effective_slice_hit_fraction,
)


@pytest.fixture
def hbm():
    return HBMSubsystem(default_config().hbm)


class TestChannelMapping:
    def test_stack_interleaves_per_page(self, hbm):
        # One 4 KiB page per stack, round robin.
        for frame in range(16):
            assert hbm.stack_of_frame(frame) == frame % 8

    def test_channel_in_range(self, hbm):
        frames = np.arange(4096)
        channels = hbm.channels_of_frames(frames)
        assert channels.min() >= 0
        assert channels.max() < 128

    def test_contiguous_range_covers_all_channels_evenly(self, hbm):
        frames = np.arange(128 * 4)  # four full rotations
        hist = hbm.channel_histogram(frames)
        assert (hist == 4 * PAGE_SIZE).all()

    def test_channel_is_periodic_in_frame(self, hbm):
        # With one page per interleave unit, channel(frame) has period
        # stacks * lanes = 128.
        for frame in (0, 5, 77):
            assert hbm.channel_of_frame(frame) == hbm.channel_of_frame(frame + 128)

    def test_vectorised_matches_scalar(self, hbm):
        frames = np.array([0, 1, 7, 8, 129, 1000, 65535])
        vec = hbm.channels_of_frames(frames)
        scalar = [hbm.channel_of_frame(int(f)) for f in frames]
        assert list(vec) == scalar

    def test_capacity(self, hbm):
        assert hbm.capacity_bytes == 128 << 30

    def test_interleave_must_be_page_multiple(self):
        geo = HBMGeometry(interleave_bytes=1000)
        with pytest.raises(ValueError):
            HBMSubsystem(geo)


#: Geometries for the differential tests: (geometry, NPS domain counts).
#: The interleave period is
#: ``interleave pages * stacks per domain * channels per stack``.
GEOMETRIES = [
    (HBMGeometry(), (1, 4)),
    # Period 2 * 8 * 12 = 192 (NPS1) or 48 (NPS4): not a power of two,
    # but it still tiles the 8 * 192-frame pool.
    (HBMGeometry(channels_per_stack=12, interleave_bytes=2 * PAGE_SIZE,
                 stack_capacity_bytes=192 * PAGE_SIZE), (1, 4)),
    # 100 frames per stack: the 128-frame period does not tile the pool
    # (NPS1) or a 200-frame domain (NPS4's period 32).
    (HBMGeometry(stack_capacity_bytes=100 * PAGE_SIZE), (1, 4)),
    # 10 frames per stack: the period exceeds the 80-frame pool (NPS1,
    # period 128) and each 20-frame domain (NPS4, period 32).
    (HBMGeometry(stack_capacity_bytes=10 * PAGE_SIZE), (1, 4)),
    # 12 * 3 = 36 channels over 3 * 30 = 90 frames (period 36).
    (HBMGeometry(stacks=3, channels_per_stack=12,
                 stack_capacity_bytes=30 * PAGE_SIZE), (1,)),
]

CASES = [
    pytest.param(geo, domains, id=f"{i}-nps{domains}")
    for i, (geo, all_domains) in enumerate(GEOMETRIES)
    for domains in all_domains
]


def reference_histogram(hbm, frames):
    """Bytes per channel, one div/mod chain per frame."""
    return np.bincount(
        hbm.channels_of_frames(frames), minlength=hbm.geometry.channels
    ) * PAGE_SIZE


def edge_frames(hbm):
    """The first and last frames of every domain and of the pool, and
    their neighbours."""
    total = hbm.capacity_bytes // PAGE_SIZE
    edges = np.arange(hbm.numa_domains + 1) * hbm.frames_per_domain
    near = (edges[:, None] + np.arange(-2, 3)).ravel()
    return near[(near >= 0) & (near < total)]


class TestHistogramAgainstReference:
    @pytest.mark.parametrize("geometry, domains", CASES)
    def test_fixed_frame_sets(self, geometry, domains):
        hbm = HBMSubsystem(geometry, domains)
        total = hbm.capacity_bytes // PAGE_SIZE
        rng = np.random.default_rng(domains)
        edges = edge_frames(hbm)
        for frames in (
            np.empty(0, dtype=np.int64),
            [],
            edges,
            np.concatenate([edges, edges, edges[:3]]),  # duplicates
            np.arange(min(total, 4096)),
            rng.integers(0, total, 5000),
            np.full(17, total - 1),
        ):
            hist = hbm.channel_histogram(frames)
            assert hist.dtype == np.int64
            np.testing.assert_array_equal(
                hist, reference_histogram(hbm, frames)
            )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_frame_sets(self, data):
        geometry, all_domains = data.draw(st.sampled_from(GEOMETRIES))
        hbm = HBMSubsystem(geometry, data.draw(st.sampled_from(all_domains)))
        total = hbm.capacity_bytes // PAGE_SIZE
        frames = data.draw(st.lists(st.integers(0, total - 1), max_size=300))
        np.testing.assert_array_equal(
            hbm.channel_histogram(np.array(frames, dtype=np.int64)),
            reference_histogram(hbm, frames),
        )

    @pytest.mark.parametrize("geometry, domains", CASES)
    def test_vectorised_mapping_matches_scalar(self, geometry, domains):
        hbm = HBMSubsystem(geometry, domains)
        total = hbm.capacity_bytes // PAGE_SIZE
        frames = np.unique(np.concatenate([
            edge_frames(hbm),
            np.arange(min(total, 600)),
            np.random.default_rng(0).integers(0, total, 400),
        ]))
        assert hbm.channels_of_frames(frames).tolist() == [
            hbm.channel_of_frame(int(frame)) for frame in frames
        ]


class TestBalanceMetrics:
    def test_uniform_histogram_is_balanced(self):
        assert channel_balance(np.full(128, 1000)) == pytest.approx(1.0)

    def test_single_channel_is_maximally_unbalanced(self):
        hist = np.zeros(128)
        hist[0] = 1000
        assert channel_balance(hist) == pytest.approx(1 / 128)

    def test_empty_histogram_is_balanced(self):
        assert channel_balance(np.zeros(128)) == 1.0

    def test_slice_hit_fraction_uniform_fits(self):
        hist = np.full(128, 1 << 20)  # 1 MiB per channel, 2 MiB slices
        assert effective_slice_hit_fraction(hist, 2 << 20) == pytest.approx(1.0)

    def test_slice_hit_fraction_uniform_double(self):
        hist = np.full(128, 4 << 20)  # 4 MiB per channel, 2 MiB slices
        assert effective_slice_hit_fraction(hist, 2 << 20) == pytest.approx(0.5)

    def test_slice_hit_fraction_biased_lower_than_uniform(self):
        total = 128 * (4 << 20)
        uniform = np.full(128, total // 128)
        biased = np.zeros(128, dtype=np.int64)
        biased[:8] = total // 8
        cap = 2 << 20
        assert effective_slice_hit_fraction(biased, cap) < \
            effective_slice_hit_fraction(uniform, cap)

    def test_slice_hit_fraction_empty(self):
        assert effective_slice_hit_fraction(np.zeros(128), 2 << 20) == 1.0
