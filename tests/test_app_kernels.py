"""Differential tests of the row-blocked host kernels (repro.apps).

hotspot's ``_stencil_step``, srad_v1's ``_srad_iteration`` and dwt2d's
``dwt_forward`` run as allocation-free, row-blocked ufunc pipelines.
The reference implementations below are the straightforward whole-grid
numpy expressions the blocked kernels replaced; every comparison is
bit-for-bit (on the integer view of the floats), over several
iterations, odd grid shapes and block heights down to one row.  Besides
app-like inputs they draw wide-range ones, where a last-bit change in a
small term (a reciprocal for a division, say) is not absorbed by the
rounding of a large sum.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.common import block_buffers
from repro.apps.dwt2d import dwt_forward
from repro.apps.hotspot import AMB_TEMP, CAP, RX, RY, RZ, _stencil_step
from repro.apps.srad import LAMBDA, _srad_iteration


# -- reference implementations ------------------------------------------


def ref_stencil_step(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """One numerically real hotspot update (edge cells clamp outward)."""
    north = np.vstack([temp[:1], temp[:-1]])
    south = np.vstack([temp[1:], temp[-1:]])
    west = np.hstack([temp[:, :1], temp[:, :-1]])
    east = np.hstack([temp[:, 1:], temp[:, -1:]])
    delta = (CAP) * (
        power
        + (south + north - 2.0 * temp) / RY
        + (east + west - 2.0 * temp) / RX
        + (AMB_TEMP - temp) / RZ
    )
    return temp + delta * 0.001


def ref_srad_iteration(image: np.ndarray) -> np.ndarray:
    """One numerically real SRAD update (reflecting boundaries)."""
    north = np.vstack([image[:1], image[:-1]])
    south = np.vstack([image[1:], image[-1:]])
    west = np.hstack([image[:, :1], image[:, :-1]])
    east = np.hstack([image[:, 1:], image[:, -1:]])

    mean = image.mean()
    var = image.var()
    q0_sq = var / (mean * mean + 1e-12)

    grad = north + south + east + west - 4.0 * image
    num = (north - image) ** 2 + (south - image) ** 2
    num += (east - image) ** 2 + (west - image) ** 2
    denom = image * image + 1e-12
    q_sq = (0.5 * num / denom - (0.0625 * (grad / image) ** 2)) / (
        (1.0 + 0.25 * grad / image) ** 2 + 1e-12
    )
    coeff = 1.0 / (1.0 + (q_sq - q0_sq) / (q0_sq * (1.0 + q0_sq) + 1e-12))
    coeff = np.clip(coeff, 0.0, 1.0)
    return image + (LAMBDA / 4.0) * coeff * grad


def ref_haar_level(image: np.ndarray) -> np.ndarray:
    """One in-place-style 2D Haar decomposition level (numerically real)."""
    rows = image.reshape(image.shape[0], -1, 2)
    low = (rows[:, :, 0] + rows[:, :, 1]) / 2.0
    high = (rows[:, :, 0] - rows[:, :, 1]) / 2.0
    horiz = np.hstack([low, high])
    cols = horiz.reshape(-1, 2, horiz.shape[1])
    low2 = (cols[:, 0, :] + cols[:, 1, :]) / 2.0
    high2 = (cols[:, 0, :] - cols[:, 1, :]) / 2.0
    return np.vstack([low2, high2])


def ref_dwt_forward(image: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level forward DWT: each level transforms the LL quadrant."""
    out = image.astype(np.float32).copy()
    h, w = out.shape
    for _ in range(levels):
        out[:h, :w] = ref_haar_level(out[:h, :w])
        h, w = h // 2, w // 2
        if h < 2 or w < 2:
            break
    return out


# -- helpers -------------------------------------------------------------


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    uint = np.uint32 if actual.dtype == np.float32 else np.uint64
    mismatched = np.flatnonzero(actual.view(uint) != expected.view(uint))
    assert mismatched.size == 0, (
        f"{mismatched.size} cells differ, first at flat index {mismatched[0]}"
    )


def scratch_for(grid: np.ndarray, count: int, block_rows):
    """*count* block buffers of *block_rows* rows (None: the default)."""
    if block_rows is None:
        return block_buffers(grid, count)
    return [np.empty((block_rows, grid.shape[1]), grid.dtype)
            for _ in range(count)]


#: Grid shapes: 1x1, single rows and columns, and general n x m grids
#: whose row count most block heights do not divide.
shapes = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 24)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 40), st.integers(1, 24)),
)
#: Block heights: one row, a few rows, or block_buffers' default.
block_rows = st.one_of(st.none(), st.integers(1, 9))
seeds = st.integers(0, 2**32 - 1)


# -- hotspot --------------------------------------------------------------


class TestHotspotStencil:
    @settings(max_examples=80, deadline=None)
    @given(shape=shapes, rows=block_rows, seed=seeds, wide=st.booleans())
    def test_matches_reference_bit_for_bit(self, shape, rows, seed, wide):
        rng = np.random.default_rng(seed)
        if wide:
            temp = rng.standard_normal(shape, dtype=np.float32)
            power = 100.0 * rng.standard_normal(shape, dtype=np.float32)
        else:
            temp = 320.0 + 10.0 * rng.random(shape, dtype=np.float32)
            power = rng.random(shape, dtype=np.float32)
        temp_before, power_before = temp.copy(), power.copy()
        scratch = scratch_for(temp, 5, rows)

        expected, current = temp, temp
        grids = (np.empty_like(temp), np.empty_like(temp))
        for i in range(4):
            expected = ref_stencil_step(expected, power)
            _stencil_step(current, power, grids[i % 2], scratch)
            current = grids[i % 2]
            assert_bits_equal(current, expected)
        assert_bits_equal(temp, temp_before)
        assert_bits_equal(power, power_before)

    def test_one_row_blocks(self):
        rng = np.random.default_rng(11)
        temp = 320.0 + 10.0 * rng.random((64, 48), dtype=np.float32)
        power = rng.random((64, 48), dtype=np.float32)
        out = np.empty_like(temp)
        _stencil_step(temp, power, out, scratch_for(temp, 5, 1))
        assert_bits_equal(out, ref_stencil_step(temp, power))


# -- srad_v1 --------------------------------------------------------------


class TestSradIteration:
    @settings(max_examples=80, deadline=None)
    @given(shape=shapes, rows=block_rows, seed=seeds, wide=st.booleans())
    def test_matches_reference_bit_for_bit(self, shape, rows, seed, wide):
        rng = np.random.default_rng(seed)
        if wide:
            image = np.exp(3.0 * rng.standard_normal(shape))
        else:
            image = np.exp(rng.random(shape, dtype=np.float32)).astype(
                np.float64
            )
        before = image.copy()
        scratch = scratch_for(image, 6, rows)

        expected, current = image, image
        grids = (np.empty_like(image), np.empty_like(image))
        for i in range(4):
            expected = ref_srad_iteration(expected)
            _srad_iteration(current, grids[i % 2], scratch)
            current = grids[i % 2]
            assert_bits_equal(current, expected)
        assert_bits_equal(image, before)

    def test_statistics_use_the_whole_grid(self):
        # Pairwise summation makes a blockwise mean differ in the last
        # bits on grids this size; the kernel must not.
        rng = np.random.default_rng(31)
        image = np.exp(rng.random((257, 129), dtype=np.float32)).astype(
            np.float64
        )
        out = np.empty_like(image)
        _srad_iteration(image, out, scratch_for(image, 6, 3))
        assert_bits_equal(out, ref_srad_iteration(image))


# -- dwt2d ----------------------------------------------------------------


class TestDwtForward:
    @settings(max_examples=80, deadline=None)
    @given(
        log_h=st.integers(1, 7),
        log_w=st.integers(1, 7),
        levels=st.integers(1, 4),
        seed=seeds,
        pixels=st.booleans(),
    )
    def test_matches_reference_bit_for_bit(
        self, log_h, log_w, levels, seed, pixels
    ):
        rng = np.random.default_rng(seed)
        shape = (1 << log_h, 1 << log_w)
        if pixels:
            image = rng.integers(0, 256, size=shape).astype(np.float32)
        else:
            image = rng.standard_normal(shape, dtype=np.float32)
        before = image.copy()
        expected = ref_dwt_forward(image, levels)
        assert_bits_equal(dwt_forward(image, levels), expected)
        out = np.full(shape, np.nan, np.float32)
        assert dwt_forward(image, levels, out=out) is out
        assert_bits_equal(out, expected)
        assert_bits_equal(image, before)

    @pytest.mark.parametrize("shape", [(2, 64), (64, 2), (4, 4)])
    def test_stops_when_the_quadrant_collapses(self, shape):
        # Level 1 halves a side to 1 (or level 2 does, for 4 x 4): the
        # remaining levels must not run.
        image = np.arange(shape[0] * shape[1], dtype=np.float32).reshape(
            shape
        )
        assert_bits_equal(dwt_forward(image, 4), ref_dwt_forward(image, 4))
        assert_bits_equal(dwt_forward(image, 4), dwt_forward(image, 2))
