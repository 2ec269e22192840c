import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpad.errors import DataError
from cmpad.preprocessing import mad_normalize


class TestMadNormalize:
    def test_hand_computed_example(self):
        depth = np.array([[8, 9, 10, 11, 12]], dtype=np.int64)
        out = mad_normalize(depth, k=1.0)
        expected = np.array([[0, 0, 128, 255, 255]]) / 255.0
        np.testing.assert_array_equal(out, expected)

    def test_constant_map_goes_mid_gray(self):
        depth = np.full((8, 8), 7)
        out = mad_normalize(depth)
        np.testing.assert_array_equal(out, np.full((8, 8), 128 / 255.0))

    def test_invalid_pixels_stay_zero(self):
        depth = np.array([[0, 8], [10, 12]])
        out = mad_normalize(depth, k=1.0)
        assert out[0, 0] == 0.0

    def test_invalid_pixels_excluded_from_statistics(self):
        with_zeros = np.array([[0, 0, 8, 9, 10, 11, 12]])
        without = np.array([[8, 9, 10, 11, 12]])
        np.testing.assert_array_equal(
            mad_normalize(with_zeros, k=1.0)[0, 2:], mad_normalize(without, k=1.0)[0]
        )

    def test_all_invalid_raises(self):
        with pytest.raises(DataError, match="no valid depth pixels"):
            mad_normalize(np.zeros((8, 8)))

    def test_output_on_quantization_grid(self):
        rng = np.random.default_rng(3)
        depth = rng.integers(1, 5000, size=(16, 16))
        out = mad_normalize(depth)
        assert out.min() >= 0.0 and out.max() <= 1.0
        np.testing.assert_array_equal(np.round(out * 255), out * 255)

    @given(
        a=st.integers(1, 9),
        b=st.integers(0, 50),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance_within_one_level(self, a, b, seed):
        rng = np.random.default_rng(seed)
        depth = rng.integers(1, 2000, size=(8, 8))
        base = mad_normalize(depth)
        shifted = mad_normalize(a * depth + b)
        assert np.max(np.abs(base - shifted)) <= 1.0 / 255.0 + 1e-12


def reference_mad_normalize(depth, k):
    """The mapping as first written, on np.median and np.clip."""
    arr = np.asarray(depth, dtype=np.float64)
    valid = arr != 0
    vals = arr[valid]
    m = float(np.median(vals))
    mad = float(np.median(np.abs(vals - m)))
    out = np.zeros(arr.shape, dtype=np.float64)
    if mad < 1e-9:
        out[valid] = 128.0 / 255.0
        return out
    lo, hi = m - k * mad, m + k * mad
    quantized = np.floor(np.clip((vals - lo) / (hi - lo) * 255.0, 0.0, 255.0) + 0.5)
    out[valid] = np.clip(quantized, 0.0, 255.0) / 255.0
    return out


@st.composite
def depth_maps(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["wide", "narrow", "constant", "two_levels", "fractional"]))
    if kind == "wide":
        depth = rng.integers(1, 0x10000, size=(h, w)).astype(np.float64)
    elif kind == "narrow":
        depth = 400 + 4 * rng.integers(0, 256, size=(h, w)).astype(np.float64)
    elif kind == "constant":
        depth = np.full((h, w), float(rng.integers(1, 5000)))
    elif kind == "two_levels":
        depth = rng.choice([300.0, 301.0], size=(h, w))
    else:
        depth = rng.normal(1000.0, rng.uniform(0.01, 200.0), size=(h, w))
    invalid = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.03, 0.5, 0.9]))
    depth[invalid] = 0.0
    if not depth.any():
        depth.flat[draw(st.integers(0, h * w - 1))] = 7.0
    return depth


class TestMadNormalizeBitExact:
    @given(depth=depth_maps(), k=st.sampled_from([1.0, 3.0]))
    @settings(max_examples=400, deadline=None)
    def test_equals_np_median_reference(self, depth, k):
        out, ref = mad_normalize(depth, k=k), reference_mad_normalize(depth, k)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("values", [[5, 9], [5, 6, 9, 10], [1, 2, 3, 4, 5, 6], [3, 3, 4, 4]])
    def test_even_count_median_is_middle_pair_mean(self, values):
        depth = np.array([values], dtype=np.int64)
        for k in (1.0, 3.0):
            assert mad_normalize(depth, k).tobytes() == reference_mad_normalize(depth, k).tobytes()

    def test_input_left_unchanged(self):
        depth = np.array([[9.0, 0.0, 3.0, 7.0, 1.0]])
        before = depth.copy()
        mad_normalize(depth)
        np.testing.assert_array_equal(depth, before)
