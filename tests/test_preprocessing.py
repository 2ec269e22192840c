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

