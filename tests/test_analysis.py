import numpy as np
import pytest

from granucodec import analysis, imaging
from granucodec.analysis import pyramid
from granucodec.imaging import ImagePlane, from_raw

from conftest import make_image, reshape_mean_pool, traced_peak


def reference_pyramid(img):
    """The pyramid of the whole normalized plane at once, with numpy choosing
    every summation order: 4x4 means by mean over a 5-D cell view, medium
    and coarse pooled from them."""
    m1 = reshape_mean_pool(imaging.normalize(img.pixels), 4)
    return m1, reshape_mean_pool(m1, 2), reshape_mean_pool(m1, 4)


@pytest.fixture
def photo():
    return make_image("photo", 64, 96, seed=11)


class TestPyramid:
    def test_shapes_and_channels(self, photo):
        z1, z2, z3 = pyramid(photo)
        assert z1.shape == (16, 24, 3)
        assert z2.shape == (8, 12, 3)
        assert z3.shape == (4, 6, 3)

    def test_cross_scale_pooling_exact(self, photo):
        z1, z2, z3 = pyramid(photo)
        assert reshape_mean_pool(z1, 2).tobytes() == z2.tobytes()
        assert reshape_mean_pool(z1, 4).tobytes() == z3.tobytes()

    def test_grids_are_contiguous_float32(self, photo):
        # callers reshape every grid to (cells, 3) without a copy
        for z in pyramid(photo):
            assert z.dtype == np.float32 and z.flags.c_contiguous

    def test_bounds(self, photo):
        for z in pyramid(photo):
            assert z.min() >= -1.0 and z.max() <= 1.0
        # a constant gray image's means are its gray level at every scale
        gray = from_raw(np.full((32, 32, 3), 200, dtype=np.uint8))
        for z in pyramid(gray):
            assert np.allclose(z, 200 / 255 * 2 - 1, atol=1e-6)

    @pytest.mark.parametrize("seed, shape", [
        *(pytest.param(seed, (64, 96), id=str(seed)) for seed in [0, 1, 2]),
        # the padded 1000x744 bench image: 23 whole bands and a half one
        pytest.param(3, (752, 1008), id="padded-1000x744"),
        # one band and a half
        pytest.param(4, (analysis._BAND_ROWS * 3 // 2, 96), id="band-and-a-half"),
        # one short band, whose z3 is a single cell
        pytest.param(5, (16, 16), id="16x16"),
    ])
    def test_bits_equal_numpy_ordered_reference(self, seed, shape):
        # random bytes: every level occurs, in every channel and band
        rng = np.random.default_rng(seed)
        img = ImagePlane(rng.integers(0, 256, (*shape, 3), dtype=np.uint8), *shape)
        for z, ref in zip(pyramid(img), reference_pyramid(img)):
            assert z.tobytes() == ref.tobytes()

    def test_deterministic(self, photo):
        a = pyramid(photo)
        b = pyramid(photo)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_peak_memory_per_pixel(self):
        # z1 is 0.75 B/px and, at 512 px wide, one band adds 0.75 B/px of
        # float32 samples, 0.375 of float64 row sums, 0.09 of float64 cell
        # sums and its float32 means, and numpy's casting buffers about 0.25:
        # 2.12 B/px measured. They are freed before z2 is pooled from z1 with
        # 0.75 B/px of row sums. A float32 copy of the image alone would be
        # 12 B/px
        img = make_image("photo", 512, 512, seed=12)
        assert traced_peak(pyramid, img) <= 2.5 * 512 * 512
