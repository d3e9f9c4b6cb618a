import numpy as np
import pytest

from granucodec import imaging
from granucodec.analysis import pyramid
from granucodec.imaging import ImagePlane, avg_pool, from_raw

from conftest import make_image, reshape_mean_pool, traced_peak


def reference_pyramid(img):
    """The pyramid with numpy choosing every summation order: 4x4 means by
    mean over a 5-D cell view, medium and coarse pooled from them."""
    m1 = reshape_mean_pool(img.samples, 4)
    return m1, reshape_mean_pool(m1, 2), reshape_mean_pool(m1, 4)


#: A width, a multiple of 16, at which one row of 4x4 cells (48 input
#: bytes per pixel column) is a whole pooling band.
ONE_ROW_BAND_WIDTH = 16 * -(-imaging._POOL_BAND_BYTES // (16 * 48))


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
        assert np.array_equal(avg_pool(z1, 2), z2)
        assert np.array_equal(avg_pool(z1, 4), z3)

    def test_bounds(self, photo):
        for z in pyramid(photo):
            assert z.min() >= -1.0 and z.max() <= 1.0
        # a constant gray image's means are its gray level at every scale
        gray = from_raw(np.full((32, 32, 3), 200, dtype=np.uint8))
        for z in pyramid(gray):
            assert np.allclose(z, 200 / 255 * 2 - 1, atol=1e-6)

    @pytest.mark.parametrize("seed, shape", [
        *(pytest.param(seed, (64, 96), id=str(seed)) for seed in [0, 1, 2]),
        # the padded 1000x744 bench image, whose 4x4 cell rows fill several
        # pooling bands and part of one more
        pytest.param(3, (752, 1008), id="padded-1000x744"),
        # a plane so wide that each band is one cell row
        pytest.param(4, (32, ONE_ROW_BAND_WIDTH), id="one-row-bands"),
    ])
    def test_bits_equal_numpy_ordered_reference(self, seed, shape):
        # off the 8-bit lattice: R and G cancel exactly and B is tiny (down
        # to 2^-60, some -0.0), so a cell's B sum keeps its low bits only
        # when its samples are added in numpy's order
        rng = np.random.default_rng(seed)
        samples = np.empty((*shape, 3), dtype=np.float32)
        samples[..., 0] = rng.uniform(-1.0, 1.0, shape)
        samples[..., 1] = -samples[..., 0]
        samples[..., 2] = (rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 1.0, shape)
                           * np.exp2(-rng.integers(20, 61, shape)))
        samples[rng.random((*shape, 3)) < 0.1] = -0.0
        img = ImagePlane(samples, *shape)
        for z, ref in zip(pyramid(img), reference_pyramid(img)):
            assert z.tobytes() == ref.tobytes()

    def test_deterministic(self, photo):
        a = pyramid(photo)
        b = pyramid(photo)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_peak_memory_per_pixel(self):
        # the 4x4 means accumulate in a float64 total of 3 * 8 / 16 = 1.5
        # B/px, divided in place, and the float32 cast adds 0.75 B/px:
        # 2.25 B/px; a float64 copy of the image alone would be 24 B/px
        img = make_image("photo", 512, 512, seed=12)
        assert traced_peak(pyramid, img) <= 2.5 * 512 * 512
