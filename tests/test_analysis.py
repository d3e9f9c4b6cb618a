import numpy as np
import pytest

from granucodec.analysis import pyramid
from granucodec.imaging import ImagePlane, from_raw

from conftest import make_image, traced_peak

SCALES = (4, 8, 16)


def pixel_sums(img, s):
    """The int64 sums of each s x s cell's bytes, per channel, straight from
    the pixels."""
    h, w, c = img.pixels.shape
    return img.pixels.reshape(h // s, s, w // s, s, c).sum(axis=(1, 3), dtype=np.int64)


def pixel_means(img, s):
    """The float64 mean colour of each s x s cell, straight from the pixels."""
    h, w, c = img.pixels.shape
    return img.pixels.reshape(h // s, s, w // s, s, c).mean(axis=(1, 3))


@pytest.fixture
def photo():
    return make_image("photo", 64, 96, seed=11)


class TestPyramid:
    def test_shapes_and_channels(self, photo):
        z1, z2, z3 = pyramid(photo)
        assert z1.shape == (16, 24, 3)
        assert z2.shape == (8, 12, 3)
        assert z3.shape == (4, 6, 3)

    def test_each_scale_is_its_pixels_mean(self, photo):
        # z2 and z3 are summed from the bytes of their own pixels, and each
        # cell is 256 times its exact mean colour at every scale
        for z, s in zip(pyramid(photo), SCALES):
            assert np.array_equal(z / 256, pixel_means(photo, s))

    @pytest.mark.parametrize("seed, shape", [
        pytest.param(6, (64, 96), id="64x96"),
        # the padded 1000x744 bench image
        pytest.param(7, (752, 1008), id="padded-1000x744"),
    ])
    def test_every_scale_is_256_times_the_mean_in_uint16(self, seed, shape):
        # one unit at every scale: a cell is 256 x its pixels' exact mean,
        # uint16, and an all-255 image gives 65,280 at every scale
        rng = np.random.default_rng(seed)
        img = ImagePlane(rng.integers(0, 256, (*shape, 3), dtype=np.uint8), *shape)
        for z, s in zip(pyramid(img), SCALES):
            assert z.dtype == np.uint16
            assert np.array_equal(z, 256 * pixel_means(img, s))
        white = ImagePlane(np.full((*shape, 3), 255, dtype=np.uint8), *shape)
        for z in pyramid(white):
            assert z.dtype == np.uint16 and np.all(z == 65_280)

    def test_grids_are_contiguous_uint16(self, photo):
        # callers reshape every grid to (cells, 3) without a copy
        for z in pyramid(photo):
            assert z.dtype == np.uint16 and z.flags.c_contiguous

    def test_bounds(self, photo):
        for z in pyramid(photo):
            assert z.max() <= 255 * 256
        # a constant gray image's cells are its gray level times 256 at every scale
        gray = from_raw(np.full((32, 32, 3), 200, dtype=np.uint8))
        for z in pyramid(gray):
            assert np.all(z == 200 * 256)

    def test_byte_extremes_reach_the_cube_faces_exactly(self):
        # the code search refuses a cell above 255 * 256; the darkest and
        # brightest images land on the faces of the byte cube, and a 0/255
        # checkerboard, every cell half of each, on its centre
        black, white = (from_raw(np.full((32, 48, 3), v, dtype=np.uint8)) for v in (0, 255))
        board = from_raw(np.where((np.indices((32, 48)).sum(axis=0) % 2)[..., None] == 1,
                                  np.uint8(255), np.uint8(0)).repeat(3, axis=2))
        for img, want in ((black, 0.0), (white, 255.0), (board, 127.5)):
            for z in pyramid(img):
                assert np.all(z / 256 == want)

    @pytest.mark.parametrize("seed, shape", [
        *(pytest.param(seed, (64, 96), id=str(seed)) for seed in [0, 1, 2]),
        # the padded 1000x744 bench image
        pytest.param(3, (752, 1008), id="padded-1000x744"),
        # three 16-pixel block rows
        pytest.param(4, (48, 96), id="48x96"),
        # z3 is a single cell
        pytest.param(5, (16, 16), id="16x16"),
    ])
    def test_bits_equal_numpy_ordered_reference(self, seed, shape):
        # random bytes: every level occurs, in every channel; the reference
        # is the exact sum times 256 / (s * s), so no summation order can matter
        rng = np.random.default_rng(seed)
        img = ImagePlane(rng.integers(0, 256, (*shape, 3), dtype=np.uint8), *shape)
        for z, s in zip(pyramid(img), SCALES):
            want = pixel_sums(img, s) * (256 // (s * s))
            assert z.tobytes() == want.astype(np.uint16).tobytes()

    def test_deterministic(self, photo):
        a = pyramid(photo)
        b = pyramid(photo)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_peak_memory_per_pixel(self):
        # the uint16 sums over each group of 4 pixel rows take 1.5 B/px and
        # the 4x4 cell sums 0.375: 1.88 B/px measured. The 4x4 cells, shifted
        # from those sums, and the arrays of the 8x8 and 16x16 scales are a
        # quarter of that or less. A float32 copy of the image alone
        # would be 12 B/px
        img = make_image("photo", 512, 512, seed=12)
        assert traced_peak(pyramid, img) <= 2.0 * 512 * 512
