import numpy as np
import pytest

from granucodec.analysis import pyramid
from granucodec.imaging import ImagePlane, avg_pool, from_raw

from conftest import make_image, reshape_mean_pool, traced_peak


def reference_pyramid(img):
    """The pyramid with numpy choosing every summation order: luminance by
    mean(axis=2), 4x4 means by mean over a 5-D cell view."""
    lum = img.samples.mean(axis=2, dtype=np.float64)

    def grid(scale, means):
        h, w = lum.shape
        blocks = lum.reshape(h // scale, scale, w // scale, scale)
        mu = blocks.mean(axis=(1, 3))
        var = ((blocks - mu[:, None, :, None]) ** 2).mean(axis=(1, 3))
        return np.concatenate([means, np.sqrt(var)[..., None]], axis=2).astype(np.float32)

    m1 = reshape_mean_pool(img.samples, 4)
    return (grid(4, m1), grid(8, reshape_mean_pool(m1, 2)),
            grid(16, reshape_mean_pool(m1, 4)))


@pytest.fixture
def photo():
    return make_image("photo", 64, 96, seed=11)


class TestPyramid:
    def test_shapes_and_channels(self, photo):
        z1, z2, z3 = pyramid(photo)
        assert z1.shape == (16, 24, 4)
        assert z2.shape == (8, 12, 4)
        assert z3.shape == (4, 6, 4)

    def test_constant_gray_has_zero_std(self):
        img = from_raw(np.full((32, 32, 3), 200, dtype=np.uint8))
        g = 200 / 255 * 2 - 1
        for z in pyramid(img):
            assert np.allclose(z[..., :3], g, atol=1e-6)
            assert np.all(z[..., 3] == 0.0)

    def test_cross_scale_pooling_exact(self, photo):
        z1, z2, z3 = pyramid(photo)
        assert np.array_equal(avg_pool(z1[..., :3], 2), z2[..., :3])
        assert np.array_equal(avg_pool(z1[..., :3], 4), z3[..., :3])

    def test_two_level_block_std(self):
        # one 4x4 block, half luminance +v, half -v -> std = v
        v = 0.5
        raw = np.zeros((16, 16, 3), dtype=np.uint8)
        img = from_raw(raw)
        samples = img.samples.copy()
        samples[:2, :4] = v
        samples[2:4, :4] = -v
        img = type(img)(samples, img.true_h, img.true_w)
        z1, _, _ = pyramid(img)
        assert z1[0, 0, 3] == pytest.approx(v, abs=1e-7)

    def test_bounds(self, photo):
        for z in pyramid(photo):
            assert z[..., :3].min() >= -1.0 and z[..., :3].max() <= 1.0
            assert z[..., 3].min() >= 0.0 and z[..., 3].max() <= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_equal_numpy_ordered_reference(self, seed):
        # off the 8-bit lattice: R and G cancel exactly and B is tiny (down
        # to 2^-60, some -0.0), so luminance keeps B's low bits only when R
        # and G are added first
        rng = np.random.default_rng(seed)
        samples = np.empty((64, 96, 3), dtype=np.float32)
        samples[..., 0] = rng.uniform(-1.0, 1.0, (64, 96))
        samples[..., 1] = -samples[..., 0]
        samples[..., 2] = (rng.choice([-1.0, 1.0], (64, 96)) * rng.uniform(0.5, 1.0, (64, 96))
                           * np.exp2(-rng.integers(20, 61, (64, 96))))
        samples[rng.random((64, 96, 3)) < 0.1] = -0.0
        img = ImagePlane(samples, 64, 96)
        for z, ref in zip(pyramid(img), reference_pyramid(img)):
            assert z.tobytes() == ref.tobytes()

    def test_deterministic(self, photo):
        a = pyramid(photo)
        b = pyramid(photo)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_peak_memory_per_pixel(self):
        # luminance and 4x4 means accumulate in float64 from the float32
        # samples; a float64 copy of the image alone would be 24 B/px
        img = make_image("photo", 512, 512, seed=12)
        assert traced_peak(pyramid, img) <= 20 * 512 * 512
