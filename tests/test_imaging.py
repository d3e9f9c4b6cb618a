import math

import numpy as np
import pytest

from granucodec import imaging
from granucodec.analysis import _cell_sums
from granucodec.imaging import ImagePlane, from_raw, load_ppm, nn_upsample, psnr, save_ppm

from conftest import make_raw, traced_peak


def write_ppm(path, raw):
    h, w = raw.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(raw.astype(np.uint8).tobytes())


class TestLoad:
    def test_max_value_maps_to_one(self, tmp_path):
        p = tmp_path / "white.ppm"
        write_ppm(p, np.full((2, 2, 3), 255, dtype=np.uint8))
        img = load_ppm(p)
        assert img.height == img.width == 16  # padded
        assert img.true_h == img.true_w == 2
        assert np.all(img.samples == 1.0)

    def test_min_value_maps_to_minus_one(self, tmp_path):
        p = tmp_path / "black.ppm"
        write_ppm(p, np.zeros((2, 2, 3), dtype=np.uint8))
        assert np.all(load_ppm(p).samples == -1.0)

    def test_midpoint_linear_map(self, tmp_path):
        p = tmp_path / "gray.ppm"
        write_ppm(p, np.full((1, 1, 3), 128, dtype=np.uint8))
        expected = 128 / 255 * 2 - 1  # independent linear-map oracle
        assert load_ppm(p).samples[0, 0, 0] == pytest.approx(expected, abs=1e-7)

    def test_header_comments_ok(self, tmp_path):
        p = tmp_path / "c.ppm"
        with open(p, "wb") as f:
            f.write(b"P6\n# comment\n2 2\n255\n" + bytes(12))
        assert load_ppm(p).true_w == 2

    @pytest.mark.parametrize("header", [b"P6 1#c\n1 255\n", b"P6 1 1#c\r255\n"],
                             ids=["comment-ends-token", "comment-ends-at-cr"])
    def test_comment_is_a_line_end(self, tmp_path, header):
        # as Netpbm's pm_getc reads a header: a comment ends the token before
        # it, and a '\r' ends the comment as '\n' does
        p = tmp_path / "c.ppm"
        p.write_bytes(header + bytes([7, 8, 9]))
        img = load_ppm(p)
        assert (img.true_h, img.true_w) == (1, 1)
        assert img.pixels[0, 0].tolist() == [7, 8, 9]

    @pytest.mark.parametrize("payload", [
        b"P5\n2 2\n255\n" + bytes(12),       # wrong magic
        b"P6\n2 2\n65535\n" + bytes(24),     # unsupported depth
        b"P6\nx 2\n255\n" + bytes(12),       # malformed dims
        b"P6\n4 4\n255\n" + bytes(10),       # truncated data
        b"P6\n1000000000 1000000000\n255\n" + bytes(12),  # more than the file
        pytest.param(b"P6\n" + b"9" * 400_000 + b" 2\n255\n" + bytes(12),
                     id="400000-digit-width"),
        # int() reads the next three as 16 or 255; Netpbm refuses all four
        pytest.param(b"P6\n1_6 16\n255\n" + bytes(768), id="underscore-width"),
        pytest.param(b"P6\n+16 16\n255\n" + bytes(768), id="signed-width"),
        pytest.param(b"P6\n16 16\n2_55\n" + bytes(768), id="underscore-maxval"),
        pytest.param("P6\n\uff11\uff16 16\n255\n".encode() + bytes(768),
                     id="full-width-digit-width"),
    ])
    def test_malformed_rejected(self, tmp_path, payload):
        p = tmp_path / "bad.ppm"
        p.write_bytes(payload)
        with pytest.raises(imaging.ImageError):
            load_ppm(p)

    @pytest.mark.parametrize("payload", [
        pytest.param(b"P6\n16 16", id="truncated-header"),
        pytest.param(b"P6\n" + b"1" * 22 + b" 16\n255\n", id="22-digit-token"),
    ])
    def test_header_token_errors_name_the_file(self, tmp_path, payload):
        p = tmp_path / "bad.ppm"
        p.write_bytes(payload)
        with pytest.raises(imaging.ImageError) as excinfo:
            load_ppm(p)
        assert str(p) in str(excinfo.value)

    def test_roundtrip_bit_exact(self, tmp_path):
        raw = make_raw("noise", 37, 21, seed=5)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(p1, raw)
        save_ppm(load_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_writes_the_window_in_strips(self, tmp_path):
        # the true window of a padded plane, 744 rows: 11 full strips of 64
        # and a short one, written a strip at a time, so no copy spans the
        # window; the bytes are those of one whole-window write
        raw = make_raw("photo", 744, 1000, seed=8)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(p1, raw)
        assert traced_peak(save_ppm, from_raw(raw), p2) <= 0.5 * 744 * 1000
        assert p1.read_bytes() == p2.read_bytes()


class TestNormalize:
    def test_levels_equal_float64_formula(self):
        raw = np.arange(256, dtype=np.uint8)
        want = (raw.astype(np.float64) / 255.0 * 2.0 - 1.0).astype(np.float32)
        got = imaging.normalize(raw)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_scalar_sums_normalized(self):
        # a numpy scalar has no array for an out= divide to write into
        assert imaging.normalize(np.uint8(200)) == np.float32(0.5686275)
        assert imaging.normalize(np.uint16(255)) == 1.0

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_from_raw_rejects_other_dtypes(self, dtype):
        with pytest.raises(imaging.ImageError, match="uint8"):
            from_raw(np.zeros((4, 4, 3), dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8, np.uint16])
    def test_plane_of_other_dtype_rejected(self, dtype):
        with pytest.raises(TypeError, match="uint8"):
            ImagePlane(np.zeros((16, 16, 3), dtype=dtype), true_h=16, true_w=16)

    @pytest.mark.parametrize("shape", [(16, 16), (16, 16, 4)])
    def test_plane_of_other_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="3"):
            ImagePlane(np.zeros(shape, dtype=np.uint8), true_h=16, true_w=16)

    @pytest.mark.parametrize("shape, true_hw", [
        ((32, 32, 3), (8, 8)),  # padded by more than one block
        ((16, 16, 3), (100, 100)),  # true dims beyond the padded ones
        ((20, 16, 3), (20, 16)),  # a side that is not a multiple of 16
        ((0, 16, 3), (-5, 16)),  # a negative true size
    ], ids=["padding-over-a-block", "true-beyond-padded", "unpadded-side", "negative-true"])
    def test_plane_no_container_could_hold_rejected(self, shape, true_hw):
        # parse_container refuses a header of such dimensions, so no such
        # plane may reach the encoder
        with pytest.raises(ValueError, match="multiple of 16"):
            ImagePlane(np.zeros(shape, dtype=np.uint8), *true_hw)

    def test_samples_are_the_normalized_pixels(self):
        raw = make_raw("photo", 16, 32, seed=4)
        img = from_raw(raw)
        assert img.samples.tobytes() == imaging.normalize(raw).tobytes()
        assert not img.samples.flags.writeable


class TestPad:
    def test_multiple_of_16_unchanged(self):
        raw = make_raw("noise", 768, 512, seed=3)
        img = from_raw(raw)
        assert img.pixels.shape == (768, 512, 3)
        assert np.array_equal(img.pixels, raw)

    @pytest.mark.parametrize("h, w", [(1024, 1024), (744, 1000)])
    def test_peak_memory_per_padded_pixel(self, tmp_path, h, w):
        # the padded 8-bit plane (3 B/px) is allocated once and the bytes
        # are copied straight into it: no full-size temporary, no padded
        # copy; load_ppm also holds the file's 3 bytes per true pixel
        raw = make_raw("photo", h, w, seed=6)
        p = tmp_path / "big.ppm"
        write_ppm(p, raw)
        padded = from_raw(raw).pixels[..., 0].size
        assert traced_peak(from_raw, raw) < 3.25 * padded
        assert traced_peak(load_ppm, p) < 3 * h * w + 3.25 * padded

    def test_replicates_edge_column(self):
        raw = make_raw("noise", 16, 17, seed=1)
        img = from_raw(raw)
        assert (img.height, img.width) == (16, 32)
        for col in range(17, 32):
            assert np.array_equal(img.pixels[:, col], img.pixels[:, 16])

    def test_ceiling_to_multiple(self):
        img = from_raw(np.zeros((514, 770, 3), dtype=np.uint8))
        assert (img.height, img.width) == (528, 784)

    def test_true_window_untouched(self):
        raw = make_raw("photo", 50, 43, seed=2)
        img = from_raw(raw)
        assert np.array_equal(img.pixels[:50, :43], raw)


class TestPooling:
    def test_constant_preserved(self):
        # the mean of a cell of one byte is that byte
        g = np.full((8, 8, 3), 200, dtype=np.uint8)
        sums = _cell_sums(g, 4)
        assert sums.dtype == np.uint16 and np.all(sums == 16 * 200)
        assert np.all(sums / 16 == g[0, 0, 0])

    def test_hand_mean(self):
        g = np.array([[1, 2], [3, 4]], dtype=np.uint8)[..., None]
        assert _cell_sums(g, 2)[0, 0, 0] == 10
        # bytes 1..4 have the mean byte 2.5, exact as a sum over 4 pixels
        assert _cell_sums(g, 2)[0, 0, 0] / 4 == 2.5

    def test_brightest_coarse_cell_fits_16_bits(self):
        # a 16x16 block of 255s sums to 256 * 255 = 65,280, the largest sum
        # the pyramid forms, with no wrap past 65,535
        s1 = _cell_sums(np.full((16, 16, 3), 255, dtype=np.uint8), 4)
        s3 = _cell_sums(_cell_sums(s1, 2), 2)
        assert s3.dtype == np.uint16 and np.all(s3 == 65_280)
        assert np.all(s3 / 256 == 255)

    def test_upsample_duplicates(self):
        g = np.array([[[1.0], [2.0]]], dtype=np.float32)  # 1x2
        up = nn_upsample(g, 2)
        assert up.shape == (2, 4, 1)
        assert np.array_equal(up[..., 0], [[1, 1, 2, 2], [1, 1, 2, 2]])

    @pytest.mark.parametrize("factor", [2, 4])
    def test_pool_inverts_upsample_exactly(self, factor):
        # summing nn_upsample(g, f) in f x f cells gives f^2 * g
        rng = np.random.default_rng(9)
        g = rng.integers(0, 256, (12, 8, 4), dtype=np.uint8)
        assert np.array_equal(_cell_sums(nn_upsample(g, factor), factor),
                              factor * factor * g.astype(np.uint16))


def float_psnr(a: ImagePlane, b: ImagePlane) -> float:
    """PSNR from the mean of float64 squared errors over the true window."""
    ra = a.pixels[: a.true_h, : a.true_w].astype(np.float64)
    rb = b.pixels[: b.true_h, : b.true_w].astype(np.float64)
    return 10.0 * math.log10(255.0 ** 2 / np.mean((ra - rb) ** 2))


class TestPsnr:
    def test_identical_is_lossless(self):
        img = from_raw(make_raw("noise", 16, 16, seed=0))
        assert psnr(img, img) == imaging.LOSSLESS
        assert math.isinf(imaging.LOSSLESS)

    def test_full_range_error_is_zero_db(self):
        a = from_raw(np.zeros((17, 33, 3), dtype=np.uint8))
        b = from_raw(np.full((17, 33, 3), 255, dtype=np.uint8))
        assert psnr(a, b) == float_psnr(a, b) == 0.0

    def test_peak_memory_per_true_pixel(self):
        # one int16 difference per sample of a 64-row strip, reused strip
        # after strip: 0.70 B/px here, and no copy spans the image
        a = from_raw(make_raw("photo", 744, 1000, seed=1))
        b = from_raw(make_raw("photo", 744, 1000, seed=2))
        assert traced_peak(psnr, a, b) <= 1 * 744 * 1000

    @pytest.mark.parametrize("shape, true_h, true_w", [((0, 0, 3), 0, 0), ((0, 16, 3), 0, 5)])
    def test_empty_true_window_rejected(self, shape, true_h, true_w):
        img = ImagePlane(np.zeros(shape, dtype=np.uint8), true_h=true_h, true_w=true_w)
        with pytest.raises(ValueError, match="empty"):
            psnr(img, img)

    def test_matches_mse_oracle(self):
        # bit for bit: every squared error is an integer of at most 255**2
        # and their sum stays below 2**53, so the float64 mean is the same
        # exact sum over the same count, and both quotients round once. The
        # padding, which the two images fill differently, is left out of both.
        pairs = [(make_raw("noise", 24, 24, seed=1), make_raw("noise", 24, 24, seed=2))]
        rng = np.random.default_rng(11)
        for _ in range(40):
            h, w = rng.integers(1, 70, size=2)
            ra = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            noise = rng.integers(-60, 61, (h, w, 3)) * (rng.random((h, w, 3)) < 0.5)
            pairs.append((ra, np.clip(ra + noise, 0, 255).astype(np.uint8)))
        for ra, rb in pairs:
            a, b = from_raw(ra), from_raw(rb)
            assert psnr(a, b) == float_psnr(a, b)

    def test_dim_mismatch_rejected(self):
        a = from_raw(np.zeros((16, 16, 3), dtype=np.uint8))
        b = from_raw(np.zeros((16, 17, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            psnr(a, b)
