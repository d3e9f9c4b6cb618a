import numpy as np
import pytest

from granucodec import pipeline, vq
from granucodec.granularity import COARSE, FINE, RatioTriple, masks_from_map
from granucodec.imaging import denormalize, from_raw, nn_upsample, psnr

from conftest import (
    assert_painted, codes_session, lookup, make_image, map_container, reshape_mean_pool,
)


def random_streams(rng, gmap: np.ndarray, k: int) -> list[np.ndarray]:
    """int32 fine, medium and coarse streams of indices below k for gmap."""
    return [rng.integers(0, k, size=np.count_nonzero(m), dtype=np.int32)
            for m in masks_from_map(gmap)]


def replacement_chain(cb: vq.Codebook, gmap: np.ndarray,
                      streams: list[np.ndarray]) -> np.ndarray:
    """The conditional-replacement decoder, as the oracle that
    pipeline.reconstruct must equal byte for byte. Each stream is scattered
    into its scale's mask and the three grids are stitched onto the fine grid
    (z). Two x2 nearest-neighbour layers rebuild the medium and fine grids
    from the coarse one, and after each the positions a mask marks as known
    are replaced by the pooled z. The colours are clamped and painted onto
    4x4 pixel cells. Returns the padded samples, in [-1, 1]."""
    masks = masks_from_map(gmap)
    m1, m2, m3 = (m[..., None].astype(np.float32) for m in masks)
    q = []
    for idx, mask, m in zip(streams, masks, (m1, m2, m3)):
        grid = np.zeros(mask.shape + (cb.d,), dtype=np.float32)
        grid[mask] = lookup(idx, cb)
        q.append(grid * m)
    z = q[0] + nn_upsample(q[1], 2) + nn_upsample(q[2], 4)
    y2 = nn_upsample(reshape_mean_pool(z, 4), 2) * (1 - m2) + reshape_mean_pool(z, 2) * m2
    y3 = nn_upsample(y2, 2) * (1 - m1) + z * m1
    return nn_upsample(np.clip(y3, -1.0, 1.0), 4)


def decode(session, gmap, streams) -> np.ndarray:
    """pipeline.reconstruct's padded pixels for a map and its streams."""
    return pipeline.reconstruct(session, map_container(session, gmap), gmap,
                                streams).pixels


def painted(session, stream, factor: int, shape) -> np.ndarray:
    """The bytes of the clamped colour of each code in a raster-order stream
    covering a grid of `shape` cells, each cell painted as a factor x factor
    pixel block."""
    rgb = denormalize(np.clip(session.codebook.codes[stream], -1.0, 1.0))
    return nn_upsample(rgb.reshape(shape + (3,)), factor)


def random_setup(rng, by=3, bx=4, k=16):
    session = codes_session(rng.standard_normal((k, 3)))
    gmap = rng.integers(0, 3, size=(by, bx)).astype(np.uint8)
    return session, gmap, random_streams(rng, gmap, k)


class TestAssemble:
    def test_all_coarse(self):
        rng = np.random.default_rng(0)
        session = codes_session(rng.standard_normal((4, 3)))
        gmap = np.full((2, 2), COARSE, dtype=np.uint8)
        stream = np.array([2, 0, 3, 3], dtype=np.int32)
        out = decode(session, gmap, [np.zeros(0, np.int32)] * 2 + [stream])
        assert np.array_equal(out, painted(session, stream, 16, (2, 2)))

    def test_all_fine(self):
        rng = np.random.default_rng(1)
        session = codes_session(rng.standard_normal((64, 3)))
        gmap = np.full((2, 2), FINE, dtype=np.uint8)
        stream = rng.permutation(64).astype(np.int32)
        out = decode(session, gmap, [stream] + [np.zeros(0, np.int32)] * 2)
        assert np.array_equal(out, painted(session, stream, 4, (8, 8)))

    def test_pool_recovers_coarse_support(self):
        rng = np.random.default_rng(2)
        session, gmap, streams = random_setup(rng)
        pooled = reshape_mean_pool(decode(session, gmap, streams), 16)
        coarse = masks_from_map(gmap)[2]
        assert_painted(pooled, coarse, streams[2], session.codebook, 1)

    def test_scale_mismatch_rejected(self):
        # a stream whose length differs from its scale's mask count
        rng = np.random.default_rng(3)
        session, gmap, (s1, s2, s3) = random_setup(rng)
        assert s1.size > 1 and s3.size > 0
        for streams in ([s1[:-1], s2, s3], [s1, s2, np.append(s3, 0)], [s3, s2, s1]):
            with pytest.raises(ValueError):
                decode(session, gmap, streams)

    def test_stream_list_not_of_three_rejected(self):
        # zip would drop a fourth stream or read a leading extra one as the
        # fine stream; every all-coarse map holds empty fine and medium
        # streams, so a leading empty one would decode with no error
        session = codes_session(np.random.default_rng(6).standard_normal((4, 3)))
        gmap = np.full((4, 4), COARSE, dtype=np.uint8)
        empty, coarse = np.zeros(0, np.int32), np.arange(16, dtype=np.int32) % 4
        streams = [empty, empty, coarse]
        assert decode(session, gmap, streams).shape == (64, 64, 3)
        for bad in ([empty, *streams], [*streams, empty], streams[1:], []):
            with pytest.raises(ValueError, match=f"^{len(bad)} index streams, not 3"):
                decode(session, gmap, bad)

    def test_one_index_for_several_cells_rejected(self):
        # numpy would broadcast a one-index stream over every kept cell
        session = codes_session(np.random.default_rng(5).standard_normal((4, 3)))
        gmap = np.full((1, 2), COARSE, dtype=np.uint8)
        empty = np.zeros(0, np.int32)
        with pytest.raises(ValueError):
            decode(session, gmap, [empty, empty, np.array([1], np.int32)])

    def test_out_of_range_index_rejected(self):
        # each stream is checked before it is painted, its values unwrapped
        # whatever their integer type; a float stream is refused even when
        # every value is a whole index
        rng = np.random.default_rng(3)
        session, gmap, streams = random_setup(rng)
        for at in np.flatnonzero([s.size for s in streams]):
            for bad in (16, -1, 2 ** 32, "float"):
                wide = [s.astype(np.int64) for s in streams]
                if bad == "float":
                    wide[at] = wide[at].astype(np.float64)
                else:
                    wide[at][-1] = bad
                with pytest.raises(vq.CodebookError,
                                   match=r"indices must be integers in \[0, 16\)"):
                    decode(session, gmap, wide)

    def test_integer_dtypes_paint_alike(self):
        # the code grid is int32 whatever the streams' integer type; uint64
        # has no common integer type with int32
        rng = np.random.default_rng(7)
        session, gmap, streams = random_setup(rng)
        want = decode(session, gmap, streams)
        for dtype in (np.int64, np.uint8, np.uint32, np.uint64):
            got = decode(session, gmap, [s.astype(dtype) for s in streams])
            assert np.array_equal(got, want), dtype

    def test_linear_over_mask_support(self):
        # a fine stream changes the output on the fine support only
        rng = np.random.default_rng(4)
        session, gmap, streams = random_setup(rng)
        other = random_streams(rng, gmap, 16)[0]
        a = decode(session, gmap, streams)
        b = decode(session, gmap, [other] + streams[1:])
        m1 = masks_from_map(gmap)[0]
        fine = nn_upsample(m1, 4)
        assert np.array_equal(a[~fine], b[~fine])
        assert_painted(b, m1, other, session.codebook, 4)


class TestConditionalDecode:
    def test_replacement_exactness(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            session, gmap, streams = random_setup(rng)
            out = decode(session, gmap, streams)
            assert_painted(out, masks_from_map(gmap)[0], streams[0], session.codebook, 4)

    def test_medium_replacement_exact(self):
        rng = np.random.default_rng(6)
        session, gmap, streams = random_setup(rng)
        out = decode(session, gmap, streams)
        assert_painted(out, masks_from_map(gmap)[1], streams[1], session.codebook, 8)

    def test_all_coarse_identity_chain(self):
        rng = np.random.default_rng(7)
        session = codes_session(rng.standard_normal((6, 3)))
        gmap = np.full((2, 3), COARSE, dtype=np.uint8)
        streams = [np.zeros(0, np.int32)] * 2 + [rng.permutation(6).astype(np.int32)]
        out = decode(session, gmap, streams)
        assert np.array_equal(out, painted(session, streams[2], 16, (2, 3)))
        oracle = replacement_chain(session.codebook, gmap, streams)
        assert out.tobytes() == denormalize(oracle).tobytes()

    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_matches_replacement_chain(self, k):
        # byte for byte, for codes outside [-1, 1], signed zeros and tiny
        # values included
        rng = np.random.default_rng(k)
        special = np.array([-0.0, 0.0, 1e-30, -1e-30, 1.5e-30, 9.0, -9.0, 1.0, -1.0],
                           dtype=np.float32)
        for _ in range(40):
            codes = (2 * rng.standard_normal((k, 3))).astype(np.float32)
            pick = rng.random(codes.shape) < 0.5
            codes[pick] = rng.choice(special, size=int(pick.sum()))
            codes[0] = (-0.0, 0.0, 1e-30)
            session = codes_session(codes)
            by, bx = rng.integers(1, 9, size=2)
            gmap = rng.integers(0, 3, size=(by, bx)).astype(np.uint8)
            streams = random_streams(rng, gmap, k)
            out = decode(session, gmap, streams)
            oracle = denormalize(replacement_chain(session.codebook, gmap, streams))
            assert out.dtype == oracle.dtype and out.shape == oracle.shape
            assert out.tobytes() == oracle.tobytes()


class TestSynthesize:
    def test_constant_image_exact(self):
        img = from_raw(np.full((32, 32, 3), 150, dtype=np.uint8))
        session = codes_session(img.samples[0, 0][None])
        gmap = np.full((2, 2), COARSE, dtype=np.uint8)
        out = decode(session, gmap, [np.zeros(0, np.int32)] * 2 + [np.zeros(4, np.int32)])
        assert out.tobytes() == img.pixels.tobytes()

    def test_block_mean_painting(self):
        img = make_image("photo", 32, 32, seed=8)
        means = reshape_mean_pool(img.samples, 4)
        session = codes_session(means.reshape(64, 3))
        gmap = np.full((2, 2), FINE, dtype=np.uint8)
        out = decode(session, gmap, [np.arange(64, dtype=np.int32)]
                     + [np.zeros(0, np.int32)] * 2)
        assert np.array_equal(out, denormalize(nn_upsample(means, 4)))

    def test_output_clamped(self):
        session = codes_session([[9.0] * 3, [-9.0] * 3])
        gmap = np.full((1, 2), COARSE, dtype=np.uint8)
        out = decode(session, gmap, [np.zeros(0, np.int32)] * 2 + [np.array([0, 1], np.int32)])
        assert np.all(out[:, :16] == 255) and np.all(out[:, 16:] == 0)


class TestGranularityMonotonicity:
    def test_fine_beats_coarse_on_corpus(self, small_session):
        images = [make_image(k, 48, 48, seed=30 + i)
                  for i, k in enumerate(["photo", "waves", "blocky", "gradient"] * 5)]
        def mean_psnr(ratios):
            vals = []
            for img in images:
                c = pipeline.encode_image(small_session, img, ratios=ratios)
                vals.append(psnr(img, pipeline.decode_image(small_session, c)))
            return float(np.mean(vals))
        assert mean_psnr(RatioTriple(1, 0, 0)) >= mean_psnr(RatioTriple(0, 0, 1))
