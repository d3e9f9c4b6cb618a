import copy
import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from granucodec import bitstream, cli, granularity, imaging, pipeline, training, vq
from granucodec.bitstream import BitstreamError, parse_container, serialize_container
from granucodec.granularity import COARSE, FINE, MEDIUM, RatioTriple

from conftest import (
    assert_painted, crowded_cube, flat_frequencies, make_image, make_raw, traced_peak,
    write_codebook,
)


def over_cap_container() -> tuple[bytes, vq.Codebook, vq.FrequencyTable]:
    """A CRC-valid, self-consistent all-coarse container one block row over
    the pixel cap (8208x8192), and the k=1 codebook it decodes with: every
    map label and every index is the one-bit codeword 0, so the payload is
    all zero bytes."""
    cb = vq.Codebook(np.zeros((1, 3), dtype=np.float32))
    tbl = flat_frequencies(1)
    h, w = 8208, 8192
    assert h * w > bitstream.MAX_PIXELS >= (h - 16) * w
    blocks = h * w // 256
    c = bitstream.Container(
        true_w=w, true_h=h, codebook_hash=cb.id_hash,
        index_bits=(0, 0, blocks), map_bits=blocks,
        payload=bytes(2 * blocks // 8))
    return serialize_container(c), cb, tbl


# SHA-256 of the fixture session's tables as little-endian bytes, the rate
# table's rows sorted stably by bpp: a change to the Huffman or rate-table
# builder that alters one length, codeword, row or bpp fails here, not only
# through container digests
SESSION_TABLES_SHA256 = {
    "huffman.lengths": "53974983ecba840221a7d1c95c71f231743278e72d3adde0b547c22676c423b3",
    "huffman.codewords": "caee6982304eeaac3d1b2faf3a1be583b6402f091355bc5a93064c99201eb533",
    "rate_table.ratios": "68eaa5da9ebd600b53ffabbc3bd3c0213c015f8020eaa1ce604edd9ee8c3b108",
    "rate_table.bpp": "bb1b66faa425b02b4e7015102cdf0c0bfdba12488de8bbb7e9ee15666c0bdeb0",
}


@pytest.mark.parametrize("make", [
    lambda s: s.codebook, lambda s: s.frequencies, lambda s: s.huffman,
    lambda s: make_image("photo", 32, 32, seed=1), lambda s: s,
], ids=["Codebook", "FrequencyTable", "HuffmanCode", "ImagePlane", "CodecSession"])
def test_records_compare_by_identity(small_session, make):
    # records holding arrays compare and hash by identity, not by raising
    x = make(small_session)
    assert x == x
    assert x != copy.copy(x)
    assert hash(x) == hash(x)
    assert x in {x}


# SHA-256 of `rate-table`'s stdout for the `cli_env` codebook
RATE_TABLE_CSV_SHA256 = "39ed44b6e43dae86a5414407718db822b03b250e67992f9be95c73bada4b647a"


def test_session_tables_pinned(session):
    assert session.codebook.id_hash == 0x07007E68D1CAA797
    # the session keeps one bpp per row of the read-only lattice, in lattice order
    assert session.rate_table.shape == (len(granularity.LATTICE),)
    assert not granularity.LATTICE.flags.writeable
    by_bpp = np.argsort(session.rate_table, kind="stable")
    tables = {"huffman.lengths": (session.huffman.lengths, "<i4"),
              "huffman.codewords": (session.huffman.codewords, "<i8"),
              "rate_table.ratios": (granularity.LATTICE[by_bpp], "<f8"),
              "rate_table.bpp": (session.rate_table[by_bpp], "<f8")}
    digests = {name: hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()
               for name, (a, dtype) in tables.items()}
    assert digests == SESSION_TABLES_SHA256


class TestSharedCode:
    """Sessions of one frequency table share one Huffman build."""

    def test_sessions_from_one_file_share_one_build(self, small_session, tmp_path, monkeypatch):
        path = tmp_path / "cb.cgcb"
        vq.save_codebook(small_session.codebook, small_session.frequencies, path)
        build, builds = bitstream.build_huffman, []
        monkeypatch.setattr(bitstream, "build_huffman",
                            lambda counts: builds.append(counts) or build(counts))
        pipeline._shared_code.cache_clear()
        first, second = (pipeline.CodecSession.from_file(path) for _ in range(2))
        assert first.huffman is second.huffman
        assert len(builds) == 1

    def test_sessions_from_one_file_share_their_tables(self, small_session, tmp_path):
        path = tmp_path / "cb.cgcb"
        vq.save_codebook(small_session.codebook, small_session.frequencies, path)
        first, second = (pipeline.CodecSession.from_file(path) for _ in range(2))
        assert first.huffman is second.huffman
        assert first.rate_table is second.rate_table
        assert first.mean_code_len == first.huffman.mean_length
        for table in first.rate_table, granularity.build_rate_table(5.0):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    @pytest.mark.parametrize("name", ["codebook", "frequencies", "huffman", "mean_code_len",
                                      "rate_table"])
    def test_session_frozen(self, small_session, name):
        # no field can be swapped, so L and the rate table always follow the code
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(small_session, name, getattr(small_session, name))

    def test_shared_arrays_read_only(self, small_session):
        # read-only as the builder returns them, not only through the cache
        fresh = bitstream.build_huffman(small_session.frequencies.counts)
        for code in (small_session.huffman, fresh, bitstream.MAP_CODE):
            for array in (code.lengths, code.codewords, code.windows, code.window_lengths):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    def test_other_counts_other_code(self, small_session):
        counts = small_session.frequencies.counts.copy()
        counts[0] = counts.sum()  # symbol 0 gets a 1-bit codeword
        other = pipeline.CodecSession(small_session.codebook, vq.FrequencyTable(counts))
        assert other.huffman is not small_session.huffman
        assert other.huffman.lengths[0] == 1 != small_session.huffman.lengths[0]
        want = bitstream.build_huffman(counts)
        assert np.array_equal(other.huffman.lengths, want.lengths)
        assert np.array_equal(other.huffman.codewords, want.codewords)

    def test_session_outlives_the_arrays_it_was_made_from(self, small_session, tmp_path):
        # the session holds copies: changing the caller's arrays after the
        # file is saved leaves the hash its containers carry, and their pixels
        codes = np.array(small_session.codebook.codes)
        counts = np.array(small_session.frequencies.counts)
        session = pipeline.CodecSession(vq.Codebook(codes), vq.FrequencyTable(counts))
        path = tmp_path / "cb.cgcb"
        vq.save_codebook(session.codebook, session.frequencies, path)
        codes[:] = 0.0
        counts[:] = 1
        img = make_image("photo", 64, 64, seed=41)
        c = pipeline.encode_image(session, img, ratios=RatioTriple(0.25, 0.25, 0.5))
        assert c.codebook_hash == vq.load_codebook(path)[0].id_hash
        got = pipeline.decode_image(pipeline.CodecSession.from_file(path), c)
        assert np.array_equal(got.pixels, pipeline.decode_image(small_session, c).pixels)

    @pytest.mark.parametrize("table", ["zero count", "2^16 + 1 symbols", "count of 2^64"])
    def test_session_refuses_what_build_huffman_refuses(self, table):
        k = (1 << 16) + 1 if table == "2^16 + 1 symbols" else 4
        counts = np.ones(k, dtype=object)
        counts[0] = {"zero count": 0, "count of 2^64": 1 << 64}.get(table, 1)
        with pytest.raises(BitstreamError) as refused:
            bitstream.build_huffman(counts)
        cb = vq.Codebook(np.zeros((k, 3), dtype=np.float32))
        for _ in range(2):  # lru_cache keeps no exception, so each attempt raises
            with pytest.raises(BitstreamError, match=re.escape(str(refused.value))):
                pipeline.CodecSession(cb, vq.FrequencyTable(counts))

    @pytest.mark.parametrize("shape", [(4, 2), ()], ids=["2-d", "0-d"])
    def test_counts_not_one_dimensional_refused(self, shape):
        # the shape is named, not left to a broadcast or an index error
        counts = np.ones(shape, dtype=np.uint64)
        message = re.escape(f"frequency counts of shape {shape}, not (k,)")
        with pytest.raises(BitstreamError, match=message):
            bitstream.build_huffman(counts)
        cb = vq.Codebook(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(BitstreamError, match=message):
            pipeline.CodecSession(cb, vq.FrequencyTable(counts))


class TestEncodeDecode:
    def test_coarse_only_index_count(self, small_session):
        img = make_image("photo", 64, 64, seed=40)
        c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0, 0, 1))
        gmap, streams = pipeline.decode_streams(small_session, c)
        assert np.all(gmap == COARSE)
        assert streams[0].size == 0 and streams[1].size == 0
        assert streams[2].size == 64 * 64 // 256

    def test_target_below_minimum_clamps(self, small_session):
        img = make_image("waves", 32, 32, seed=41)
        c = pipeline.encode_image(small_session, img, target_bpp=0.0)
        gmap, _ = pipeline.decode_streams(small_session, c)
        assert np.all(gmap == COARSE)

    def test_roundtrip_matches_encoder_state(self, small_session):
        img = make_image("blocky", 80, 48, seed=42)
        from granucodec.spatial_entropy import entropy_map
        emap = entropy_map(img, small_session.entropy_cfg)
        gmap = granularity.plan_granularity(emap, RatioTriple(0.3, 0.4, 0.3))
        _, enc_streams = pipeline.quantize_streams(small_session, img, gmap)
        c = pipeline.encode_with_map(small_session, img, gmap)
        c2 = parse_container(serialize_container(c))
        dec_gmap, dec_streams = pipeline.decode_streams(small_session, c2)
        assert np.array_equal(dec_gmap, gmap)
        for a, b in zip(enc_streams, dec_streams):
            assert np.array_equal(a, b)

    def test_derived_header_fields_follow_the_plan(self, small_session):
        # the golden encodes: the parsed container's ratios are the planned
        # map's, and its padded size is the plane's
        from granucodec.spatial_entropy import entropy_map
        for i, kind in enumerate(["noise", "gradient", "blocky", "photo", "waves"]):
            img = make_image(kind, 120, 104, seed=70 + i)
            emap = entropy_map(img, small_session.entropy_cfg)
            for ratios in (RatioTriple(0.37, 0.46, 0.17),
                           granularity.ratios_for_target(small_session.rate_table, 0.2)):
                gmap = granularity.plan_granularity(emap, ratios)
                c = parse_container(serialize_container(
                    pipeline.encode_with_map(small_session, img, gmap)))
                counts = [int((gmap == label).sum()) for label in (FINE, MEDIUM, COARSE)]
                assert c.ratios == RatioTriple(*(n / gmap.size for n in counts))
                assert (c.padded_w, c.padded_h) == (img.width, img.height)

    def test_decode_expands_the_map_once(self, small_session, monkeypatch):
        img = make_image("photo", 64, 48, seed=43)
        c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0.5, 0.3, 0.2))
        calls = []

        def counted(gmap):
            calls.append(gmap)
            return masks_from_map(gmap)
        masks_from_map = granularity.masks_from_map
        monkeypatch.setattr(granularity, "masks_from_map", counted)
        pipeline.decode_image(small_session, c)
        assert len(calls) == 1

    def test_decode_deterministic(self, small_session):
        img = make_image("photo", 48, 48, seed=43)
        c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0.5, 0.3, 0.2))
        a = pipeline.decode_image(small_session, c)
        b = pipeline.decode_image(small_session, c)
        assert np.array_equal(a.pixels, b.pixels)
        assert imaging.psnr(img, a) > 0

    def test_replacement_chain_losslessness(self, small_session):
        # each decoded cell is the encoder's quantized feature at its scale
        from granucodec.spatial_entropy import entropy_map
        img = make_image("waves", 64, 64, seed=44)
        emap = entropy_map(img, small_session.entropy_cfg)
        gmap = granularity.plan_granularity(emap, RatioTriple(0.4, 0.4, 0.2))
        masks, streams = pipeline.quantize_streams(small_session, img, gmap)
        c = pipeline.encode_with_map(small_session, img, gmap)
        out = pipeline.decode_image(small_session, c).pixels
        for m, stream, factor in zip(masks, streams, (4, 8, 16)):
            assert stream.size > 0
            assert_painted(out, m, stream, small_session.codebook, factor)

    def test_wrong_codebook_rejected(self, small_session):
        img = make_image("photo", 32, 32, seed=45)
        c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0, 0, 1))
        other = pipeline.CodecSession(
            vq.Codebook(small_session.codebook.codes + 1.0),
            vq.FrequencyTable(small_session.frequencies.counts.copy()))
        with pytest.raises(BitstreamError):
            pipeline.decode_image(other, c)

    @pytest.mark.parametrize("h, w, ratios", [
        (512, 512, RatioTriple(0.70, 0.25, 0.05)),  # the benchmark's hirate ratios
        (1024, 1024, RatioTriple(0, 0, 1)),
        (1000, 744, RatioTriple(1, 0, 0)),  # padded to 1008 rows: a 48-row last strip
    ], ids=["hirate_512", "coarse_1024", "fine_1000x744"])
    def test_decode_peak_memory_per_pixel(self, small_session, h, w, ratios):
        # the 8-bit output is 3 B/px, painted 64 rows at a time; the rest is
        # the fine grid's code indices, the masks and the index streams:
        # 3.5-3.8 B/px per padded pixel
        img = make_image("photo", h, w, seed=46)
        c = pipeline.encode_image(small_session, img, ratios=ratios)
        peak = traced_peak(pipeline.decode_image, small_session, c)
        assert peak <= 4.25 * img.height * img.width

    def test_encode_peak_memory_per_pixel(self, session):
        # the fixture codebook has k=1024; at the benchmark's hirate ratios
        # the nearest-code search must not outgrow the feature pyramid
        img = make_image("photo", 512, 512, seed=47)
        peak = traced_peak(pipeline.encode_image, session, img,
                           RatioTriple(0.70, 0.25, 0.05))
        assert peak <= 24 * 512 * 512

    def test_encode_peak_memory_per_pixel_1024(self, session):
        # at the hirate ratios of a 1024^2 photo, with the search's index
        # already built: the pyramid and the nearest-code search over about
        # 50,000 cells set the peak, 4.8 B/px
        img = make_image("photo", 1024, 1024, seed=1)
        ratios = RatioTriple(0.70, 0.25, 0.05)
        pipeline.encode_image(session, img, ratios)
        assert traced_peak(pipeline.encode_image, session, img, ratios) <= 5 * 1024 * 1024

    def test_container_over_pixel_cap_rejected(self):
        data, _, _ = over_cap_container()

        def rejected():
            with pytest.raises(BitstreamError, match="limit"):
                parse_container(data)

        assert traced_peak(rejected) < 2 * len(data)

    def test_index_walk_bounded_by_the_payload(self, session):
        # 8192^2 declared, every block fine (a valid 2-bit map), every index
        # segment 0 bits: the 4,194,304 fine symbols the map claims cannot
        # fit, and the decoder must refuse them at the cost of the map decode
        # (about 159 B per input byte), not of a walk over all of them
        # (about 3,100 B per input byte)
        blocks = 8192 * 8192 // 256
        data = serialize_container(bitstream.Container(
            true_w=8192, true_h=8192, codebook_hash=session.codebook.id_hash,
            index_bits=(0, 0, 0), map_bits=2 * blocks, payload=b"\xff" * (blocks // 4)))
        assert len(data) == 65_577

        def rejected():
            with pytest.raises(BitstreamError, match="read past end of bit payload"):
                pipeline.decode_image(session, parse_container(data))

        assert traced_peak(rejected) < 200 * len(data)

    def test_encode_over_pixel_cap_rejected(self, small_session):
        # broadcast_to allocates nothing: the plane must be refused unread
        pixels = np.broadcast_to(np.uint8(0), (8208, 8192, 3))
        img = imaging.ImagePlane(pixels, true_h=8208, true_w=8192)
        with pytest.raises(ValueError, match="limit"):
            pipeline.encode_image(small_session, img, ratios=RatioTriple(0, 0, 1))
        with pytest.raises(ValueError, match="limit"):
            pipeline.encode_with_map(small_session, img,
                                     np.full((513, 512), COARSE, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(20, 0, 3), (0, 20, 3)])
    def test_encode_empty_image_rejected(self, small_session, shape):
        img = imaging.from_raw(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            pipeline.encode_image(small_session, img, ratios=RatioTriple(0, 0, 1))
        gmap = np.full((img.height // 16, img.width // 16), COARSE, dtype=np.uint8)
        with pytest.raises(ValueError, match="empty"):
            pipeline.encode_with_map(small_session, img, gmap)

    @pytest.mark.parametrize("h, w, message", [
        (0, 20, "empty image (20x0)"),
        (8208, 8192, "8192x8208 padded pixels exceed the 67108864-pixel limit"),
    ], ids=["empty-side", "over-cap"])
    def test_encoder_and_parser_refuse_one_size_alike(self, small_session, h, w, message):
        # broadcast_to allocates nothing, and the all-coarse container of the
        # same size is valid but for its size
        pixels = np.broadcast_to(np.uint8(0), (-(-h // 16) * 16, -(-w // 16) * 16, 3))
        img = imaging.ImagePlane(pixels, true_h=h, true_w=w)
        gmap = np.full((img.height // 16, img.width // 16), COARSE, dtype=np.uint8)
        data = serialize_container(bitstream.Container(
            true_w=w, true_h=h, codebook_hash=small_session.codebook.id_hash,
            index_bits=(0, 0, gmap.size), map_bits=gmap.size,
            payload=bytes(2 * gmap.size + 7 >> 3)))
        for refuse in (lambda: pipeline.encode_image(small_session, img,
                                                     ratios=RatioTriple(0, 0, 1)),
                       lambda: pipeline.encode_with_map(small_session, img, gmap),
                       lambda: parse_container(data)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                refuse()

    @pytest.mark.parametrize("label", [3, -1])
    def test_map_label_outside_the_three_rejected(self, small_session, label):
        # one coarse block and one labelled neither fine, medium nor coarse,
        # which neither the encoder nor the painter may take for code 0
        img = make_image("photo", 16, 32, seed=5)
        gmap = np.array([[COARSE, label]], dtype=np.int8)
        message = f"^granularity map label {label} is not fine, medium or coarse$"
        with pytest.raises(ValueError, match=message):
            pipeline.encode_with_map(small_session, img, gmap)
        c = pipeline.encode_with_map(small_session, img, np.full((1, 2), COARSE, np.int8))
        streams = [np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(1, np.int64)]
        with pytest.raises(ValueError, match=message):
            pipeline.reconstruct(small_session, c, gmap, streams)

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "-inf", "inf-and--inf-in-one-cell"])
    def test_encode_non_finite_rejected(self, small_session, values):
        # an image is bytes: a plane of float samples, finite or not, is
        # refused before it can reach either entry point
        samples = make_image("photo", 32, 48, seed=43).samples.copy()
        samples[21, 37:37 + len(values), 1] = values
        with pytest.raises(TypeError, match="uint8"):
            imaging.ImagePlane(samples, true_h=32, true_w=48)

    @pytest.mark.parametrize("d", [1, 2, 4, 5])
    def test_codebook_of_other_feature_count_rejected(self, d):
        # the analysis transform makes 3 features per cell; a d=2 session
        # used to decode into a 2-channel plane that save_ppm wrote short,
        # and d=4 is the layout that also held a luminance std
        with pytest.raises(vq.CodebookError, match=rf"shape \(2, {d}\), not \(k >= 1, 3\)"):
            vq.Codebook(np.zeros((2, d), dtype=np.float32))

    def test_unsmoothed_frequency_table_rejected(self, small_session):
        # raw counts may hold zeros, which no Huffman code can give a codeword
        counts = small_session.frequencies.counts.copy()
        counts[5] = 0
        with pytest.raises(BitstreamError, match="smoothed"):
            pipeline.CodecSession(small_session.codebook, vq.FrequencyTable(counts))

    def test_constant_image_exact_roundtrip(self):
        flat = imaging.from_raw(np.full((32, 32, 3), 90, dtype=np.uint8))
        cb, tbl = training.train_codebook([flat], k=8, iters=8, seed=0)
        session = pipeline.CodecSession(cb, tbl)
        for ratios in [(0, 0, 1), (0.5, 0.5, 0), (1, 0, 0)]:
            c = pipeline.encode_image(session, flat, ratios=RatioTriple(*ratios))
            rec = pipeline.decode_image(session, c)
            assert imaging.psnr(flat, rec) == imaging.LOSSLESS


class TestPlanImage:
    @pytest.mark.parametrize("kwargs", [{"ratios": RatioTriple(0.3, 0.3, 0.4)}] + [
        {"target_bpp": t} for t in (0.05, 0.1, 0.3, 0.6)],
        ids=["ratios", "bpp-0.05", "bpp-0.1", "bpp-0.3", "bpp-0.6"])
    def test_encode_writes_the_plan(self, small_session, kwargs):
        from granucodec.spatial_entropy import entropy_map
        img = make_image("photo", 120, 104, seed=80)
        ratios, emap, gmap = pipeline.plan_image(small_session, img, **kwargs)
        assert ratios == (kwargs.get("ratios") or granularity.ratios_for_target(
            small_session.rate_table, kwargs["target_bpp"]))
        assert np.array_equal(emap, entropy_map(img, small_session.entropy_cfg))
        assert np.array_equal(gmap, granularity.plan_granularity(emap, ratios))
        c = pipeline.encode_image(small_session, img, **kwargs)
        assert np.array_equal(bitstream.decode_map(c), gmap)

    @pytest.mark.parametrize("kwargs", [{}, {"ratios": RatioTriple(0, 0, 1), "target_bpp": 0.2}],
                             ids=["neither", "both"])
    def test_exactly_one_rate(self, small_session, kwargs):
        img = make_image("waves", 32, 32, seed=81)
        with pytest.raises(ValueError, match="give exactly one of ratios or target_bpp"):
            pipeline.plan_image(small_session, img, **kwargs)

    @pytest.mark.parametrize("flags, kwargs", [
        (["--ratios", "0,0,1"], {"ratios": RatioTriple(0, 0, 1)}),
        (["--bpp", "0.2"], {"target_bpp": 0.2}),
    ], ids=["ratios", "bpp"])
    def test_over_cap_refused_before_any_pixel(self, small_session, cli_env, monkeypatch,
                                               capsys, flags, kwargs):
        # broadcast_to allocates nothing, and no entropy map may be computed
        pixels = np.broadcast_to(np.zeros((1, 1, 3), np.uint8), (8208, 8192, 3))
        img = imaging.ImagePlane(pixels, true_h=8193, true_w=8192)

        def unread(*args, **kwargs):
            raise AssertionError("entropy map of an image over the pixel cap")

        monkeypatch.setattr(pipeline, "entropy_map", unread)
        monkeypatch.setattr(cli, "entropy_map", unread, raising=False)
        message = "8192x8208 padded pixels exceed the 67108864-pixel limit"
        with pytest.raises(BitstreamError, match=re.escape(message)):
            pipeline.plan_image(small_session, img, **kwargs)
        monkeypatch.setattr(imaging, "load_ppm", lambda path: img)
        _, cb, _ = cli_env
        assert cli.main(["stats", "--codebook", str(cb), "--input", "any.ppm", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


SRC = str(Path(__file__).resolve().parents[1] / "src")


CLI = [sys.executable, "-m", "granucodec.cli"]


def child_env():
    """The environment of a child that imports granucodec from this tree."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*args, cwd=None, stdin=None):
    """Run the CLI in a child that imports granucodec from this tree."""
    return subprocess.run(CLI + [str(a) for a in args], capture_output=True, text=True,
                          cwd=cwd, input=stdin, env=child_env())


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Corpus dir, trained codebook file, and one test image on disk."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    corpus.mkdir()
    for i, kind in enumerate(["photo", "waves", "blocky", "noise"]):
        img = imaging.from_raw(make_raw(kind, 64, 64, seed=50 + i))
        imaging.save_ppm(img, corpus / f"{kind}.ppm")
    cb_path = root / "cb.cgcb"
    res = run_cli("train-codebook", "--corpus", corpus, "--k", 32,
                  "--seed", 5, "--iters", 8, "--out", cb_path)
    assert res.returncode == 0, res.stderr
    input_ppm = root / "input.ppm"
    imaging.save_ppm(make_image("photo", 96, 80, seed=60), input_ppm)
    return root, cb_path, input_ppm


class TestCli:
    def test_console_script_help(self, capsys):
        # the entry point `pip install` makes, as pyproject.toml names it;
        # the other CLI tests run `python -m granucodec.cli`
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(SRC).parent / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        module, _, name = scripts["granucodec"].partition(":")
        main = getattr(importlib.import_module(module), name)
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: granucodec ")

    def test_encode_decode_stats_agree(self, cli_env):
        root, cb, ppm = cli_env
        cgic = root / "out.cgic"
        rec = root / "rec.ppm"
        res = run_cli("encode", "--codebook", cb, "--input", ppm,
                      "--out", cgic, "--ratios", "0.4,0.4,0.2")
        assert res.returncode == 0, res.stderr
        res = run_cli("decode", "--codebook", cb, "--input", cgic, "--out", rec)
        assert res.returncode == 0, res.stderr
        assert rec.exists()

        stats = run_cli("stats", "--codebook", cb, "--input", ppm,
                        "--ratios", "0.4,0.4,0.2", "--json")
        assert stats.returncode == 0, stats.stderr
        inspect = run_cli("inspect", "--input", cgic, "--json")
        assert inspect.returncode == 0, inspect.stderr
        s = json.loads(stats.stdout)
        i = json.loads(inspect.stdout)
        assert s["actual_bpp"] == pytest.approx(i["actual_bpp"])
        assert s["psnr_db"] is None or s["psnr_db"] > 0

    def test_stats_stream_bits_and_rate_gap(self, cli_env):
        _, cb, ppm = cli_env
        res = run_cli("stats", "--codebook", cb, "--input", ppm,
                      "--ratios", "0.3,0.3,0.4", "--json")
        assert res.returncode == 0, res.stderr
        s = json.loads(res.stdout)
        assert list(s) == ["ratios", "theoretical_bpp", "actual_bpp", "payload_bpp",
                           "rate_gap_bpp", "stream_bits", "psnr_db", "lossless",
                           "blocks", "mean_code_length"]
        assert list(s["stream_bits"]) == ["map", "fine", "medium", "coarse"]
        session = pipeline.CodecSession.from_file(cb)
        c = pipeline.encode_image(session, imaging.load_ppm(ppm),
                                  ratios=RatioTriple(0.3, 0.3, 0.4))
        assert s["stream_bits"] == {"map": c.map_bits, "fine": c.index_bits[0],
                                    "medium": c.index_bits[1], "coarse": c.index_bits[2]}
        assert sum(s["stream_bits"].values()) == c.payload_bit_length
        gmap = bitstream.decode_map(c)
        assert s["blocks"] == dict(zip(["fine", "medium", "coarse"],
                                       granularity.label_counts(gmap).tolist()))
        assert sum(s["blocks"].values()) == gmap.size
        # the benchmark's definition: the model at the plan's ratios
        theory = granularity.theoretical_bpp(c.ratios, session.mean_code_len)
        assert s["rate_gap_bpp"] == abs(s["payload_bpp"] - theory)

    def test_target_bpp_flag(self, cli_env):
        root, cb, ppm = cli_env
        res = run_cli("encode", "--codebook", cb, "--input", ppm,
                      "--out", root / "t.cgic", "--bpp", "0.2")
        assert res.returncode == 0, res.stderr

    def test_rate_table_csv(self, cli_env):
        # the printed table is the one --bpp searches, row for row, sorted
        # stably by bpp; its bytes are pinned, so a change to the sort or to
        # the formatting fails here
        _, cb, _ = cli_env
        res = run_cli("rate-table", "--codebook", cb)
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == RATE_TABLE_CSV_SHA256
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "r1,r2,r3,bpp"
        assert len(lines) == 1 + 5151  # the simplex lattice at 1/100
        table = pipeline.CodecSession.from_file(cb).rate_table
        order = np.argsort(table, kind="stable")
        assert lines[1:] == [f"{r1:.6f},{r2:.6f},{r3:.6f},{bpp:.6f}" for (r1, r2, r3), bpp
                             in zip(granularity.LATTICE[order], table[order])]
        bpps = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert bpps == sorted(bpps)

    @pytest.mark.parametrize("target", [0.05, 0.1, 0.3, 0.6])
    def test_stats_bpp_picks_a_rate_table_row(self, cli_env, capsys, target):
        _, cb, ppm = cli_env
        assert cli.main(["stats", "--codebook", str(cb), "--input", str(ppm),
                         "--bpp", str(target), "--json"]) == 0
        ratios = json.loads(capsys.readouterr().out)["ratios"]
        assert ratios in granularity.LATTICE.tolist()

    def test_entropy_csv_dump(self, cli_env):
        root, cb, ppm = cli_env
        csv = root / "entropy.csv"
        res = run_cli("stats", "--codebook", cb, "--input", ppm,
                      "--ratios", "1,0,0", "--entropy-csv", csv)
        assert res.returncode == 0, res.stderr
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "row,col,entropy"
        assert len(lines) == 1 + (96 // 16) * (80 // 16)

    def test_entropy_csv_reuses_the_planned_map(self, cli_env, monkeypatch, capsys):
        # stats plans from one entropy map and writes the CSV from that map
        from granucodec import cli, spatial_entropy
        root, cb, ppm = cli_env
        maps = []

        def counted(*args, **kwargs):
            maps.append(spatial_entropy.entropy_map(*args, **kwargs))
            return maps[-1]
        monkeypatch.setattr(pipeline, "entropy_map", counted)
        csv = root / "entropy-once.csv"
        assert cli.main(["stats", "--codebook", str(cb), "--input", str(ppm),
                         "--ratios", "0.3,0.3,0.4", "--json",
                         "--entropy-csv", str(csv)]) == 0
        assert len(maps) == 1
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [f"{h:.9f}" for h in maps[0].ravel()] == [r[2] for r in rows]
        session = pipeline.CodecSession.from_file(cb)
        c = pipeline.encode_image(session, imaging.load_ppm(ppm),
                                  ratios=RatioTriple(0.3, 0.3, 0.4))
        s = json.loads(capsys.readouterr().out)
        assert s["stream_bits"] == {"map": c.map_bits, "fine": c.index_bits[0],
                                    "medium": c.index_bits[1], "coarse": c.index_bits[2]}

    def test_entropy_csv_that_cannot_be_written_prints_no_report(self, cli_env, tmp_path,
                                                                 capsys):
        # the CSV is written before the report: a failed write prints only
        # its error, and no JSON report precedes it on stdout
        from granucodec import cli
        _, cb, ppm = cli_env
        csv = tmp_path / "missing" / "x.csv"
        assert cli.main(["stats", "--codebook", str(cb), "--input", str(ppm),
                         "--ratios", "1,0,0", "--json", "--entropy-csv", str(csv)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2] ") and str(csv) in err

    def test_errors_exit_nonzero(self, cli_env, tmp_path):
        root, cb, ppm = cli_env
        res = run_cli("decode", "--codebook", cb,
                      "--input", ppm, "--out", tmp_path / "x.ppm")
        assert res.returncode == 1
        assert "error" in res.stderr
        res = run_cli("encode", "--codebook", cb, "--input", ppm,
                      "--out", tmp_path / "x.cgic")  # neither ratios nor bpp
        assert res.returncode != 0

    @pytest.mark.parametrize("command, rate, message", [
        ("encode", [], "one of the arguments --ratios --bpp is required"),
        ("stats", [], "one of the arguments --ratios --bpp is required"),
        ("encode", ["--ratios", "1,0,0", "--bpp", "0.2"],
         "argument --bpp: not allowed with argument --ratios"),
        ("stats", ["--ratios", "0.5,0.7,0"], "argument --ratios: bad ratio triple "
         "'0.5,0.7,0': ratios must sum to 1, got RatioTriple(r1=0.5, r2=0.7, r3=0.0)"),
    ], ids=["encode", "stats", "encode_two_rates", "stats_bad_ratios"])
    def test_rate_flags_checked_before_any_file(self, command, rate, message, tmp_path):
        # a usage error in the rate flags comes first, though neither the
        # codebook nor the input exists
        extra = ("--out", tmp_path / "x.cgic") if command == "encode" else ()
        res = run_cli(command, "--codebook", tmp_path / "missing.cgcb",
                      "--input", tmp_path / "missing.ppm", *extra, *rate)
        assert res.returncode == 1
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("error", [imaging.ImageError, vq.CodebookError, BitstreamError])
    def test_codec_errors_are_value_errors(self, error, monkeypatch, capsys):
        # `main` reports each through its ValueError clause, on one line
        assert issubclass(error, ValueError)

        def fail(args):
            raise error("bad input")

        monkeypatch.setattr(cli, "cmd_inspect", fail)
        assert cli.main(["inspect", "--input", "any.cgic"]) == 1
        assert capsys.readouterr() == ("", "error: bad input\n")

    def test_two_feature_codebook_exits_cleanly(self, cli_env, tmp_path):
        # a d=2 codebook file, written byte by byte, and a hand-made
        # one-block container that names it
        _, _, ppm = cli_env
        flat = flat_frequencies(4)
        codes = np.eye(4, 2, dtype=np.float32)
        d2 = tmp_path / "d2.cgcb"
        write_codebook(d2, codes)
        empty, one = np.zeros(0, np.int64), np.zeros(1, np.int64)
        cgic = tmp_path / "d2.cgic"
        cgic.write_bytes(serialize_container(bitstream.pack(
            16, 16, vq._codes_hash(codes), np.full((1, 1), COARSE), [empty, empty, one],
            bitstream.build_huffman(flat.counts))))
        for args in (("encode", "--input", ppm, "--out", tmp_path / "x.cgic",
                      "--bpp", "0.2"),
                     ("decode", "--input", cgic, "--out", tmp_path / "x.ppm")):
            res = run_cli(*args, "--codebook", d2)
            assert res.returncode == 1
            assert res.stderr.startswith("error:")
            assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.ppm").exists()

    def test_decode_huge_declared_dims_exits_cleanly(self, cli_env, tmp_path):
        # CRC-valid header for the right codebook declaring 4294967280^2
        # padded pixels, with map_bits=8 and a one-byte payload
        _, cb, _ = cli_env
        dim = 4294967280
        c = bitstream.Container(
            true_w=dim, true_h=dim, codebook_hash=vq.load_codebook(cb)[0].id_hash,
            index_bits=(0, 0, 0), map_bits=8,
            payload=bytes(1))
        hostile = tmp_path / "huge.cgic"
        hostile.write_bytes(serialize_container(c))
        res = run_cli("decode", "--codebook", cb, "--input", hostile,
                      "--out", tmp_path / "x.ppm")
        assert res.returncode == 1
        assert "error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_decode_over_pixel_cap_exits_cleanly(self, tmp_path):
        data, cb, tbl = over_cap_container()
        cb_path, cgic = tmp_path / "k1.cgcb", tmp_path / "big.cgic"
        vq.save_codebook(cb, tbl, cb_path)
        cgic.write_bytes(data)
        res = run_cli("decode", "--codebook", cb_path, "--input", cgic,
                      "--out", tmp_path / "x.ppm")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_inspect_unreadable_map_exits_cleanly(self, tmp_path):
        # a valid header and CRC for 4 blocks whose 4 map bits 1111 hold
        # only two labels: inspect reads the map, so it reports an error. The
        # third label passes the map segment's end, not the 8-bit payload's.
        cgic = tmp_path / "bad-map.cgic"
        cgic.write_bytes(serialize_container(bitstream.Container(
            true_w=32, true_h=32, codebook_hash=0, index_bits=(0, 0, 0),
            map_bits=4, payload=bytes([0b1111_0000]))))
        parse_container(cgic.read_bytes())
        res = run_cli("inspect", "--input", cgic)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr
        assert res.stderr == "error: read past end of the map segment\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("command", ["inspect", "decode"])
    def test_container_that_never_ends_exits_cleanly(self, cli_env, tmp_path, command):
        # the 41 zero bytes of the header declare no payload, so 42 bytes are
        # read; a read of the whole file would fill the child's 1 GB address
        # space (one BLAS thread keeps numpy's own reservation small) and end
        # in a MemoryError traceback
        _, cb, _ = cli_env
        args = ["--input", "/dev/zero"]
        if command == "decode":
            args += ["--codebook", str(cb), "--out", str(tmp_path / "x.ppm")]
        res = subprocess.run(
            CLI + [command, *args], capture_output=True, text=True, timeout=120,
            env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
        assert res.returncode == 1
        assert res.stderr == "error: bad magic b'\\x00\\x00\\x00\\x00'\n"

    @pytest.mark.parametrize("flags, passed", [
        ([], {}),
        (["--k", "8", "--iters", "2"], {"k": 8, "iters": 2}),
        (["--k", "8", "--seed", "3", "--iters", "2", "--max-samples", "900"],
         {"k": 8, "seed": 3, "iters": 2, "max_samples": 900}),
    ], ids=["no_knobs", "k_and_iters", "every_knob"])
    def test_train_codebook_passes_only_the_flags_given(self, small_session, tmp_path,
                                                        monkeypatch, flags, passed):
        # the training defaults are stated once, in training.train_codebook
        imaging.save_ppm(make_image("photo", 16, 16, seed=1), tmp_path / "a.ppm")
        given = []

        def train(images, **kwargs):
            given.append(kwargs)
            return small_session.codebook, small_session.frequencies
        monkeypatch.setattr(training, "train_codebook", train)
        out = tmp_path / "cb.cgcb"
        assert cli.main(["train-codebook", "--corpus", str(tmp_path), *flags,
                         "--out", str(out)]) == 0
        assert given == [passed]
        assert vq.load_codebook(out)[0].id_hash == small_session.codebook.id_hash

    def test_train_codebook_k_zero_exits_cleanly(self, cli_env, tmp_path):
        root, _, _ = cli_env
        res = run_cli("train-codebook", "--corpus", root / "corpus", "--k", 0,
                      "--out", tmp_path / "k0.cgcb")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command, extra, named", [
        ("encode", ["--ratios", "1,2"], "--ratios"),
        ("stats", ["--ratios", "0.5,0.7,0"], "--ratios"),
        ("encode", [], "arguments --ratios --bpp is required"),
        ("stats", ["--ratios", "1,0,0", "--bpp", "0.2"],
         "argument --bpp: not allowed with argument --ratios"),
        ("train-codebook", ["--freq-ratios", "1,2"], "--freq-ratios"),
        ("train-codebook", ["--corpus", "EMPTY"], ".ppm"),
        ("encode", ["--bpp=-inf"], "finite"),
        ("train-codebook", ["--iters", "-3"], "iters"),
        ("encode", ["--ratios", ""], "argument --ratios: bad ratio triple ''"),
        ("stats", ["--ratios", ""], "argument --ratios: bad ratio triple ''"),
        # a value starting with '-' that argparse takes for a flag
        ("encode", ["--bpp", "-inf"], "--bpp"),
        ("stats", ["--ratios", "-0.1,0.6,0.5"], "--ratios"),
    ], ids=["encode_ratios", "stats_ratios", "encode_no_rate", "stats_two_rates",
            "freq_ratios", "empty_corpus", "encode_bpp_minus_inf", "negative_iters",
            "encode_empty_ratios", "stats_empty_ratios", "encode_bpp_dash_value",
            "stats_ratios_dash_value"])
    def test_usage_errors_exit_cleanly(self, cli_env, tmp_path, command, extra, named):
        root, cb, ppm = cli_env
        base = {
            "encode": ["--codebook", cb, "--input", ppm, "--out", tmp_path / "x.cgic"],
            "stats": ["--codebook", cb, "--input", ppm],
            "train-codebook": ["--corpus", root / "corpus", "--k", 4, "--iters", 1,
                               "--out", tmp_path / "x.cgcb"],
        }[command]
        (tmp_path / "empty").mkdir()
        extra = [tmp_path / "empty" if a == "EMPTY" else a for a in extra]
        res = run_cli(command, *base, *extra)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert named in res.stderr
        assert "Traceback" not in res.stderr

    def test_help_exits_zero(self):
        # a usage error exits 1, but --help still prints the usage and exits 0
        for args in (["--help"], ["encode", "--help"]):
            res = run_cli(*args)
            assert res.returncode == 0
            assert res.stdout.startswith("usage:")

    @pytest.mark.parametrize("command", ["encode", "stats"])
    def test_help_shows_one_rate_flag_required(self, command):
        res = run_cli(command, "--help")
        assert res.returncode == 0
        assert "(--ratios RATIOS | --bpp BPP)" in res.stdout

    def test_rate_table_into_closed_pipe(self, cli_env):
        # `granucodec rate-table ... | head -1`: the reader takes one line and
        # closes the pipe; the rest of the table is dropped without a message
        _, cb, _ = cli_env
        with subprocess.Popen(CLI + ["rate-table", "--codebook", str(cb)], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) as proc:
            assert proc.stdout.readline() == "r1,r2,r3,bpp\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
            assert proc.stderr.read() == ""

    def test_encode_huge_declared_ppm_exits_cleanly(self, cli_env, tmp_path):
        _, cb, _ = cli_env
        hostile = tmp_path / "huge.ppm"
        hostile.write_bytes(b"P6\n1000000000 1000000000\n255\n" + bytes(12))
        res = run_cli("encode", "--codebook", cb, "--input", hostile,
                      "--out", tmp_path / "x.cgic", "--bpp", "0.2")
        assert res.returncode == 1
        assert "error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_encode_huge_declared_ppm_on_a_pipe_exits_cleanly(self, cli_env, tmp_path):
        _, cb, _ = cli_env
        res = run_cli("encode", "--codebook", cb, "--input", "/dev/stdin",
                      "--out", tmp_path / "x.cgic", "--bpp", "0.2",
                      stdin="P6\n1000000000 1000000000\n255\nabc")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_encode_skewed_codebook_exits_cleanly(self, cli_env, tmp_path):
        # Fibonacci counts ask for a 92-bit Huffman code for the last
        # symbols; the session holds it to 16 bits, so it encodes and decodes
        _, cb, ppm = cli_env
        fib = [1, 1]
        while len(fib) < 93:
            fib.append(fib[-1] + fib[-2])
        d = vq.load_codebook(cb)[0].d
        skewed = tmp_path / "skewed.cgcb"
        vq.save_codebook(
            vq.Codebook(np.arange(93 * d, dtype=np.float32).reshape(93, d)),
            vq.FrequencyTable(np.array(fib, dtype=np.uint64)), skewed)
        res = run_cli("encode", "--codebook", skewed, "--input", ppm,
                      "--out", tmp_path / "x.cgic", "--bpp", "0.2")
        assert res.returncode == 0, res.stderr
        res = run_cli("decode", "--codebook", skewed, "--input", tmp_path / "x.cgic",
                      "--out", tmp_path / "x.ppm")
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr

    def test_encode_crowded_codebook_exits_cleanly(self, cli_env, tmp_path):
        # every colour of a 40^3 byte cube is too dense for the search's index
        _, _, ppm = cli_env
        crowded = tmp_path / "crowded.cgcb"
        write_codebook(crowded, crowded_cube())
        res = run_cli("encode", "--codebook", crowded, "--input", ppm,
                      "--out", tmp_path / "x.cgic", "--ratios", "0.4,0.4,0.2")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "codes too crowded for the nearest-code search" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.cgic").exists()

    def test_decode_truncated_codebook_exits_cleanly(self, cli_env, tmp_path):
        root, cb, ppm = cli_env
        cgic = root / "trunc.cgic"
        res = run_cli("encode", "--codebook", cb, "--input", ppm,
                      "--out", cgic, "--ratios", "0.4,0.4,0.2")
        assert res.returncode == 0, res.stderr
        cut = tmp_path / "cut.cgcb"
        cut.write_bytes(cb.read_bytes()[:6])  # magic passes, header does not
        res = run_cli("decode", "--codebook", cut, "--input", cgic,
                      "--out", tmp_path / "x.ppm")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("content", ["k=abc\n", "step=0.5\n"],
                             ids=["bad_value", "coarse_step"])
    def test_conf_file_in_cwd_is_not_read(self, cli_env, tmp_path, content):
        # the CLI reads only its command line: a granucodec.conf beside it,
        # valid or not, changes no default
        root, cb, _ = cli_env
        (tmp_path / "granucodec.conf").write_text(content)
        out = tmp_path / "table.csv"
        res = run_cli("rate-table", "--codebook", cb, "--out", out, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert len(out.read_text().strip().splitlines()) == 1 + 5151

    def test_determinism_across_runs(self, cli_env):
        root, cb, ppm = cli_env
        a, b = root / "a.cgic", root / "b.cgic"
        for out in (a, b):
            res = run_cli("encode", "--codebook", cb, "--input", ppm,
                          "--out", out, "--ratios", "0.6,0.3,0.1")
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()


def test_readme_cli_commands_parse():
    # every `granucodec ...` line of README's CLI block parses, so a flag
    # renamed or deleted in the parser cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n+```sh\n(.*?)```", readme, re.S).group(1)
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command
                for line in block.splitlines() if line.startswith("granucodec ")}
    assert commands == {"train-codebook", "encode", "decode", "stats",
                        "rate-table", "inspect"}


def test_readme_train_codebook_defaults_are_the_library_defaults():
    # README lists train-codebook's defaults; the CLI passes none, so they
    # are the defaults of training.train_codebook's signature
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"defaults are `training\.train_codebook`'s, `([^`]*)`", readme).group(1)
    args = cli.build_parser().parse_args(
        ["train-codebook", "--corpus", "c", "--out", "o", *shlex.split(listed)])
    knobs = {name: value for name, value in vars(args).items()
             if name not in ("command", "corpus", "out", "func")}
    defaults = {name: p.default for name, p in
                inspect.signature(training.train_codebook).parameters.items()
                if p.default is not inspect.Parameter.empty}
    assert knobs == defaults
