import json
import subprocess
import sys

import numpy as np
import pytest

from granucodec import bitstream, granularity, imaging, pipeline, vq
from granucodec.bitstream import BitstreamError, parse_container, serialize_container
from granucodec.granularity import COARSE, FINE, RatioTriple

from conftest import make_image, make_raw, traced_peak


def over_cap_container() -> tuple[bytes, vq.Codebook, vq.FrequencyTable]:
    """A CRC-valid, self-consistent all-coarse container one block row over
    the pixel cap (8208x8192), and the k=1 codebook it decodes with: every
    map label and every index is the one-bit codeword 0, so the payload is
    all zero bytes."""
    cb = vq.Codebook(np.zeros((1, 4), dtype=np.float32))
    tbl = vq.finalize_frequencies(vq.FrequencyTable.zeros(1))
    h, w = 8208, 8192
    assert h * w > bitstream.MAX_PIXELS >= (h - 16) * w
    blocks = h * w // 256
    c = bitstream.Container(
        true_w=w, true_h=h, padded_w=w, padded_h=h, codebook_hash=cb.id_hash,
        ratios=RatioTriple(0, 0, 1), index_bits=(0, 0, blocks), map_bits=blocks,
        payload=bytes(2 * blocks // 8))
    return serialize_container(c), cb, tbl


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

    def test_decode_deterministic(self, small_session):
        img = make_image("photo", 48, 48, seed=43)
        c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0.5, 0.3, 0.2))
        a = pipeline.decode_image(small_session, c)
        b = pipeline.decode_image(small_session, c)
        assert np.array_equal(a.samples, b.samples)
        assert imaging.psnr(img, a) > 0

    def test_replacement_chain_losslessness(self, small_session):
        # decoder-side y3/y2/y1 agree with encoder-side quantized features
        from granucodec.imaging import avg_pool
        from granucodec.reconstruction import assemble_hybrid, conditional_decode
        img = make_image("waves", 64, 64, seed=44)
        from granucodec.spatial_entropy import entropy_map
        emap = entropy_map(img, small_session.entropy_cfg)
        gmap = granularity.plan_granularity(emap, RatioTriple(0.4, 0.4, 0.2))
        masks, streams = pipeline.quantize_streams(small_session, img, gmap)
        d = small_session.codebook.d
        grids = []
        for idx, mask in zip(streams, (masks.m1, masks.m2, masks.m3)):
            g = np.zeros(mask.shape + (d,), dtype=np.float32)
            g[mask.astype(bool)] = vq.lookup(idx, small_session.codebook)
            grids.append(g)
        z = assemble_hybrid(*grids, masks)
        y3 = conditional_decode(z, masks)
        m1 = masks.m1[..., None]
        m2 = masks.m2[..., None]
        m3 = masks.m3[..., None]
        assert np.array_equal(y3 * m1, grids[0] * m1)
        assert np.array_equal(avg_pool(z, 2) * m2, grids[1] * m2)
        assert np.array_equal(avg_pool(z, 4) * m3, grids[2] * m3)

    def test_wrong_codebook_rejected(self, small_session):
        img = make_image("photo", 32, 32, seed=45)
        c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0, 0, 1))
        other = pipeline.CodecSession(
            vq.Codebook(small_session.codebook.codes + 1.0),
            vq.FrequencyTable(small_session.frequencies.counts.copy(), smoothed=True))
        with pytest.raises(BitstreamError):
            pipeline.decode_image(other, c)

    @pytest.mark.parametrize("size, ratios", [
        (512, RatioTriple(0.70, 0.25, 0.05)),  # the benchmark's hirate ratios
        (1024, RatioTriple(0, 0, 1)),
    ], ids=["hirate_512", "coarse_1024"])
    def test_decode_peak_memory_per_pixel(self, small_session, size, ratios):
        # the float32 output is 12 B/px; the rest is the column-repeat
        # intermediate and the fine-grid feature arrays
        img = make_image("photo", size, size, seed=46)
        c = pipeline.encode_image(small_session, img, ratios=ratios)
        peak = traced_peak(pipeline.decode_image, small_session, c)
        assert peak <= 20 * size * size

    def test_container_over_pixel_cap_rejected(self):
        data, _, _ = over_cap_container()

        def rejected():
            with pytest.raises(BitstreamError, match="limit"):
                parse_container(data)

        assert traced_peak(rejected) < 2 * len(data)

    def test_encode_over_pixel_cap_rejected(self, small_session):
        # broadcast_to allocates nothing: the plane must be refused unread
        samples = np.broadcast_to(np.float32(0), (8208, 8192, 3))
        img = imaging.ImagePlane(samples, true_h=8208, true_w=8192)
        with pytest.raises(ValueError, match="limit"):
            pipeline.encode_image(small_session, img, ratios=RatioTriple(0, 0, 1))
        with pytest.raises(ValueError, match="limit"):
            pipeline.encode_with_map(small_session, img,
                                     np.full((513, 512), COARSE, dtype=np.uint8))

    def test_constant_image_exact_roundtrip(self):
        from granucodec import training
        flat = imaging.from_raw(np.full((32, 32, 3), 90, dtype=np.uint8))
        cb, tbl = training.train_codebook([flat], k=8, iters=8, seed=0)
        session = pipeline.CodecSession(cb, tbl)
        for ratios in [(0, 0, 1), (0.5, 0.5, 0), (1, 0, 0)]:
            c = pipeline.encode_image(session, flat, ratios=RatioTriple(*ratios))
            rec = pipeline.decode_image(session, c)
            assert imaging.psnr(flat, rec) == imaging.LOSSLESS


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "granucodec.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd)


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

    def test_target_bpp_flag(self, cli_env):
        root, cb, ppm = cli_env
        res = run_cli("encode", "--codebook", cb, "--input", ppm,
                      "--out", root / "t.cgic", "--bpp", "0.2")
        assert res.returncode == 0, res.stderr

    def test_rate_table_csv(self, cli_env):
        root, cb, _ = cli_env
        out = root / "table.csv"
        res = run_cli("rate-table", "--codebook", cb, "--step", "0.1", "--out", out)
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r1,r2,r3,bpp"
        assert len(lines) == 1 + 66  # simplex lattice at step 0.1

    def test_entropy_csv_dump(self, cli_env):
        root, cb, ppm = cli_env
        csv = root / "entropy.csv"
        res = run_cli("stats", "--codebook", cb, "--input", ppm,
                      "--ratios", "1,0,0", "--entropy-csv", csv)
        assert res.returncode == 0, res.stderr
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "row,col,entropy"
        assert len(lines) == 1 + (96 // 16) * (80 // 16)

    def test_errors_exit_nonzero(self, cli_env, tmp_path):
        root, cb, ppm = cli_env
        res = run_cli("decode", "--codebook", cb,
                      "--input", ppm, "--out", tmp_path / "x.ppm")
        assert res.returncode == 1
        assert "error" in res.stderr
        res = run_cli("encode", "--codebook", cb, "--input", ppm,
                      "--out", tmp_path / "x.cgic")  # neither ratios nor bpp
        assert res.returncode != 0

    def test_decode_huge_declared_dims_exits_cleanly(self, cli_env, tmp_path):
        # CRC-valid header for the right codebook declaring 4294967280^2
        # padded pixels, with map_bits=8 and a one-byte payload
        _, cb, _ = cli_env
        dim = 4294967280
        c = bitstream.Container(
            true_w=dim, true_h=dim, padded_w=dim, padded_h=dim,
            codebook_hash=vq.load_codebook(cb)[0].id_hash,
            ratios=RatioTriple(0, 0, 1), index_bits=(0, 0, 0), map_bits=8,
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

    def test_train_codebook_k_zero_exits_cleanly(self, cli_env, tmp_path):
        root, _, _ = cli_env
        res = run_cli("train-codebook", "--corpus", root / "corpus", "--k", 0,
                      "--out", tmp_path / "k0.cgcb")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_encode_huge_declared_ppm_exits_cleanly(self, cli_env, tmp_path):
        _, cb, _ = cli_env
        hostile = tmp_path / "huge.ppm"
        hostile.write_bytes(b"P6\n1000000000 1000000000\n255\n" + bytes(12))
        res = run_cli("encode", "--codebook", cb, "--input", hostile,
                      "--out", tmp_path / "x.cgic", "--bpp", "0.2")
        assert res.returncode == 1
        assert "error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_encode_skewed_codebook_exits_cleanly(self, cli_env, tmp_path):
        # Fibonacci counts give a 92-bit Huffman code for the last symbols
        _, cb, ppm = cli_env
        fib = [1, 1]
        while len(fib) < 93:
            fib.append(fib[-1] + fib[-2])
        d = vq.load_codebook(cb)[0].d
        skewed = tmp_path / "skewed.cgcb"
        vq.save_codebook(
            vq.Codebook(np.arange(93 * d, dtype=np.float32).reshape(93, d)),
            vq.FrequencyTable(np.array(fib, dtype=np.uint64), smoothed=True), skewed)
        res = run_cli("encode", "--codebook", skewed, "--input", ppm,
                      "--out", tmp_path / "x.cgic", "--bpp", "0.2")
        assert res.returncode == 1
        assert "error" in res.stderr
        assert "Traceback" not in res.stderr

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

    def test_config_file_defaults(self, cli_env, tmp_path):
        root, cb, _ = cli_env
        conf = tmp_path / "granucodec.conf"
        conf.write_text("step=0.5\n")
        out = tmp_path / "table.csv"
        res = run_cli("--config", conf, "rate-table", "--codebook", cb, "--out", out)
        assert res.returncode == 0, res.stderr
        assert len(out.read_text().strip().splitlines()) == 1 + 6

    @pytest.mark.parametrize("content", [
        b"k=abc\n",  # a value its option cannot take
        b"step=0.5\nk=\xff\xfe\n",  # not UTF-8
        None,  # --config names a directory
    ], ids=["bad_value", "not_utf8", "directory"])
    def test_bad_config_exits_cleanly(self, tmp_path, content):
        conf = tmp_path / "granucodec.conf"
        if content is None:
            conf.mkdir()
        else:
            conf.write_bytes(content)
        res = run_cli("--config", conf, "inspect", "--input", tmp_path / "x.cgic")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_determinism_across_runs(self, cli_env):
        root, cb, ppm = cli_env
        a, b = root / "a.cgic", root / "b.cgic"
        for out in (a, b):
            res = run_cli("encode", "--codebook", cb, "--input", ppm,
                          "--out", out, "--ratios", "0.6,0.3,0.1")
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()
