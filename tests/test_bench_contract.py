"""The granucodec calls the benchmark makes, on one small image.

`bench/run.py` and `bench/tracer.py` change only together with the
benchmark, and they reach into the package by module attribute. A codec
change that renamed or dropped any name they use would turn benchmark
operations into failures; this test makes the same calls, so such a change
fails here instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from granucodec import bitstream, granularity, imaging, pipeline, spatial_entropy
from granucodec import training, vq

from conftest import make_raw

#: The benchmark's workloads: keyword arguments of encode_image.
MODES = {"hirate": dict(ratios=granularity.RatioTriple(0.70, 0.25, 0.05)),
         "lorate": dict(target_bpp=0.10)}

HEADER_FIELDS = ("true_w", "true_h", "padded_w", "padded_h", "codebook_hash",
                 "index_bits", "map_bits", "payload")


def test_benchmark_calls(small_session, tmp_path, monkeypatch):
    # inputs: an image written with save_ppm(from_raw(raw)) and read back
    path = tmp_path / "img.ppm"
    raw = make_raw("photo", 64, 64, seed=1000)
    imaging.save_ppm(imaging.from_raw(raw), path)
    img = imaging.load_ppm(path)
    # the tracer's entropy_map counters
    assert img.samples.size == img.height * img.width * 3
    assert spatial_entropy.EntropyConfig().n_bins > 0

    # training, the codebook file and the session
    trained, _ = training.train_codebook([img], k=8, seed=7, iters=2, max_samples=500)
    assert trained.k == 8
    cb_path = tmp_path / "bench.cgcb"
    vq.save_codebook(small_session.codebook, small_session.frequencies, cb_path)
    cb, tbl = vq.load_codebook(cb_path)
    assert tbl.smoothed and tbl.k == cb.k
    session = pipeline.CodecSession.from_file(cb_path)
    assert session.codebook.id_hash == cb.id_hash == small_session.codebook.id_hash
    cells = training.corpus_cells([img])
    assert cells.shape[1] == cb.d  # the tracer's quantize counter divides by d
    assert vq.kmeans_distortion(cells, cb) / cells.shape[0] > 0

    for mode in MODES.values():
        # the reference encode: plan with the public functions, then capture
        # the streams where encode_with_map looks up quantize_streams
        ratios = mode.get("ratios") or granularity.ratios_for_target(
            session.rate_table, mode["target_bpp"])
        emap = spatial_entropy.entropy_map(img, session.entropy_cfg)
        gmap = granularity.plan_granularity(emap, ratios)
        quantize_streams = pipeline.quantize_streams
        captured = []

        def capture(*args, **kwargs):
            result = quantize_streams(*args, **kwargs)
            captured.append(result[1])
            return result
        with monkeypatch.context() as m:
            m.setattr(pipeline, "quantize_streams", capture)
            c = pipeline.encode_with_map(session, img, gmap)
        assert len(captured) == 1
        data = bitstream.serialize_container(c)

        # the timed encode gives the reference bytes, and they parse back
        timed = pipeline.encode_image(session, imaging.load_ppm(path), **mode)
        assert bitstream.serialize_container(timed) == data
        back = bitstream.parse_container(data)
        assert all(getattr(back, f) == getattr(c, f) for f in HEADER_FIELDS)
        assert len(back.ratios.as_tuple()) == 3

        # the decode and its checks
        out = pipeline.decode_image(session, back)
        assert (out.true_h, out.true_w) == (img.true_h, img.true_w)
        dec_gmap, dec_streams = pipeline.decode_streams(session, back)
        assert np.array_equal(dec_gmap, gmap)
        assert all(np.array_equal(a, b) for a, b in zip(dec_streams, captured[0]))
        _, bpp = bitstream.measure_rate(back)
        theory = granularity.theoretical_bpp(back.ratios, session.mean_code_len)
        assert bpp > 0 and theory > 0
        assert imaging.psnr(img, out) > 0


def test_training_sample_is_the_benchmark_distortion_sample(monkeypatch):
    # the bench's train_distortion measures the codebook on the cells k-means
    # was given, which it draws again as `_distortion` does: corpus_cells,
    # then a seeded choice of max_samples of them, sorted
    images = [imaging.from_raw(make_raw(kind, 64, 64, seed=1000 + i))
              for i, kind in enumerate(("photo", "waves"))]
    seed, max_samples = 7, 500
    cells = training.corpus_cells(images)
    assert cells.shape[0] > max_samples
    train, given = vq.train_codebook, []

    def capture(corpus, *args, **kwargs):
        given.append(corpus.copy())
        return train(corpus, *args, **kwargs)
    monkeypatch.setattr(vq, "train_codebook", capture)
    training.train_codebook(images, k=8, seed=seed, iters=1, max_samples=max_samples)
    pick = np.random.default_rng(seed).choice(cells.shape[0], size=max_samples, replace=False)
    assert len(given) == 1
    assert np.array_equal(given[0], cells[np.sort(pick)])


def test_conftest_imports_no_pytest():
    # the benchmark imports conftest's image generators, and its peak_rss_mb
    # would count pytest's import, about 9 MB, under every reading
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, conftest; "
                               "print(sorted(m for m in sys.modules "
                               "if m.split('.')[0] in ('pytest', '_pytest')))"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
