"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools

import numpy as np
import pytest

from granucodec import bitstream as bs
from granucodec import granularity as gr
from granucodec import imaging, pipeline, training, vq
from granucodec.analysis import _cell_sums
from granucodec.granularity import FINE, MEDIUM, RatioTriple
from granucodec.imaging import nn_upsample
from granucodec.spatial_entropy import entropy_map

from conftest import (assert_painted, codes_session, make_image, map_container,
                      patch_entropy)
from test_bitstream import brute_force_optimum, kraft_sum, weighted_total_bits
from test_spatial_entropy import entropy_oracle

L_PUBLISHED = 10.3875
PUBLISHED_TABLE = [
    ((0.00, 0.23, 0.77), 0.070),
    ((0.10, 0.67, 0.23), 0.187),
    ((0.37, 0.46, 0.17), 0.330),
    ((0.61, 0.30, 0.09), 0.460),
    ((0.90, 0.10, 0.00), 0.616),
]

SWEEP_TRIPLES = [
    (0.00, 0.00, 1.00),
    (0.10, 0.67, 0.23),
    (0.37, 0.46, 0.17),
    (0.61, 0.30, 0.09),
    (1.00, 0.00, 0.00),
]


@pytest.fixture(scope="module")
def sweep(session, corpus):
    """Per (image, triple): payload bpp, theoretical bpp, PSNR. Shared by
    the rate-discrepancy and quality-monotonicity criteria."""
    results = {}
    for i, img in enumerate(corpus):
        emap = entropy_map(img, session.entropy_cfg)
        for t in SWEEP_TRIPLES:
            gmap = gr.plan_granularity(emap, RatioTriple(*t))
            c = pipeline.encode_with_map(session, img, gmap)
            _, payload = bs.measure_rate(c)
            theory = gr.theoretical_bpp(c.ratios, session.mean_code_len)
            rec = pipeline.decode_image(session, c)
            results[i, t] = (payload, theory, imaging.psnr(img, rec))
    return results


def test_1_rate_formula_fidelity():
    # Published bpp values carry three decimals, so on top of the 0.001
    # tolerance we allow their half-ulp quantization (the 90/10/0 row is
    # 0.61498 by exact arithmetic and prints as 0.616 in the source table).
    for ratios, expected in PUBLISHED_TABLE:
        bpp = gr.theoretical_bpp(RatioTriple(*ratios), L_PUBLISHED)
        assert abs(bpp - expected) <= 0.001 + 0.0005, (ratios, bpp, expected)
    print("\nACCEPTANCE 1 rate-formula fidelity: PASS")


def test_2_theoretical_vs_actual_discrepancy(sweep, corpus):
    assert len(corpus) >= 20 and len(SWEEP_TRIPLES) >= 5
    worst = 0.0
    for payload, theory, _ in sweep.values():
        worst = max(worst, abs(payload - theory))
        assert abs(payload - theory) < 0.05
    print(f"\nACCEPTANCE 2 theoretical-vs-actual < 0.05 "
          f"(worst {worst:.4f} over {len(sweep)} encodes): PASS")


def test_3_fine_grained_control(session):
    img = make_image("photo", 512, 768, seed=200)
    emap = entropy_map(img, session.entropy_cfg)
    gmap = gr.plan_granularity(emap, RatioTriple(0.3, 0.4, 0.3))
    swapped = gmap.copy()
    pos = tuple(np.argwhere(swapped == MEDIUM)[0])
    swapped[pos] = FINE
    bpp_a, _ = bs.measure_rate(pipeline.encode_with_map(session, img, gmap))
    bpp_b, _ = bs.measure_rate(pipeline.encode_with_map(session, img, swapped))
    step = abs(bpp_b - bpp_a)
    assert 0.0 < step < 0.001
    print(f"\nACCEPTANCE 3 fine-grained control (lattice step {step:.6f}): PASS")


@pytest.fixture(scope="module")
def skewed_session():
    """Corpus of mostly-flat images with textured patches: heavy index skew."""
    def skewed_image(seed, size=256):
        rng = np.random.default_rng(seed)
        img = np.full((size, size, 3), 140.0)
        for _ in range(4):
            y, x = rng.integers(0, size - 64, size=2)
            img[y:y + 64, x:x + 64] = rng.integers(0, 256, size=(64, 64, 3))
        return imaging.from_raw(np.clip(img, 0, 255).astype(np.uint8))

    images = [skewed_image(s) for s in range(8)]
    cb, tbl = training.train_codebook(images, k=1024, seed=11, iters=8,
                                      max_samples=40_000)
    return pipeline.CodecSession(cb, tbl), images


def test_4_statistical_coding_benefit(skewed_session):
    session, images = skewed_session
    triples = [(0.2, 0.5, 0.3), (0.4, 0.4, 0.2), (0.6, 0.3, 0.1),
               (0.8, 0.2, 0.0), (1.0, 0.0, 0.0)]
    uniform_bits_per_symbol = 10  # ceil(log2 1024)
    savings = []
    for t in triples:
        stat = uni = 0
        for img in images:
            emap = entropy_map(img, session.entropy_cfg)
            gmap = gr.plan_granularity(emap, RatioTriple(*t))
            _, streams = pipeline.quantize_streams(session, img, gmap)
            for s in streams:
                if s.size:
                    counts = np.bincount(s, minlength=session.codebook.k)
                    stat += int((counts * session.huffman.lengths).sum())
                    uni += uniform_bits_per_symbol * s.size
        assert stat <= uni, t
        savings.append(1.0 - stat / uni)
    for earlier, later in zip(savings, savings[1:]):
        assert later >= earlier - 1e-12
    print(f"\nACCEPTANCE 4 statistical coding benefit "
          f"(savings {['%.3f' % s for s in savings]}): PASS")


def test_5_losslessness_and_corruption():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        k = int(rng.integers(4, 64))
        cb = vq.Codebook(rng.standard_normal((k, 3)).astype(np.float32))
        tbl = vq.FrequencyTable(rng.integers(1, 200, size=k).astype(np.uint64))
        session = pipeline.CodecSession(cb, tbl)
        h = int(rng.integers(10, 49))
        w = int(rng.integers(10, 49))
        img = imaging.from_raw(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        r3 = float(rng.random())
        r1 = float(rng.random()) * (1 - r3)
        ratios = RatioTriple(r1, 1 - r1 - r3, r3)

        emap = entropy_map(img, session.entropy_cfg)
        gmap = gr.plan_granularity(emap, ratios)
        _, enc_streams = pipeline.quantize_streams(session, img, gmap)
        container = pipeline.encode_with_map(session, img, gmap)
        parsed = bs.parse_container(bs.serialize_container(container))
        dec_gmap, dec_streams = pipeline.decode_streams(session, parsed)
        assert np.array_equal(dec_gmap, gmap)
        for a, b in zip(enc_streams, dec_streams):
            assert np.array_equal(a, b)

        if trial == 0:  # single-byte header corruption always detected
            data = bytearray(bs.serialize_container(container))
            header_len = len(data) - len(container.payload)
            for pos in range(header_len):
                corrupt = bytearray(data)
                corrupt[pos] ^= 0x01
                with pytest.raises(bs.BitstreamError):
                    bs.parse_container(bytes(corrupt))
    print("\nACCEPTANCE 5 losslessness (1000 round-trips + header corruption): PASS")


def test_6_huffman_optimality_exhaustive():
    # every count multiset, alphabets up to 8 symbols, counts 1..6; weighted
    # totals are permutation-invariant so multisets cover all tables
    checked = 0
    for k in range(1, 9):
        for counts in itertools.combinations_with_replacement(range(1, 7), k):
            arr = np.array(counts, dtype=np.uint64)
            code = bs.build_huffman(arr)
            got = weighted_total_bits(code, arr)
            if k == 1:
                assert got == counts[0]  # single symbol, one explicit bit
            else:
                assert got == brute_force_optimum(arr), counts
            checked += 1
    # all orderings for small alphabets (tie handling must not break totals)
    for k in range(2, 5):
        for counts in itertools.product(range(1, 7), repeat=k):
            arr = np.array(counts, dtype=np.uint64)
            assert weighted_total_bits(bs.build_huffman(arr), arr) \
                == brute_force_optimum(arr)
    # Kraft equality on large random tables
    rng = np.random.default_rng(5)
    for _ in range(5):
        counts = rng.integers(1, 10_000, size=1024).astype(np.uint64)
        assert kraft_sum(bs.build_huffman(counts)) == 1.0
    print(f"\nACCEPTANCE 6 Huffman optimality ({checked} multisets exhaustive, "
          "Kraft at k=1024): PASS")


def test_7_replacement_exactness():
    rng = np.random.default_rng(7)
    for _ in range(100):
        by, bx = rng.integers(1, 7, size=2)
        gmap = rng.integers(0, 3, size=(by, bx)).astype(np.uint8)
        masks = gr.masks_from_map(gmap)
        # one code per cell of each scale, each on the 8-bit levels with a
        # colour no other code has, so a cell painted with another cell's
        # code cannot pass; each stream sends its kept cells
        cells = [by * bx * 16, by * bx * 4, by * bx]
        rgb = rng.choice(1 << 24, size=sum(cells), replace=False)
        colours = (rgb[:, None] >> np.array([16, 8, 0]) & 255).astype(np.uint8)
        session = codes_session(imaging.normalize(colours))
        offsets = np.cumsum([0, *cells[:2]])
        streams = [off + np.flatnonzero(m).astype(np.int32)
                   for off, m in zip(offsets, masks)]
        out = pipeline.reconstruct(session, map_container(session, gmap), gmap,
                                   streams).pixels
        for m, stream, factor in zip(masks, streams, (4, 8, 16)):
            assert_painted(out, m, stream, session.codebook, factor)
        # the cell sums invert upsampling exactly: f^2 times each cell
        for factor in (2, 4):
            g = rng.integers(0, 256, (4, 4, 4), dtype=np.uint8)
            assert np.array_equal(_cell_sums(nn_upsample(g, factor), factor),
                                  factor * factor * g.astype(np.uint16))
    print("\nACCEPTANCE 7 replacement exactness (100 random pipelines): PASS")


def test_8_entropy_properties():
    rng = np.random.default_rng(8)
    for _ in range(50):
        patch = rng.uniform(-1, 1, size=int(rng.integers(2, 80)))
        h = patch_entropy(patch)
        assert 0.0 <= h <= 5.0
        assert h == pytest.approx(entropy_oracle(list(patch)), abs=1e-9)
        assert patch_entropy(rng.permutation(patch)) == pytest.approx(h, abs=1e-12)
    flat = np.zeros(256)
    noisy = rng.uniform(-1, 1, size=256)
    assert patch_entropy(flat) < patch_entropy(noisy)
    print("\nACCEPTANCE 8 entropy properties (bounds, oracle, invariance): PASS")


def test_9_quality_monotonicity(sweep, corpus):
    ordered = sorted(
        SWEEP_TRIPLES,
        key=lambda t: gr.theoretical_bpp(RatioTriple(*t), L_PUBLISHED))
    means = [float(np.mean([sweep[i, t][2] for i in range(len(corpus))]))
             for t in ordered]
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier
    print(f"\nACCEPTANCE 9 quality monotonicity "
          f"(mean PSNR {['%.2f' % m for m in means]} dB): PASS")


def mean_psnr(session, images, **mode) -> float:
    """Mean PSNR of the images through encode_image(**mode) and back."""
    return float(np.mean([imaging.psnr(img, pipeline.decode_image(
        session, pipeline.encode_image(session, img, **mode))) for img in images]))


def test_9_quality_monotonicity_on_leaves(leaves_session, leaves_set):
    # acceptance 9's check on images with edges, coded with a codebook
    # trained on such images
    ordered = sorted(
        SWEEP_TRIPLES,
        key=lambda t: gr.theoretical_bpp(RatioTriple(*t), L_PUBLISHED))
    means = [mean_psnr(leaves_session, leaves_set, ratios=RatioTriple(*t)) for t in ordered]
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier
    print(f"\nACCEPTANCE 9 on leaves (mean PSNR {['%.2f' % m for m in means]} dB): PASS")


def test_9_target_bpp_quality_monotonicity_on_leaves(leaves_session, leaves_set):
    # a higher --bpp target never gives a worse mean image, 0.05 to 0.50 bpp
    means = [mean_psnr(leaves_session, leaves_set, target_bpp=t / 100)
             for t in range(5, 55, 5)]
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier
    print(f"\nACCEPTANCE 9 on leaves through --bpp "
          f"(mean PSNR {['%.2f' % m for m in means]} dB): PASS")
