import numpy as np
import pytest

from granucodec.vq import (
    Codebook, CodebookError, FrequencyTable, accumulate_frequencies,
    finalize_frequencies, kmeans_distortion, load_codebook, lookup, quantize,
    _assign, _update_centers, save_codebook, train_codebook,
)

from conftest import traced_peak


@pytest.fixture
def cb16():
    rng = np.random.default_rng(0)
    return Codebook(rng.standard_normal((16, 4)).astype(np.float32))


class TestQuantize:
    def test_exact_match(self, cb16):
        grid = cb16.codes[7].reshape(1, 1, 4)
        idx = quantize(grid, cb16)
        assert idx[0, 0] == 7
        assert np.array_equal(lookup(idx, cb16), grid)

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook(np.array([[0.0], [1.0]], dtype=np.float32))
        idx = quantize(np.array([[[0.5]]], dtype=np.float32), cb)
        assert idx[0, 0] == 0

    def test_matches_brute_force_scan(self, cb16):
        rng = np.random.default_rng(1)
        cells = rng.standard_normal((6, 5, 4)).astype(np.float32)
        idx = quantize(cells, cb16)
        for pos in np.ndindex(6, 5):
            dists = [np.sum((cells[pos].astype(np.float64) - c) ** 2)
                     for c in cb16.codes.astype(np.float64)]
            assert idx[pos] == int(np.argmin(dists))

    def test_never_beaten_by_other_code(self, cb16):
        rng = np.random.default_rng(2)
        cells = rng.standard_normal((10, 4)).astype(np.float32)
        idx = quantize(cells, cb16)
        for z, chosen in zip(cells, lookup(idx, cb16)):
            d_chosen = np.sum((z - chosen) ** 2)
            for c in cb16.codes:
                assert d_chosen <= np.sum((z - c) ** 2) + 1e-12

    def test_dim_mismatch(self, cb16):
        with pytest.raises(CodebookError):
            quantize(np.zeros((2, 2, 3), dtype=np.float32), cb16)

    def test_blocks_equal_one_block(self):
        # 3,000 cells at k=1024 span twelve distance blocks; one block over
        # all of them must give the same indices and the same distances
        rng = np.random.default_rng(4)
        points = rng.standard_normal((3000, 4))
        centers = rng.standard_normal((1024, 4))
        dists = 2.0 * points @ centers.T
        np.subtract((points ** 2).sum(axis=1)[:, None], dists, out=dists)
        dists += (centers ** 2).sum(axis=1)
        idx, best = _assign(points, centers)
        assert np.array_equal(idx, dists.argmin(axis=1))
        assert best.tobytes() == np.maximum(dists.min(axis=1), 0.0).tobytes()

    def test_peak_memory_large_codebook(self):
        # the distance block is sized in bytes, not cells: 1,024 cells
        # against 8,192 codes would need 64 MiB in one block
        rng = np.random.default_rng(5)
        cb = Codebook(rng.standard_normal((8192, 4)).astype(np.float32))
        cells = rng.standard_normal((1024, 4)).astype(np.float32)
        assert traced_peak(quantize, cells, cb) < 8 << 20


class TestLookup:
    def test_all_zero_indices(self, cb16):
        grid = lookup(np.zeros((3, 3), dtype=np.int32), cb16)
        assert np.all(grid == cb16.codes[0])

    def test_last_index(self):
        rng = np.random.default_rng(3)
        cb = Codebook(rng.standard_normal((1024, 4)).astype(np.float32))
        assert np.array_equal(lookup(np.array([1023]), cb)[0], cb.codes[1023])

    def test_roundtrip_idempotent(self, cb16):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 16, size=(5, 7))
        again = quantize(lookup(idx, cb16), cb16)
        assert np.array_equal(again, idx)

    def test_out_of_range_rejected(self, cb16):
        with pytest.raises(CodebookError):
            lookup(np.array([16]), cb16)


class TestTraining:
    def test_k_distinct_points_fixed_point(self):
        points = np.arange(8, dtype=np.float64).reshape(4, 2) * 10
        cb = train_codebook(points, k=4, iters=5, seed=0)
        assert sorted(map(tuple, cb.codes.tolist())) == sorted(map(tuple, points.tolist()))
        assert kmeans_distortion(points, cb) == 0.0

    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        a = rng.normal(-10, 0.5, size=(50, 3))
        b = rng.normal(+10, 0.5, size=(50, 3))
        cb = train_codebook(np.vstack([a, b]), k=2, iters=10, seed=1)
        centers = sorted(cb.codes[:, 0])
        assert centers[0] < -8 and centers[1] > 8

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        corpus = rng.standard_normal((200, 4))
        cb1 = train_codebook(corpus, k=16, iters=8, seed=42)
        cb2 = train_codebook(corpus, k=16, iters=8, seed=42)
        assert np.array_equal(cb1.codes, cb2.codes)
        assert cb1.id_hash == cb2.id_hash

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(7)
        corpus = rng.standard_normal((300, 4))
        prev = np.inf
        for iters in (1, 3, 6, 12):
            d = kmeans_distortion(corpus, train_codebook(corpus, k=8, iters=iters, seed=9))
            assert d <= prev + 1e-9
            prev = d

    def test_update_matches_per_cluster_loop(self):
        # 3000 draws from 200 points; every third center starts far away, so
        # those clusters are empty and reseeded
        rng = np.random.default_rng(8)
        corpus = rng.standard_normal((200, 4))[rng.integers(0, 200, size=3000)]
        for _ in range(5):
            centers = corpus[rng.choice(3000, size=24, replace=False)].copy()
            centers[::3] += 1e3
            assign, d2 = _assign(corpus, centers)
            want, want_d2 = centers.copy(), d2.copy()
            for i in range(24):
                members = assign == i
                if members.any():
                    want[i] = corpus[members].mean(axis=0)
                else:
                    far = int(want_d2.argmax())
                    want[i] = corpus[far]
                    want_d2[far] = 0.0
            _update_centers(corpus, assign, d2, centers)
            assert np.array_equal(centers, want)
            assert np.array_equal(d2, want_d2)

    def test_corpus_too_small(self):
        with pytest.raises(ValueError):
            train_codebook(np.zeros((3, 4)), k=8)


class TestFrequencies:
    def test_empty_grid_unchanged(self):
        tbl = FrequencyTable.zeros(8)
        accumulate_frequencies(np.empty((0,), dtype=np.int32), tbl)
        assert tbl.counts.sum() == 0

    def test_counting(self):
        tbl = FrequencyTable.zeros(8)
        accumulate_frequencies(np.array([3, 3, 5]), tbl)
        assert tbl.counts[3] == 2 and tbl.counts[5] == 1

    def test_totals_conserved(self):
        rng = np.random.default_rng(8)
        tbl = FrequencyTable.zeros(32)
        total = 0
        for _ in range(5):
            idx = rng.integers(0, 32, size=rng.integers(1, 100))
            accumulate_frequencies(idx, tbl)
            total += idx.size
        assert tbl.counts.sum() == total
        finalize_frequencies(tbl)
        assert tbl.counts.sum() == total + 32

    def test_smoothing_floor(self):
        tbl = finalize_frequencies(FrequencyTable.zeros(4))
        assert tbl.smoothed and np.all(tbl.counts == 1)

    def test_add_one(self):
        tbl = FrequencyTable(np.array([0, 9], dtype=np.uint64))
        finalize_frequencies(tbl)
        assert tbl.counts.tolist() == [1, 10]

    def test_accumulate_after_finalize_rejected(self):
        tbl = finalize_frequencies(FrequencyTable.zeros(4))
        with pytest.raises(ValueError):
            accumulate_frequencies(np.array([0]), tbl)


class TestCodebookFile:
    def test_roundtrip(self, tmp_path, cb16):
        tbl = finalize_frequencies(FrequencyTable(np.arange(16, dtype=np.uint64)))
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, tbl, path)
        cb2, tbl2 = load_codebook(path)
        assert np.array_equal(cb2.codes, cb16.codes)
        assert np.array_equal(tbl2.counts, tbl.counts)
        assert cb2.id_hash == cb16.id_hash

    def test_k_above_uint16_rejected_before_writing(self, tmp_path):
        k = 65536
        cb = Codebook(np.zeros((k, 1), dtype=np.float32))
        path = tmp_path / "big.cgcb"
        with pytest.raises(CodebookError):
            save_codebook(cb, FrequencyTable(np.ones(k, dtype=np.uint64), smoothed=True), path)
        assert not path.exists()

    def test_corruption_detected(self, tmp_path, cb16):
        tbl = finalize_frequencies(FrequencyTable.zeros(16))
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, tbl, path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # inside the code vectors
        path.write_bytes(bytes(data))
        with pytest.raises(CodebookError):
            load_codebook(path)

    def test_truncated_header_rejected(self, tmp_path, cb16):
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, finalize_frequencies(FrequencyTable.zeros(16)), path)
        data = path.read_bytes()
        for n in range(9):  # shorter than magic + version + k + d
            cut = tmp_path / f"cut{n}.cgcb"
            cut.write_bytes(data[:n])
            with pytest.raises(CodebookError):
                load_codebook(cut)
