import hashlib
import io
import itertools
import re
import struct
import time

import numpy as np
import pytest

from granucodec import analysis, granularity, imaging, pipeline, training, vq
from granucodec.bitstream import BitstreamError, frequency_counts
from granucodec.granularity import (
    COARSE, FINE, MEDIUM, RatioTriple, masks_from_map, plan_granularity,
)
from granucodec.spatial_entropy import entropy_map
from granucodec.vq import (
    Codebook, CodebookError, FrequencyTable, kmeans_distortion, load_codebook, quantize,
    quantize_masked, _assign, _seed_centers, _update_centers,
    save_codebook, train_codebook,
)

from conftest import (
    crowded_cube, flat_frequencies, lookup, make_image, make_raw, traced_peak, write_codebook,
)


def elementwise_oracle(points, centers):
    """Nearest center from every distance in one block: the sum over j, in
    order, of (x_j - c_j)**2; argmin gives a tie to the lowest index."""
    dists = np.zeros((points.shape[0], centers.shape[0]))
    for j in range(points.shape[1]):
        dists += (points[:, j, None] - centers[:, j]) ** 2
    idx = dists.argmin(axis=1)
    return idx, dists[np.arange(idx.size), idx]


def assert_matches_oracle(got, want):
    (idx, best), (want_idx, want_best) = got, want
    assert idx.dtype == np.int32
    assert np.array_equal(idx, want_idx)
    assert best.tobytes() == want_best.tobytes()


def assign(points, centers):
    """The search of the byte means `points` over the byte colours `centers`,
    on a fresh index. The search takes each mean as its cell, 256 times it,
    so every mean must be a multiple of 1/256 in [0, 255]."""
    cells = cells_of(points)
    assert np.array_equal(cells / 256, points)
    return _assign(cells, vq._build_index(centers))


def means(rng, size, lo=0, hi=255):
    """Cell means in byte units: random multiples of 1/256 in [lo, hi]."""
    return rng.integers(lo * 256, hi * 256 + 1, size=size) / 256


def colours(codes):
    """The float64 colours the decoder paints for float32 sample codes."""
    return Codebook(np.asarray(codes, dtype=np.float32)).colours.astype(np.float64)


def box_faces(centers):
    """The faces of the index's boxes on each cut axis, from 0 to 256."""
    side = vq._build_index(centers)[3].size
    return 256 * np.arange(side + 1) / side


def search_case(case, rng):
    """(points, centers) that stress the pruned search: 3-wide byte colours,
    and cell means in [0, 255]^3."""
    if case == "duplicates":
        # every center twice, and points on them: distance-0 ties
        centers = rng.integers(0, 256, size=(64, 3)).astype(np.float64)
        centers[32:] = centers[:32]
        points = centers[rng.integers(0, 64, size=300)]
        points[::2] = np.clip(points[::2] + means(rng, points[::2].shape, -6, 6), 0, 255)
        return points, centers
    if case == "bin_edges":
        # with k=576 the index cuts [0, 256)^3 into 32 boxes a side, so each
        # multiple of 8 is a box face: an 8x8x8 lattice of centers 32 apart
        # and 64 more on faces, and points on faces, the cube's own faces
        # included; a point on a face between two lattice centers ties them
        lattice = np.stack(np.meshgrid(*[np.arange(16, 256, 32.0)] * 3, indexing="ij"), -1)
        on_faces = rng.integers(0, 32, size=(64, 3)) * 8
        centers = np.concatenate([lattice.reshape(-1, 3), on_faces])
        assert np.array_equal(box_faces(centers), np.arange(0, 257, 8))
        points = np.minimum(rng.integers(0, 33, size=(2000, 3)) * 8, 255).astype(np.float64)
        return points, centers
    if case == "tie_on_margin":
        # k=8 codes on the first axis, whose index cuts the cube at
        # multiples of 32: the point 192 lies 32 from centers 0 and 3, and
        # 64 lies 32 from centers 4 and 7, nearer than any other; both are
        # on box faces, and the lower index must win each tie
        centers = np.zeros((8, 3))
        centers[:, 0] = [224, 255, 0, 160, 96, 128, 250, 32]
        assert np.array_equal(box_faces(centers), np.arange(0, 257, 32))
        points = np.zeros((3, 3))
        points[:, 0] = [192, 64, 132]
        return points, centers
    if case == "one_bin_and_outlier":
        # 300 codes crowd one box and one lies on the cube's corner
        # (255, 255, 255): points all over the cube, and near that corner,
        # where the outlying code is the nearest
        centers = np.concatenate([rng.integers(124, 128, size=(300, 3)), [[255] * 3]])
        points = np.concatenate([means(rng, (300, 3)), means(rng, (20, 3), 230),
                                 255.0 * rng.integers(0, 2, size=(20, 3))])
        return points, centers.astype(np.float64)
    if case == "outside_hull":
        # outside the centers' hull [64, 191]^3 in one coordinate, where box
        # lists reach distant codes; and anywhere in the cube, mostly far
        # outside the hull
        centers = rng.integers(64, 192, size=(256, 3)).astype(np.float64)
        near = means(rng, (1000, 3), 64, 191)
        near[np.arange(1000), rng.integers(0, 3, size=1000)] = rng.choice([57.5, 198.25], 1000)
        return np.concatenate([near, means(rng, (200, 3))]), centers
    raise ValueError(case)


def span(a, d):
    """d-wide coordinates made 3-wide by repeating the last: d = 1 puts them
    on the grey diagonal R = G = B, d = 2 on a plane through it."""
    return a[:, [min(j, d - 1) for j in range(3)]]


def box_case(case, d, rng):
    """(points, centers) in [0, 255]^3 that span d <= 3 dimensions of it."""
    centers = rng.integers(0, 256, size=(100, d)).astype(np.float64)
    if case == "duplicates":
        # every center twice, and points on them: distance-0 ties
        centers[50:] = centers[:50]
        points = centers[rng.integers(0, 100, size=400)]
        points[::2] = np.clip(points[::2] + means(rng, points[::2].shape, -6, 6), 0, 255)
    elif case == "ties":
        # centers on a grid 16 apart, points halfway between two of them:
        # both distances are exact and equal
        centers = rng.integers(0, 16, size=(60, d)) * 16.0 + 8
        pairs = rng.integers(0, 60, size=(2, 600))
        points = (centers[pairs[0]] + centers[pairs[1]]) / 2
    elif case == "faces":
        # points on box faces, and 1/256 either side of one in the cube
        faces = np.minimum(box_faces(span(centers, d)), 255)
        points = faces[rng.integers(0, faces.size, size=(900, d))]
        points[300:600] = np.maximum(points[300:600] - 1 / 256, 0)
        points[600:] = np.minimum(points[600:] + 1 / 256, 255)
    elif case == "corners":
        # the cube's corners, 1/256 inside them, and centers near them
        corners = np.array(list(itertools.product([0.0, 255.0], repeat=d)))
        centers[:corners.shape[0]] = np.where(corners > 0, 251, 4)
        points = np.concatenate([corners, np.where(corners > 0, 255 - 1 / 256, 1 / 256)])
    elif case == "cube_faces":
        # one coordinate on a face of the cube, 0 or 255, the farthest a
        # cell lies: 255 falls in the last box with no clamp
        points = means(rng, (600, d))
        points[np.arange(600), rng.integers(0, d, size=600)] = rng.choice([0.0, 255.0], 600)
    else:
        raise ValueError(case)
    return span(points, d), span(centers, d)


@pytest.fixture
def cb16():
    rng = np.random.default_rng(0)
    return Codebook(rng.uniform(-1, 1, size=(16, 3)).astype(np.float32))


def cells_of(means_):
    """The uint16 cells, 256 times their mean colours, of byte means."""
    return np.rint(np.asarray(means_, dtype=np.float64) * 256).astype(np.uint16)


class TestQuantize:
    def test_exact_match(self, cb16):
        grid = cells_of(cb16.colours[7].reshape(1, 1, 3))
        idx, d2 = quantize(grid, cb16)
        assert idx[0, 0] == 7 and d2[0, 0] == 0.0
        assert np.array_equal(lookup(idx, cb16), cb16.codes[7].reshape(1, 1, 3))

    def test_tie_breaks_to_lowest_index(self):
        # samples 0 and 1 paint bytes 128 and 255; 191.5 lies 63.5 from each
        cb = Codebook(np.array([[0.0, 0, 0], [1.0, 0, 0]], dtype=np.float32))
        idx, d2 = quantize(cells_of([[[191.5, 128, 128]]]), cb)
        assert idx[0, 0] == 0 and d2[0, 0] == 63.5 ** 2

    def test_matches_brute_force_scan(self, cb16):
        rng = np.random.default_rng(1)
        cells = 4 * rng.integers(0, 255 * 64 + 1, size=(6, 5, 3)).astype(np.uint16)
        idx, _ = quantize(cells, cb16)
        for pos in np.ndindex(6, 5):
            dists = [np.sum((cells[pos] / 256 - c) ** 2) for c in colours(cb16.codes)]
            assert idx[pos] == int(np.argmin(dists))

    def test_never_beaten_by_other_code(self, cb16):
        rng = np.random.default_rng(2)
        cells = 16 * rng.integers(0, 255 * 16 + 1, size=(10, 3)).astype(np.uint16)
        idx, _ = quantize(cells, cb16)
        painted = colours(cb16.codes)
        for z, chosen in zip(cells / 256, painted[idx]):
            d_chosen = np.sum((z - chosen) ** 2)
            for c in painted:
                assert d_chosen <= np.sum((z - c) ** 2)

    def test_dim_mismatch(self, cb16):
        with pytest.raises(CodebookError):
            quantize(np.zeros((2, 2, 4), dtype=np.uint16), cb16)

    def test_matches_elementwise_oracle(self):
        # 3,000 cells at k=1024, many of the codes clamped onto the cube's
        # faces: the search must equal one elementwise block byte for byte
        rng = np.random.default_rng(4)
        points = means(rng, (3000, 3))
        centers = colours(rng.standard_normal((1024, 3)))
        assert_matches_oracle(assign(points, centers), elementwise_oracle(points, centers))

    @pytest.mark.parametrize("case", ["duplicates", "bin_edges", "tie_on_margin",
                                      "one_bin_and_outlier", "outside_hull"])
    def test_search_matches_oracle(self, case):
        points, centers = search_case(case, np.random.default_rng(11))
        assert_matches_oracle(assign(points, centers), elementwise_oracle(points, centers))

    # the first two ids name the sample-scale bound the value passes: sample
    # 1 is byte 255 and sample -1 byte 0; the float ids are means no cell
    # holds, and the last three are cells of other types or widths
    @pytest.mark.parametrize("value, dtype, width, message", [
        (255 * 256 + 1, np.uint32, 3, "uint32 cells: unsigned integers of at most 65280$"),
        (-1, np.int16, 3, "^int16 cells: unsigned"),
        *((v, np.float64, 3, "^float64 cells: unsigned")
          for v in (np.nan, np.inf, -np.inf, 128 * 256 + 0.5)),
        (128 * 256, np.float32, 3, "^float32 cells: unsigned"),
        (128 * 256, np.int64, 3, "^int64 cells: unsigned"),
        (128 * 256, np.uint16, 4, r"^cells of shape \(40, 4\), not \(\.\.\., 3\)$"),
    ], ids=["past_1", "below_-1", "nan", "inf", "-inf", "off_grid",
            "float_cells", "signed_cells", "last_axis_4"])
    def test_points_outside_the_cube_refused(self, cb16, value, dtype, width, message):
        # every cell is 256 x a mean colour in [0, 255]^3, an unsigned
        # integer, and the search has a box for no other point. The codec's
        # search, k-means and the distortion refuse the same cells with the
        # same error: a CodebookError for a width other than 3, else a
        # ValueError that is no CodebookError
        cells = cells_of(means(np.random.default_rng(13), (40, 3)))
        cells = np.concatenate([cells, cells[:, :width - 3]], axis=1).astype(dtype)
        cells[17, 1] = value
        error = CodebookError if width != 3 else ValueError
        for search in (lambda: quantize(cells, cb16), lambda: kmeans_distortion(cells, cb16),
                       lambda: train_codebook(cells, k=4, iters=1, seed=0)):
            with pytest.raises(error, match=message) as refused:
                search()
            assert (refused.type is CodebookError) == (width != 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool, np.int64])
    def test_sums_that_are_not_unsigned_integers_refused(self, cb16, dtype):
        # a cell is a count of 1/256 byte units, never negative: unsigned only
        cells = np.full((4, 3), 16, dtype=dtype)
        with pytest.raises(ValueError, match=f"^{np.dtype(dtype)} cells: unsigned integers"):
            quantize(cells, cb16)

    @pytest.mark.parametrize("pixels", [16, 64, 256])
    def test_sums_above_255_per_pixel_refused(self, cb16, pixels):
        # every cell of an all-255 image is 255 * 256; one more, in the grid
        # of `pixels`-pixel cells, is refused by the one search
        # quantize_masked runs over the three scales' grids
        scale = {16: 0, 64: 1, 256: 2}[pixels]
        white = imaging.from_raw(np.full((32, 32, 3), 255, dtype=np.uint8))
        grids = [grid.copy() for grid in analysis.pyramid(white)]
        masks = [np.ones(grid.shape[:2], dtype=bool) for grid in grids]
        streams = np.concatenate(quantize_masked(grids, masks, cb16))
        assert streams.size == 64 + 16 + 4 and np.all(streams == streams[0])
        grids[scale][-1, -1, 0] += 1
        with pytest.raises(ValueError, match=f"unsigned integers of at most {255 * 256}$"):
            quantize_masked(grids, masks, cb16)

    @pytest.mark.parametrize("spread", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 9, 300])
    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_search_matches_oracle_shapes(self, spread, k, n):
        # random float32 codes drawn with a deviation of spread / 4 and
        # searched through their colours: inside the cube at 1, mostly
        # clamped onto its faces and corners at 5
        rng = np.random.default_rng(100 * spread + k + n)
        points = means(rng, (n, 3))
        centers = colours(rng.standard_normal((k, 3)) * (spread / 4))
        assert_matches_oracle(assign(points, centers), elementwise_oracle(points, centers))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", ["duplicates", "ties", "faces", "corners", "cube_faces"])
    def test_box_search_matches_oracle(self, case, d):
        points, centers = box_case(case, d, np.random.default_rng(31 + d))
        assert_matches_oracle(assign(points, centers), elementwise_oracle(points, centers))

    @pytest.mark.parametrize("book", ["bytes", "float32", "fixture"])
    def test_search_equals_a_scan_of_the_painted_colours(self, session, book):
        # quantize against a scan of all k painted colours, ties to the
        # lowest index: random byte codes (stored as their samples), random
        # float32 codes, many clamped, and the fixture codebook; cells at
        # every scale, random and on the codes' own colours
        rng = np.random.default_rng(50)
        if book == "bytes":
            cb = Codebook(imaging.normalize(rng.integers(0, 256, size=(700, 3))))
        elif book == "float32":
            cb = Codebook(rng.normal(0, 0.7, size=(700, 3)).astype(np.float32))
        else:
            cb = session.codebook
        painted = cb.colours.astype(np.float64)
        for count in (16, 64, 256):  # a cell of `count` pixels: a multiple of 256 / count
            cells = np.concatenate([
                rng.integers(0, 255 * count + 1, size=(3000, 3)) * (256 // count),
                cells_of(painted[rng.integers(0, cb.k, size=500)])]).astype(np.uint16)
            assert_matches_oracle(quantize(cells, cb), elementwise_oracle(cells / 256, painted))

    def test_distances_exact_in_any_coordinate_order(self, session):
        # every coordinate is a multiple of 2**-8 below 256, so a squared
        # distance is exact however its three terms are added: the search's
        # distances equal those of the sum in every order of the coordinates,
        # bit for bit, as no slack is left to absorb a rounding
        rng = np.random.default_rng(51)
        points = means(rng, (4000, 3))
        centers = session.codebook.colours.astype(np.float64)
        idx, best = assign(points, centers)
        for order in itertools.permutations(range(3)):
            terms = [(points[:, j] - centers[idx, j]) ** 2 for j in order]
            assert (terms[0] + terms[1] + terms[2]).tobytes() == best.tobytes()
            permuted = assign(points[:, list(order)], centers[:, list(order)])
            assert np.array_equal(permuted[0], idx) and permuted[1].tobytes() == best.tobytes()

    @pytest.mark.parametrize("case", ["g1", "g2", "g3", "k1", "equal_codes", "one_bin_of_many"])
    def test_neighbour_lists_match_oracle(self, case):
        # each box's list, in ascending index order, holds the oracle's
        # nearest code of every point of the box: a lattice two points a box
        # wide, faces included, and random points; a point on a face is
        # checked in every box it touches. g1 and g2 codes span a line and a
        # plane of the cube (see `span`)
        rng = np.random.default_rng(21)
        if case == "one_bin_of_many":
            # every code crowds into one box, so most lists hold them all
            centers = np.rint(rng.normal(166, 1.3, size=(30, 3)))
        else:
            k, g = {"g1": (50, 1), "g2": (200, 2), "g3": (64, 3),
                    "k1": (1, 3), "equal_codes": (40, 3)}[case]
            centers = span(np.clip(np.rint(rng.normal(128, 77, size=(k, g))), 0, 255), g)
            if case == "equal_codes":
                centers[:] = centers[0]
        k, d = centers.shape
        _, members, starts, spread = vq._build_index(centers)
        side = spread.size
        # one list per box
        assert starts.size == side ** d + 1 and starts[0] == 0 and starts[-1] == members.size
        box_of = np.repeat(np.arange(side ** d), np.diff(starts))
        assert np.all((np.diff(members.astype(int)) > 0) | (np.diff(box_of) > 0))
        held = box_of * k + members  # sorted: boxes ascending, codes within each

        line = np.minimum(256 * np.arange(2 * side + 1) / (2 * side), 255)
        lattice = np.stack(np.meshgrid(*[line] * d, indexing="ij"), -1).reshape(-1, d)
        points = np.concatenate([lattice, means(rng, (20_000, d))])
        for chunk in np.array_split(points, -(-len(points) // 4096)):
            want, _ = elementwise_oracle(chunk, centers)
            at = chunk * (side / 256)  # exact: side is a power of two
            ranges = [(np.maximum(np.ceil(t) - 1, 0), np.minimum(np.floor(t), side - 1))
                      for t in at.T]
            for pick in itertools.product([0, 1], repeat=d):
                box = sum(spread[ranges[j][p].astype(int)] << (d - 1 - j)
                          for j, p in enumerate(pick))
                key = box * k + want
                assert np.array_equal(held[np.searchsorted(held, key).clip(max=held.size - 1)],
                                      key)

    def test_masked_equals_per_stream(self):
        # one search over the three scales' kept cells, split per scale
        rng = np.random.default_rng(12)
        cb = Codebook(rng.standard_normal((128, 3)).astype(np.float32))
        gmap = rng.integers(0, 3, size=(5, 6)).astype(np.uint8)
        grids = [(rng.integers(0, 255 * n + 1, size=(5 * s, 6 * s, 3)) * (256 // n))
                 .astype(np.uint16) for s, n in zip((4, 2, 1), (16, 64, 256))]
        masks = masks_from_map(gmap)
        got = quantize_masked(grids, masks, cb)
        for stream, grid, mask in zip(got, grids, masks):
            assert stream.dtype == np.int32 and stream.size > 0
            assert np.array_equal(stream, quantize(grid[mask], cb)[0])

    @pytest.mark.parametrize("mode", [dict(ratios=RatioTriple(0.70, 0.25, 0.05)),
                                      dict(target_bpp=0.10)], ids=["hirate", "lorate"])
    def test_masked_equals_boolean_indexing(self, session, mode):
        # the gather of each scale's kept cells against grid[mask], on every
        # image kind at the benchmark's settings
        ratios = mode.get("ratios") or granularity.ratios_for_target(
            session.rate_table, mode["target_bpp"])
        cb = session.codebook
        for seed, kind in enumerate(["noise", "gradient", "blocky", "photo", "waves"]):
            img = make_image(kind, 96, 136, seed=70 + seed)
            grids = analysis.pyramid(img)
            masks = masks_from_map(plan_granularity(entropy_map(img, session.entropy_cfg),
                                                    ratios))
            got = quantize_masked(grids, masks, cb)
            for stream, grid, mask in zip(got, grids, masks):
                assert stream.dtype == np.int32
                assert np.array_equal(stream, quantize(grid[mask], cb)[0])

    @pytest.mark.parametrize("label", [FINE, MEDIUM, COARSE])
    def test_masked_scales_that_keep_no_cell(self, session, label):
        img = make_image("photo", 64, 96, seed=75)
        grids = analysis.pyramid(img)
        masks = masks_from_map(np.full((4, 6), label, dtype=np.uint8))
        got = quantize_masked(grids, masks, session.codebook)
        for scale, (stream, grid, mask) in enumerate(zip(got, grids, masks)):
            assert stream.dtype == np.int32
            assert stream.size == (grid.shape[0] * grid.shape[1] if scale == label else 0)
            assert np.array_equal(stream, quantize(grid[mask], session.codebook)[0])

    @pytest.fixture
    def cells_seen(self, monkeypatch):
        """Route `vq._assign` through a recorder of the cells per call; the
        search refuses a cell outside [0, 255]^3 before `_assign` runs, and
        hands it the pyramid's uint16 cells, not a copy in another type."""
        seen = []
        assign = vq._assign

        def recording(cells, index):
            assert cells.dtype == np.uint16
            seen.append(cells.shape[0])
            return assign(cells, index)

        monkeypatch.setattr(vq, "_assign", recording)
        return seen

    def test_codec_cells_lie_in_the_cube(self, session, cells_seen):
        # codec cells are 256 x mean bytes, at most 255 * 256, so the search
        # refuses none of them: hirate and lorate encodes of every image kind
        for mode in (dict(ratios=RatioTriple(0.70, 0.25, 0.05)), dict(target_bpp=0.10)):
            for i, kind in enumerate(["noise", "gradient", "blocky", "photo", "waves"]):
                cells_seen.clear()
                pipeline.encode_image(session, make_image(kind, 512, 512, seed=80 + i), **mode)
                assert len(cells_seen) == 1 and cells_seen[0] > 2_000, (mode, kind)

    def test_training_cells_lie_in_the_cube(self, corpus, cells_seen):
        # the k-means sample, searched once per Lloyd iteration, and the
        # frequency pass, once per image, on the fixture's desk corpus
        training.train_codebook(corpus, k=64, seed=7, iters=2, max_samples=60_000)
        assert cells_seen[:2] == [60_000, 60_000]
        assert len(cells_seen) == 2 + len(corpus) and all(n > 0 for n in cells_seen[2:])

    def test_peak_memory_large_codebook(self):
        # the search holds a few arrays of one value per cell, never a block
        # of cell-to-code distances: 1,024 cells against 8,192 codes would
        # need 64 MiB in one block
        rng = np.random.default_rng(5)
        cb = Codebook(rng.standard_normal((8192, 3)).astype(np.float32))
        cells = 16 * rng.integers(0, 255 * 16 + 1, size=(1024, 3)).astype(np.uint16)
        assert traced_peak(quantize, cells, cb) < 8 << 20

    def test_peak_memory_per_cell(self, session):
        # the hirate cells of a 1024^2 photo, about 50,000: the search reads
        # the uint16 cells as they are and holds the ranked means and a few
        # arrays of one value per cell, about 84 B, with no float copy of the
        # cells in their own order
        img = make_image("photo", 1024, 1024, seed=1)
        gmap = pipeline.plan_image(session, img, RatioTriple(0.70, 0.25, 0.05))[2]
        cells = np.concatenate([grid[mask] for grid, mask in
                                zip(analysis.pyramid(img), masks_from_map(gmap))])
        quantize(cells[:1], session.codebook)  # the index is built and kept outside the trace
        assert traced_peak(quantize, cells, session.codebook) <= 100 * len(cells)


class TestBoxIndex:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count index builds, starting from empty caches and leaving them
        empty, so no refusal under a patched bound outlives the test."""
        vq._cached_index.cache_clear()
        counted = []
        build = vq._build_index

        def counting(centers):
            counted.append(centers.shape)
            return build(centers)

        monkeypatch.setattr(vq, "_build_index", counting)
        yield counted
        vq._cached_index.cache_clear()

    def test_sessions_from_one_file_share_one_build(self, builds, session, tmp_path):
        path = tmp_path / "cb.cgcb"
        save_codebook(session.codebook, session.frequencies, path)
        a, b = (pipeline.CodecSession.from_file(path) for _ in range(2))
        assert a.codebook is not b.codebook
        assert builds == []  # a session builds nothing
        img = make_image("photo", 64, 64, seed=3)
        containers = [pipeline.encode_image(s, img, ratios=RatioTriple(0.70, 0.25, 0.05))
                      for s in (a, b, a)]
        assert len(builds) == 1
        vq._cached_index.cache_clear()
        pipeline.decode_image(b, containers[0])
        assert len(builds) == 1  # a decoder paints and builds no index

    def test_last_bit_of_one_code_gets_its_own_index(self, builds):
        # code 1's first sample lies next to the edge between bytes 158 and
        # 159, and the second codebook flips its last bit across that edge.
        # The cell 127.5 lies 31.5 from code 0's byte 96, 30.5 from 158 and
        # 31.5 from 159, a tie that code 0 wins
        rng = np.random.default_rng(40)
        codes = rng.uniform(0.5, 1, size=(64, 3)).astype(np.float32)
        codes[0], codes[1] = (-0.25, 0, 0), (0, 0, 0)
        codes.view(np.uint32)[1, 0] = 0x3E78F8F8  # 0.24313724, byte 158
        moved = codes.copy()
        moved.view(np.uint32)[1, 0] ^= 1
        cells = 128 * np.concatenate([[[255, 256, 256]],
                                      rng.integers(0, 511, size=(2000, 3))]).astype(np.uint16)
        got = []
        for book, byte in ((codes, 158), (moved, 159)):
            cb = Codebook(book)
            assert tuple(cb.colours[:2, 0]) == (96, byte)
            got.append(quantize(cells, cb))
            assert_matches_oracle(got[-1], elementwise_oracle(cells / 256,
                                                              cb.colours.astype(np.float64)))
        assert (got[0][0][0], got[1][0][0]) == (1, 0)
        assert len(builds) == 2

    def test_cache_keeps_the_last_two(self, builds):
        rng = np.random.default_rng(41)
        books = [Codebook(rng.uniform(-1, 1, size=(8, 3)).astype(np.float32)) for _ in range(3)]
        cells = 16 * rng.integers(0, 255 * 16 + 1, size=(50, 3)).astype(np.uint16)
        for i in [0, 1, 0, 1, 2, 1, 0]:  # the 2 evicts 0, which is built again
            want = elementwise_oracle(cells / 256, books[i].colours.astype(np.float64))
            assert_matches_oracle(quantize(cells, books[i]), want)
        assert len(builds) == 4 and vq._cached_index.cache_info().currsize == 2

    def test_shared_lists_read_only(self):
        # every session and k-means share the colours and lists of one set
        # of codes: read-only as the builders return them, not only through
        # the caches
        cb = Codebook(np.random.default_rng(42).uniform(-1, 1, size=(32, 3)).astype(np.float32))
        centers = cb.colours.astype(np.float64)
        for arrays in ([cb.colours], vq._cached_index(cb.colours.tobytes()),
                       vq._build_index(centers)):
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    @pytest.mark.parametrize("k", [1, 2, 300])
    def test_equal_codes_listed_once(self, k):
        # k codes of one colour, the second half with -0.0 where the first
        # has 0.0 and moved by 1e-6 in the others: a scan gives every tie to
        # code 0, so each box lists code 0 alone
        codes = np.tile(np.array([0.0, 0.25, -0.5], dtype=np.float32), (k, 1))
        codes[k // 2:] = (-0.0, 0.25 + 1e-6, -0.5 - 1e-6)
        cb = Codebook(codes)
        _, members, starts, spread = vq._cached_index(cb.colours.tobytes())
        assert starts.size == spread.size ** 3 + 1
        assert np.all(np.diff(starts) == 1) and not members.any()
        rng = np.random.default_rng(43)
        cells = np.concatenate([16 * rng.integers(0, 255 * 16 + 1, size=(500, 3)),
                                cells_of(cb.colours[-1:])]).astype(np.uint16)
        assert not quantize(cells, cb)[0].any()

    @pytest.mark.parametrize("colours", [1, 2])
    def test_few_colour_training_lists_each_distinct_code_once(self, colours, monkeypatch):
        # k-means on one or two colours makes most of its 64 codes equal; no
        # list of any iteration holds more codes than there are distinct ones
        seen, build = [], vq._build_index

        def recording(centers):
            index = build(centers)
            seen.append((np.diff(index[2]).max(), len(np.unique(centers, axis=0))))
            return index

        monkeypatch.setattr(vq, "_build_index", recording)
        colour = np.random.default_rng(44).integers(0, 256, size=(colours, 3))
        cb = train_codebook(cells_of(np.repeat(colour, 100, axis=0)), k=64, iters=4, seed=0)
        assert len(np.unique(cb.codes, axis=0)) == colours
        assert seen and all(longest <= distinct for longest, distinct in seen)

    def test_codes_crowding_a_tiny_ball_paint_few_colours(self, builds):
        # 65,535 distinct float32 codes within 1e-6 of the origin paint the
        # 8 colours of {127, 128}^3, so no list holds more than those 8, the
        # index builds in well under a second, and a 64x64 all-fine encode
        # equals a scan of all 65,535 painted colours
        rng = np.random.default_rng(45)
        codes = rng.uniform(-1e-6, 1e-6, size=(65_535, 3)).astype(np.float32)
        cb = Codebook(codes)
        painted = cb.colours.astype(np.float64)
        distinct = len(np.unique(painted, axis=0))
        assert distinct == 8
        t0 = time.perf_counter()
        _, _, starts, _ = vq._cached_index(cb.colours.tobytes())
        assert time.perf_counter() - t0 < 1.0 and np.diff(starts).max() <= distinct
        img = make_image("photo", 64, 64, seed=46)
        session = pipeline.CodecSession(cb, flat_frequencies(cb.k))
        gmap = np.full((4, 4), FINE, dtype=np.uint8)
        _, (fine, medium, coarse) = pipeline.quantize_streams(session, img, gmap)
        means_ = analysis.pyramid(img)[0].reshape(-1, 3) / 256
        want = np.concatenate([elementwise_oracle(chunk, painted)[0]
                               for chunk in np.array_split(means_, 8)])
        assert np.array_equal(fine, want) and medium.size == coarse.size == 0

    def test_codes_too_crowded_refused_in_bounded_time(self, builds):
        # every colour of a 40^3 byte cube: a box of side 8 inside it lists
        # the codes within about 7 of it, 5,248 to 7,337, and every cell
        # there would scan them all. The codec's search and the distortion
        # refuse the codebook within seconds, after one build: the refusal
        # is kept with the indexes
        cb = Codebook(crowded_cube())
        cells = cells_of(means(np.random.default_rng(47), (100, 3)))
        for search in (lambda: quantize(cells, cb), lambda: kmeans_distortion(cells, cb)):
            t0 = time.perf_counter()
            with pytest.raises(CodebookError, match="^codes too crowded for the nearest-code "
                                                    "search: over 4096 in one box$"):
                search()
            assert time.perf_counter() - t0 < 5.0
        assert len(builds) == 1 and vq._cached_index.cache_info().currsize == 1

    def test_crowded_centres_refused_at_the_first_lloyd_step(self, builds, monkeypatch):
        # k-means searches through the codec's index and its list bound, so
        # seeds whose lists pass the bound are refused after one build, not
        # after every Lloyd step and a build in the frequency pass
        monkeypatch.setattr(vq, "_MAX_LIST", 1)
        images = [make_image("photo", 64, 64, seed=52), make_image("waves", 64, 64, seed=53)]
        with pytest.raises(CodebookError, match="^codes too crowded for the nearest-code "
                                                "search: over 1 in one box$"):
            training.train_codebook(images, k=32, iters=4, seed=0)
        assert len(builds) == 1

    def test_kmeans_builds_one_index_per_set_of_centres(self, builds, monkeypatch):
        # each Lloyd step searches its centres through `quantize`; a step
        # that repeats the centres before it reuses their cached index
        searched, search = [], vq.quantize

        def recording(cells, cb):
            searched.append(cb.colours.tobytes())
            return search(cells, cb)

        monkeypatch.setattr(vq, "quantize", recording)
        rng = np.random.default_rng(54)
        corpus = cells_of(np.concatenate([rng.normal(64, 3, size=(50, 3)),
                                          rng.normal(192, 3, size=(50, 3))]))
        train_codebook(corpus, k=2, iters=10, seed=1)
        assert len(searched) == 10
        assert len(builds) == len(set(searched)) < 10

    def test_random_codes_at_the_format_limit_encode(self):
        # uniform random codes at k = 65,535 are far from crowded: the
        # longest list holds about 90 codes, and an all-fine image encodes
        # and decodes to the colours of the codes it sent
        rng = np.random.default_rng(48)
        cb = Codebook(rng.uniform(-1, 1, size=(vq.MAX_K, 3)).astype(np.float32))
        assert np.diff(vq._cached_index(cb.colours.tobytes())[2]).max() <= 1024
        session = pipeline.CodecSession(cb, flat_frequencies(cb.k))
        img = make_image("photo", 128, 128, seed=49)
        container = pipeline.encode_image(session, img, ratios=RatioTriple(1, 0, 0))
        _, (fine, medium, coarse) = pipeline.quantize_streams(
            session, img, np.full((8, 8), FINE, dtype=np.uint8))
        assert fine.size == 1024 and medium.size == coarse.size == 0
        decoded = pipeline.decode_image(session, container)
        assert np.array_equal(decoded.pixels[::4, ::4].reshape(-1, 3), cb.colours[fine])

    @pytest.mark.parametrize("colours", [1, 2])
    def test_few_colour_corpus_trains_at_k_1024(self, colours):
        # k-means on one or two colours makes nearly all of its 1,024 codes
        # equal; the frequency pass searches them through the codec's index,
        # whose lists hold only the distinct colours, so training succeeds
        raw = np.full((128, 128, 3), 40, dtype=np.uint8)
        raw[:, 64:] = 40 if colours == 1 else 200
        cb, tbl = training.train_codebook([imaging.from_raw(raw)], k=1024, iters=2, seed=0)
        assert tbl.k == cb.k == 1024
        assert len(np.unique(cb.colours, axis=0)) == colours

    def test_low_contrast_corpus_trains_above_k_1024_and_encodes(self):
        # every pixel of a low-contrast corpus lies in [96, 159], so k=2048
        # codes crowd a 64^3 part of the cube that every box far from it
        # faces. Those boxes list the codes nearest them, not the whole near
        # face of the crowd (all 2,048 codes, when a code was dropped only
        # for being farther than another's farthest point), so the codebook
        # trains fast, and a full-contrast all-fine image encodes and
        # decodes to the colours of the codes sent
        corpus = [imaging.from_raw(96 + make_raw(kind, 128, 128, seed=50 + i) // 4)
                  for i, kind in enumerate(["noise", "gradient", "blocky", "photo"])]
        cb, tbl = training.train_codebook(corpus, k=2048, iters=2, seed=0)
        assert len(np.unique(cb.colours, axis=0)) == 2048
        assert np.diff(vq._cached_index(cb.colours.tobytes())[2]).max() < 256
        session = pipeline.CodecSession(cb, tbl)
        img = make_image("photo", 128, 128, seed=51)
        container = pipeline.encode_image(session, img, ratios=RatioTriple(1, 0, 0))
        _, (fine, _, _) = pipeline.quantize_streams(
            session, img, np.full((8, 8), FINE, dtype=np.uint8))
        decoded = pipeline.decode_image(session, container)
        assert np.array_equal(decoded.pixels[::4, ::4].reshape(-1, 3), cb.colours[fine])

    def test_build_peak_memory(self, session):
        # a build runs in steps of bounded size: at k=1024 it stays under 8 MiB
        assert session.codebook.k == 1024
        centers = session.codebook.colours.astype(np.float64)
        assert traced_peak(vq._build_index, centers) < 8 << 20

    @pytest.mark.parametrize("k, low, high, digest", [
        (1024, 0, 256, "9e097abe5e861eb32b30969c576be89793182c834adb74095bc454dbc2992dc0"),
        (4096, 100, 156, "ded920bff077c062fa73327567395d4c3d8b1de0887fcf7ada7ae7d6ea783bb5"),
    ], ids=["random_1024", "low_contrast_4096"])
    def test_build_pinned(self, k, low, high, digest):
        # every array of the index, dtype, shape and bytes, for seeded random
        # colours over the cube and over bytes 100-155 on each axis: a change
        # to how the build enumerates a box's children must keep them all
        centers = np.random.default_rng(k).integers(low, high, (k, 3)).astype(np.float64)
        h = hashlib.sha256()
        for array in vq._build_index(centers):
            h.update(array.dtype.str.encode() + str(array.shape).encode() + array.tobytes())
        assert h.hexdigest() == digest


class TestLookup:
    def test_all_zero_indices(self, cb16):
        grid = lookup(np.zeros((3, 3), dtype=np.int32), cb16)
        assert np.all(grid == cb16.codes[0])

    def test_last_index(self):
        rng = np.random.default_rng(3)
        cb = Codebook(rng.standard_normal((1024, 3)).astype(np.float32))
        assert np.array_equal(lookup(np.array([1023]), cb)[0], cb.codes[1023])

    def test_roundtrip_idempotent(self, cb16):
        # a cell of one pixel painted with a code's colour finds that code
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 16, size=(5, 7))
        again, d2 = quantize(cells_of(imaging.denormalize(lookup(idx, cb16))), cb16)
        assert np.array_equal(again, idx) and not d2.any()

    def test_out_of_range_rejected(self, cb16):
        with pytest.raises(CodebookError):
            lookup(np.array([16]), cb16)


class TestTraining:
    def test_k_distinct_points_fixed_point(self):
        points = np.arange(12, dtype=np.float64).reshape(4, 3) * 16
        cb = train_codebook(cells_of(points), k=4, iters=5, seed=0)
        assert sorted(map(tuple, cb.colours.tolist())) == sorted(map(tuple, points.tolist()))
        assert kmeans_distortion(cells_of(points), cb) == 0.0

    def test_codes_are_the_samples_of_their_bytes(self):
        # every trained code is a colour, stored as the float32 samples of
        # its bytes, which paint those bytes again
        corpus = cells_of(means(np.random.default_rng(5), (400, 3)))
        cb = train_codebook(corpus, k=16, iters=3, seed=2)
        assert cb.codes.tobytes() == imaging.normalize(cb.colours).tobytes()

    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        a = cells_of(rng.normal(64, 3, size=(50, 3)))
        b = cells_of(rng.normal(192, 3, size=(50, 3)))
        cb = train_codebook(np.vstack([a, b]), k=2, iters=10, seed=1)
        centers = sorted(cb.colours[:, 0])
        assert centers[0] < 77 and centers[1] > 179

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        corpus = cells_of(means(rng, (200, 3)))
        cb1 = train_codebook(corpus, k=16, iters=8, seed=42)
        cb2 = train_codebook(corpus, k=16, iters=8, seed=42)
        assert np.array_equal(cb1.codes, cb2.codes)
        assert cb1.id_hash == cb2.id_hash

    def test_corpus_of_any_leading_shape(self):
        # cells in a grid train the codebook their rows train
        grid = cells_of(means(np.random.default_rng(6), (4, 10, 3, 3))).swapaxes(1, 2)
        assert (train_codebook(grid, k=8, iters=4, seed=3).codes.tobytes()
                == train_codebook(grid.reshape(-1, 3), k=8, iters=4, seed=3).codes.tobytes())

    def test_negative_iters_rejected(self):
        # a negative count would run no iteration and return the bare seeds
        corpus = cells_of(means(np.random.default_rng(6), (40, 3)))
        with pytest.raises(ValueError, match="iters"):
            train_codebook(corpus, k=4, iters=-3, seed=0)
        assert train_codebook(corpus, k=4, iters=0, seed=0).k == 4

    def test_distortion_non_increasing(self):
        # a rounded mean is the best byte centre of its cluster, so rounding
        # keeps Lloyd's descent
        rng = np.random.default_rng(7)
        corpus = cells_of(means(rng, (300, 3)))
        prev = np.inf
        for iters in (1, 3, 6, 12):
            d = kmeans_distortion(corpus, train_codebook(corpus, k=8, iters=iters, seed=9))
            assert d <= prev
            prev = d

    def test_distortion_on_the_sample_scale(self):
        # two cells 1 and 2 bytes from their codes' colours on one axis: a
        # squared error of 1 + 4 byte**2, each byte step 2 / 255 on the
        # [-1, 1] sample scale the distortion is reported on
        cb = Codebook(imaging.normalize(np.array([[10, 20, 30], [200, 100, 0]])))
        points = np.array([[11, 20, 30], [200, 98, 0]], dtype=np.float64)
        got = kmeans_distortion(cells_of(points), cb)
        assert got == 5 / 127.5 ** 2
        # the same error from the samples and the float32 codes, rounded
        assert got == pytest.approx(np.sum((points / 127.5 - 1 - cb.codes) ** 2), rel=1e-5)

    def test_distortion_is_the_sum_of_the_search_distances(self, session):
        # the distortion adds up the exact byte**2 distances `quantize` returns
        rng = np.random.default_rng(55)
        cells = cells_of(means(rng, (5000, 3)))
        _, d2 = quantize(cells, session.codebook)
        assert d2.shape == (5000,) and d2.dtype == np.float64
        assert kmeans_distortion(cells, session.codebook) == float(d2.sum()) / 127.5 ** 2

    def test_update_matches_per_cluster_loop(self):
        # 3000 draws from 200 points; every third center starts on the far
        # corner, so those clusters are empty and reseeded
        rng = np.random.default_rng(8)
        corpus = means(rng, (200, 3), 0, 200)[rng.integers(0, 200, size=3000)]
        for _ in range(5):
            centers = np.rint(corpus[rng.choice(3000, size=24, replace=False)])
            centers[::3] = 255
            assign_, d2 = assign(corpus, centers)
            want, want_d2 = centers.copy(), d2.copy()
            for i in range(24):
                members = assign_ == i
                if members.any():
                    want[i] = np.rint(corpus[members].mean(axis=0))
                else:
                    far = int(want_d2.argmax())
                    want[i] = np.rint(corpus[far])
                    want_d2[far] = 0.0
            _update_centers(corpus, assign_, d2, centers)
            assert np.array_equal(centers, want)
            assert np.array_equal(d2, want_d2)

    def test_corpus_too_small(self):
        with pytest.raises(ValueError, match="corpus size 3 smaller than k=8"):
            train_codebook(np.zeros((3, 3), dtype=np.uint16), k=8, iters=1, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_seeding_draws_what_choice_draws(self, d):
        def choice_seeding(corpus, k, rng):
            n = corpus.shape[0]
            centers = np.empty((k, corpus.shape[1]))
            centers[0] = corpus[rng.integers(n)]
            d2 = ((corpus - centers[0]) ** 2).sum(axis=1)
            for i in range(1, k):
                total = d2.sum()
                if total <= 0:
                    centers[i] = corpus[rng.integers(n)]
                else:
                    centers[i] = corpus[rng.choice(n, p=d2 / total)]
                d2 = np.minimum(d2, ((corpus - centers[i]) ** 2).sum(axis=1))
            return centers

        data = np.random.default_rng(20 + d)
        for seed, (n, k) in enumerate([(40, 40), (500, 16), (3000, 64)]):
            corpus = data.standard_normal((n, d))
            if seed == 1:  # few distinct points: the distances reach 0
                corpus = np.round(corpus)
            want = choice_seeding(corpus, k, np.random.default_rng(seed))
            got = _seed_centers(corpus, k, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


class TestFrequencies:
    # all-coarse leaves the fine and medium streams of every image empty
    @pytest.mark.parametrize("ratios", [training.FREQ_RATIOS, RatioTriple(0, 0, 1)],
                             ids=["default", "all-coarse"])
    def test_training_counts_each_emitted_index_plus_one(self, ratios, monkeypatch):
        images = [make_image(kind, 32, 48, seed=80 + i)
                  for i, kind in enumerate(["photo", "noise", "blocky"])]
        k = 32
        monkeypatch.setattr(training, "FREQ_RATIOS", ratios)
        cb, tbl = training.train_codebook(images, k=k, seed=2, iters=2)
        streams = [s for img in images for s in quantize_masked(
            analysis.pyramid(img),
            masks_from_map(plan_granularity(entropy_map(img), ratios)), cb)]
        assert tbl.smoothed and tbl.counts.dtype == np.uint64
        want = 1 + sum(np.bincount(s, minlength=k) for s in streams)
        assert tbl.counts.tolist() == want.tolist()
        # every emitted index counted once, and one more for each code
        assert tbl.counts.sum() == sum(s.size for s in streams) + k
        assert tbl.counts.min() == 1  # an unused code keeps a codeword


    def test_smoothed_reads_the_counts(self):
        assert FrequencyTable(np.array([3, 1, 7], dtype=np.uint64)).smoothed
        # a table holding a zero is refused when made, so none reads unsmoothed
        with pytest.raises(BitstreamError, match="code 1 has frequency count 0"):
            FrequencyTable(np.array([3, 0, 7], dtype=np.uint64))

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_counts_are_a_read_only_copy(self, dtype):
        # a uint64 array is the one frequency_counts would hand back as is
        counts = np.array([3, 1, 7], dtype=dtype)
        tbl = FrequencyTable(counts)
        counts[1] = 0
        assert tbl.counts.dtype == np.uint64 and tbl.counts.tolist() == [3, 1, 7]
        with pytest.raises(ValueError, match="read-only"):
            tbl.counts[1] = 0

    @pytest.mark.parametrize("counts", [[-1, 1, 1], [1.5, 2.0], [], np.ones((4, 2))],
                             ids=["negative", "fraction", "empty", "2-d"])
    def test_bad_table_refused_when_made(self, counts):
        with pytest.raises(BitstreamError) as refused:
            frequency_counts(counts)
        with pytest.raises(BitstreamError, match=f"^{re.escape(str(refused.value))}$"):
            FrequencyTable(counts)


class TestCodebookArrays:
    """A Codebook holds a read-only copy of its codes and their hash."""

    def test_codes_unchanged_by_the_callers_array(self, cb16):
        codes = np.array(cb16.codes)
        cb = Codebook(codes)
        codes += 0.25
        assert np.array_equal(cb.codes, cb16.codes)
        assert cb.id_hash == cb16.id_hash

    def test_codes_read_only_and_hashed(self, cb16):
        with pytest.raises(ValueError, match="read-only"):
            cb16.codes[0, 0] = 0.0
        assert cb16.id_hash == vq._codes_hash(cb16.codes)

    def test_hash_ignores_the_input_layout(self, tmp_path, cb16):
        # the hash is of the C float32 copy the Codebook keeps, which is the
        # little-endian code bytes of the saved file, whatever array it came from
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, flat_frequencies(16), path)
        stored = path.read_bytes()[vq._HEADER.size:][:cb16.codes.nbytes]
        want = int.from_bytes(hashlib.sha256(stored).digest()[:8], "little")
        wide = np.zeros((16, 6), dtype=np.float32)
        wide[:, ::2] = cb16.codes
        for codes in (np.asfortranarray(cb16.codes, dtype=np.float64),
                      cb16.codes.astype(">f4"), wide[:, ::2]):
            assert Codebook(codes).id_hash == cb16.id_hash == want

    def test_id_hash_computed_once(self, monkeypatch):
        digest, calls = vq._codes_hash, []
        monkeypatch.setattr(vq, "_codes_hash", lambda codes: calls.append(1) or digest(codes))
        cb = Codebook(np.zeros((2, 3), dtype=np.float32))
        assert {cb.id_hash for _ in range(3)} == {digest(cb.codes)}
        assert len(calls) == 1


class TestCodebookFile:
    def test_roundtrip(self, tmp_path, cb16):
        tbl = FrequencyTable(np.arange(1, 17, dtype=np.uint64))
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, tbl, path)
        cb2, tbl2 = load_codebook(path)
        assert np.array_equal(cb2.codes, cb16.codes)
        assert np.array_equal(tbl2.counts, tbl.counts)
        assert cb2.id_hash == cb16.id_hash

    def test_every_byte_survives_the_file(self, tmp_path):
        # a code is stored as the float32 samples of its bytes, and every one
        # of the 256 bytes, in every channel, paints as itself after a save
        # and a load: denormalize(normalize(b)) == b
        rng = np.random.default_rng(9)
        colours_ = np.stack([rng.permutation(256) for _ in range(3)], axis=1).astype(np.uint8)
        path = tmp_path / "bytes.cgcb"
        save_codebook(Codebook(imaging.normalize(colours_)), flat_frequencies(256), path)
        cb, _ = load_codebook(path)
        assert np.array_equal(cb.colours, colours_)
        assert np.array_equal(imaging.denormalize(imaging.normalize(np.arange(256))),
                              np.arange(256))

    @pytest.mark.parametrize("d", [2, 4])
    def test_codes_of_other_width_refused_at_load(self, tmp_path, d):
        # a well-formed file, hash and counts valid, whose codes are not the
        # 3 features of a cell; d = 4 is the layout that also held a
        # luminance std
        path = tmp_path / f"d{d}.cgcb"
        write_codebook(path, np.random.default_rng(d).uniform(-1, 1, size=(5, d)))
        with pytest.raises(CodebookError,
                           match=re.escape(f"{path}: codebook shape (5, {d}), not (k >= 1, 3)")):
            load_codebook(path)

    def test_non_finite_code_refused_at_load(self, tmp_path):
        # hash and counts valid, but one code is NaN: the error names the
        # file like every other refusal of load_codebook
        codes = np.random.default_rng(3).uniform(-1, 1, size=(5, 3))
        codes[2, 1] = np.nan
        path = tmp_path / "nan.cgcb"
        write_codebook(path, codes)
        with pytest.raises(CodebookError,
                           match=re.escape(f"{path}: codebook contains non-finite values")):
            load_codebook(path)

    def test_frequency_table_of_other_size_refused(self, tmp_path, cb16):
        # the session and the file writer hold one rule with one error
        path = tmp_path / "cb.cgcb"
        for k in (15, 17):
            with pytest.raises(CodebookError, match="frequency table size"):
                pipeline.CodecSession(cb16, flat_frequencies(k))
            with pytest.raises(CodebookError, match="frequency table size"):
                save_codebook(cb16, flat_frequencies(k), path)
        assert not path.exists()

    def test_k_above_uint16_rejected_before_writing(self, tmp_path):
        k = 65536
        cb = Codebook(np.zeros((k, 3), dtype=np.float32))
        path = tmp_path / "big.cgcb"
        with pytest.raises(CodebookError):
            save_codebook(cb, flat_frequencies(k), path)
        assert not path.exists()

    def test_load_reads_only_what_the_header_declares(self, tmp_path, cb16, monkeypatch):
        # files that never end, as /dev/zero: a valid codebook followed by
        # zeros, and a header declaring d = 65,535, whose body would take
        # 17 GB at k = 65,535. Every read asks for a size, none goes past the
        # declared body and one byte more, and the wider codes are refused
        # from the header alone
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, flat_frequencies(16), path)
        valid = path.read_bytes()
        wide = b"CGCB" + struct.pack("<BHH", vq.CODEBOOK_VERSION, 0xFFFF, 0xFFFF)

        class Endless:
            def __init__(self, data):
                self.data, self.pos, self.reads = data, 0, []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, size=-1):
                assert size is not None and size >= 0, "a read of the whole file"
                self.reads.append(size)
                out = self.data[self.pos:self.pos + size].ljust(size, b"\0")
                self.pos += size
                return out

        for data, bound, error in [
            (valid, len(valid) + 1, f"expected {len(valid)} bytes, got more"),
            (wide, len(wide), "codebook shape (65535, 65535), not (k >= 1, 3)"),
        ]:
            f = Endless(data)
            monkeypatch.setattr(vq, "open", lambda p, *a, **kw: f, raising=False)
            with pytest.raises(CodebookError, match=re.escape(f"{path}: {error}")):
                load_codebook(path)
            assert sum(f.reads) <= bound

    def test_load_takes_short_reads(self, tmp_path, cb16, monkeypatch):
        # the file is read unbuffered, and such a read, as from a pipe, may
        # return fewer bytes than it asks for
        class Trickle(io.BytesIO):
            def read(self, size=-1):
                return super().read(min(size, 5))

        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, flat_frequencies(16), path)
        monkeypatch.setattr(vq, "open", lambda p, *a, **kw: Trickle(path.read_bytes()),
                            raising=False)
        assert load_codebook(path)[0].id_hash == cb16.id_hash

    def test_corruption_detected(self, tmp_path, cb16):
        tbl = flat_frequencies(16)
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, tbl, path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # inside the code vectors
        path.write_bytes(bytes(data))
        with pytest.raises(CodebookError):
            load_codebook(path)

    def test_count_below_one_rejected_before_writing(self, tmp_path, cb16):
        counts = np.arange(1, 17)
        counts[3] = -1  # would be written as 2^64 - 1
        path = tmp_path / "cb.cgcb"
        with pytest.raises(BitstreamError, match=">= 1"):
            save_codebook(cb16, FrequencyTable(counts), path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(4, 2), ()], ids=["2-d", "0-d"])
    def test_table_not_one_dimensional_rejected_before_writing(self, tmp_path, shape):
        # a (4, 2) table was written as 8 counts, a file load_codebook refuses
        cb = Codebook(np.zeros((4, 3), dtype=np.float32))
        path = tmp_path / "cb.cgcb"
        with pytest.raises(BitstreamError,
                           match=re.escape(f"frequency counts of shape {shape}, not (k,)")):
            save_codebook(cb, FrequencyTable(np.ones(shape, dtype=np.uint64)), path)
        assert not path.exists()

    def test_zero_count_rejected(self, tmp_path, cb16):
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, flat_frequencies(16), path)
        data = bytearray(path.read_bytes())
        at = 9 + 4 * cb16.k * cb16.d + 8 * 5  # code 5's count; the hash covers codes only
        data[at:at + 8] = bytes(8)
        path.write_bytes(bytes(data))
        with pytest.raises(CodebookError,
                           match=re.escape(f"{path}: code 5 has frequency count 0")):
            load_codebook(path)

    def test_zero_dimensional_codes_rejected(self, tmp_path):
        with pytest.raises(CodebookError):
            Codebook(np.zeros((4, 0), dtype=np.float32))
        # a file declaring d=0, consistent in size, counts and hash
        path = tmp_path / "d0.cgcb"
        write_codebook(path, np.zeros((4, 0)))
        with pytest.raises(CodebookError):
            load_codebook(path)

    def test_truncated_header_rejected(self, tmp_path, cb16):
        path = tmp_path / "cb.cgcb"
        save_codebook(cb16, flat_frequencies(16), path)
        data = path.read_bytes()
        for n in range(9):  # shorter than magic + version + k + d
            cut = tmp_path / f"cut{n}.cgcb"
            cut.write_bytes(data[:n])
            with pytest.raises(CodebookError):
                load_codebook(cut)
