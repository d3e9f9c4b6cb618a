import itertools

import numpy as np
import pytest

from granucodec.granularity import (
    COARSE, FINE, INDICES_PER_BLOCK, LATTICE, MEDIUM, RatioTriple, build_rate_table,
    label_counts, masks_from_map, plan_granularity, ratios_for_target, theoretical_bpp,
)
from granucodec.imaging import nn_upsample

L_REFERENCE = 10.3875


def cover_sum(masks):
    # int, not bool: a bool sum is an OR, and would hide a cell sent twice
    fine, medium, coarse = (m.astype(int) for m in masks)
    return fine + nn_upsample(medium, 2) + nn_upsample(coarse, 4)


class TestRatioTriple:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RatioTriple(0.5, 0.5, 0.5)

    def test_must_be_fractions(self):
        with pytest.raises(ValueError):
            RatioTriple(1.5, -0.5, 0.0)


class TestPlan:
    def test_all_coarse(self):
        gmap = plan_granularity(np.zeros((2, 2)), RatioTriple(0, 0, 1))
        assert np.all(gmap == COARSE)

    def test_all_fine(self):
        gmap = plan_granularity(np.zeros((2, 2)), RatioTriple(1, 0, 0))
        assert np.all(gmap == FINE)

    def test_sort_and_slice_with_tie(self):
        entropy = np.array([[3.1, 0.2], [2.0, 0.2]])
        gmap = plan_granularity(entropy, RatioTriple(0.25, 0.25, 0.5)).ravel()
        assert gmap[1] == COARSE and gmap[3] == COARSE  # tie -> raster order
        assert gmap[2] == MEDIUM
        assert gmap[0] == FINE

    def test_label_counts_round_half_up(self):
        rng = np.random.default_rng(0)
        for n_side, ratios in [(3, (0.3, 0.3, 0.4)), (5, (0.1, 0.42, 0.48)),
                               (7, (0.65, 0.15, 0.2)), (4, (0.9, 0.05, 0.05))]:
            entropy = rng.random((n_side, n_side))
            n = n_side * n_side
            counts = label_counts(plan_granularity(entropy, RatioTriple(*ratios)))
            assert counts[COARSE] == int(np.floor(ratios[2] * n + 0.5))
            assert counts[MEDIUM] == int(np.floor(ratios[1] * n + 0.5))
            assert counts[FINE] == n - counts[COARSE] - counts[MEDIUM]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        entropy = rng.random((6, 8))
        ratios = RatioTriple(0.4, 0.3, 0.3)
        base = plan_granularity(entropy, ratios)
        assert np.array_equal(base, plan_granularity(entropy * 7 + 2, ratios))
        assert np.array_equal(base, plan_granularity(np.exp(entropy), ratios))


class TestMasks:
    def test_single_coarse_block(self):
        fine, medium, coarse = masks_from_map(np.array([[COARSE]]))
        assert coarse.tolist() == [[True]]
        assert not fine.any() and not medium.any()

    def test_single_fine_block(self):
        fine, _, _ = masks_from_map(np.array([[FINE]]))
        assert fine.shape == (4, 4) and fine.all()

    def test_disjoint_cover_exhaustive_2x2(self):
        # all 81 label assignments of a 2x2 map, all-fine and all-coarse too;
        # each mask keeps the cells its label's blocks send (`decode_streams`
        # reads each stream's length off the label counts)
        for labels in itertools.product((FINE, MEDIUM, COARSE), repeat=4):
            gmap = np.array(labels).reshape(2, 2)
            masks = masks_from_map(gmap)
            assert np.all(cover_sum(masks) == 1)
            assert (label_counts(gmap) * INDICES_PER_BLOCK).tolist() == \
                [np.count_nonzero(mask) for mask in masks]

    def test_blockwise_constant(self):
        rng = np.random.default_rng(2)
        gmap = rng.integers(0, 3, size=(3, 5))
        masks = masks_from_map(gmap)
        assert (label_counts(gmap) * INDICES_PER_BLOCK).tolist() == \
            [np.count_nonzero(mask) for mask in masks]
        fine = masks[0]
        for by in range(3):
            for bx in range(5):
                assert fine[by * 4:by * 4 + 4, bx * 4:bx * 4 + 4].min() \
                    == fine[by * 4:by * 4 + 4, bx * 4:bx * 4 + 4].max()

    @pytest.mark.parametrize("label, dtype", [(255, np.uint8), (1.5, np.float64)])
    def test_other_label_rejected(self, label, dtype):
        # any value but the three, not only one outside their range
        gmap = np.array([[FINE, label, COARSE]], dtype=dtype)
        with pytest.raises(ValueError, match=f"^granularity map label {label} is not "):
            masks_from_map(gmap)


class TestRateModel:
    @pytest.mark.parametrize("ratios,expected", [
        ((0.0, 0.23, 0.77), 0.070),
        ((0.37, 0.46, 0.17), 0.330),
        ((0.90, 0.10, 0.0), 0.616),
    ])
    def test_published_rows(self, ratios, expected):
        # published values carry 3 decimals; allow their half-ulp on top
        bpp = theoretical_bpp(RatioTriple(*ratios), L_REFERENCE)
        assert abs(bpp - expected) <= 0.001 + 0.0005

    def test_closed_form(self):
        r = RatioTriple(0.25, 0.5, 0.25)
        expected = L_REFERENCE / 256 * (16 * 0.25 + 4 * 0.5 + 0.25) + (4 * 0.25 + 0.5) / 256
        assert theoretical_bpp(r, L_REFERENCE) == pytest.approx(expected, rel=1e-12)

    def test_increasing_in_r1(self):
        r3 = 0.2
        prev = -1.0
        for r1 in np.linspace(0, 0.8, 9):
            bpp = theoretical_bpp(RatioTriple(r1, 1 - r1 - r3, r3), L_REFERENCE)
            assert bpp > prev
            prev = bpp


def reference_rows(mean_code_len, step):
    """The rate table as a plain loop over the simplex lattice at the given
    step, in lattice order (r1, then r2, ascending)."""
    n = round(1.0 / step)
    rows = [RatioTriple(i / n, j / n, (n - i - j) / n) for i in range(n + 1)
            for j in range(n + 1 - i)]
    return [(r, theoretical_bpp(r, mean_code_len)) for r in rows]


def by_bpp(bpp):
    """A bpp column's rows, (n, 3) ratios and (n,) bpp, sorted stably by bpp
    as `rate-table` prints them; the rows left out (+inf) are dropped."""
    order = np.argsort(bpp, kind="stable")
    order = order[np.isfinite(bpp[order])]
    return LATTICE[order], bpp[order]


def on_lattice(bpp, step):
    """The bpp column with +inf on the rows off the coarser lattice of the
    given step (a divisor of 1/100): the rate table of that lattice."""
    every = round(100 * step)
    keep = np.all(np.rint(LATTICE * 100).astype(int) % every == 0, axis=1)
    return np.where(keep, bpp, np.inf)


def partial_table(rows):
    """A bpp column holding the given {ratio triple: bpp} rows, +inf elsewhere."""
    bpp = np.full(len(LATTICE), np.inf)
    for triple, value in rows.items():
        (at,) = np.flatnonzero(np.all(LATTICE == triple, axis=1))
        bpp[at] = value
    return bpp


def reference_lookup(rows, target_bpp):
    """Closest bpp, then larger r1, then the first row: a linear scan over
    (ratios, bpp) rows."""
    ratios, bpp = rows
    best = min(range(len(bpp)),
               key=lambda i: (abs(float(bpp[i]) - target_bpp), -float(ratios[i, 0])))
    return RatioTriple(*ratios[best].tolist())


def sorted_lookup(rows, target_bpp):
    """The lookup's rule over (ratios, bpp) rows in their own order, by
    array operations: the oracle for a whole table of targets."""
    ratios, bpp = rows
    gap = np.abs(bpp - target_bpp)
    closest = np.flatnonzero(gap == gap.min())
    return RatioTriple(*ratios[closest[np.argmax(ratios[closest, 0])]].tolist())


class TestRateTable:
    def test_extreme_rows(self):
        table = build_rate_table(L_REFERENCE)
        lo_ratio, lo_bpp = LATTICE[0], table[0]
        hi_ratio, hi_bpp = LATTICE[-1], table[-1]
        assert tuple(lo_ratio) == (0, 0, 1)
        assert lo_bpp == pytest.approx(L_REFERENCE / 256)
        assert tuple(hi_ratio) == (1, 0, 0)
        assert hi_bpp == pytest.approx((16 * L_REFERENCE + 4) / 256)

    def test_sorted_ascending(self):
        # sorted stably, the bpp ascends; in lattice order it rises strictly
        # with r2 at each r1, which the lookup's tie rule relies on
        table = build_rate_table(L_REFERENCE)
        bpps = list(by_bpp(table)[1])
        assert bpps == sorted(bpps)
        for r1 in np.unique(LATTICE[:, 0]):
            assert np.all(np.diff(table[LATTICE[:, 0] == r1]) > 0)

    def test_shares_the_read_only_lattice(self):
        # one bpp per lattice row, and no table can edit the shared rows
        for table in build_rate_table(L_REFERENCE), build_rate_table(6.5):
            assert table.shape == (len(LATTICE),) and table.dtype == np.float64
        assert LATTICE.shape == (5151, 3) and not LATTICE.flags.writeable

    @pytest.mark.parametrize("mean_code_len", [1.0, 6.5, L_REFERENCE, 13.0])
    @pytest.mark.parametrize("step", [0.5, 0.25, 0.1, 0.05, 0.02, 0.01])
    def test_matches_reference_loop(self, mean_code_len, step):
        # step 0.01 is the whole table; a coarser step checks its sub-lattice.
        # The rows match in lattice order and, sorted stably, in bpp order:
        # each bpp is theoretical_bpp's at that row, bit for bit.
        table = on_lattice(build_rate_table(mean_code_len), step)
        kept = np.isfinite(table)
        rows = reference_rows(mean_code_len, step)
        for (ratios, bpp), rows in [((LATTICE[kept], table[kept]), rows),
                                    (by_bpp(table), sorted(rows, key=lambda row: row[1]))]:
            assert [tuple(r) for r in ratios.tolist()] == [r.as_tuple() for r, _ in rows]
            assert bpp.tolist() == [b for _, b in rows]

    @pytest.mark.parametrize("mean_code_len", [0.0, -1.0])
    def test_nonpositive_mean_code_length_rejected(self, mean_code_len):
        with pytest.raises(ValueError, match="positive"):
            build_rate_table(mean_code_len)
        with pytest.raises(ValueError, match="positive"):
            theoretical_bpp(RatioTriple(0.2, 0.3, 0.5), mean_code_len)


class TestTargetLookup:
    def test_exact_value(self):
        table = build_rate_table(L_REFERENCE)
        r, bpp = LATTICE[17], table[17]
        assert ratios_for_target(table, bpp).as_tuple() == tuple(r)

    def test_published_partial_table_lookup(self):
        # against the five published rows, 0.187 selects the second one
        triples = [(0, 0.23, 0.77), (0.10, 0.67, 0.23), (0.37, 0.46, 0.17),
                   (0.61, 0.30, 0.09), (0.90, 0.10, 0)]
        table = partial_table({t: theoretical_bpp(RatioTriple(*t), L_REFERENCE)
                               for t in triples})
        assert ratios_for_target(table, 0.187).as_tuple() == (0.10, 0.67, 0.23)

    def test_below_minimum_clamps_to_coarse(self):
        table = build_rate_table(L_REFERENCE)
        assert ratios_for_target(table, 0.0).as_tuple() == (0, 0, 1)

    def test_tie_prefers_fine(self):
        table = partial_table({(0.0, 0.0, 1.0): 0.25, (0.5, 0.5, 0.0): 0.75})
        assert ratios_for_target(table, 0.5).r1 == 0.5  # exact tie

    @pytest.mark.parametrize("step", [0.25, 0.1, 0.05, 0.01])
    def test_matches_linear_scan(self, step):
        # targets and the scan in stable-bpp order, as `rate-table` prints the table
        rng = np.random.default_rng(12)
        for mean_code_len in (2.0, L_REFERENCE, 12.75):
            table = on_lattice(build_rate_table(mean_code_len), step)
            oracle = by_bpp(table)
            bpp = oracle[1]
            rows = rng.choice(bpp.size - 1, size=min(bpp.size - 1, 60), replace=False)
            targets = np.concatenate([
                bpp[rows],  # exact row values
                (bpp[rows] + bpp[rows + 1]) / 2,  # midpoints: two rows equally close
                rng.uniform(bpp[0] - 0.05, bpp[-1] + 0.05, size=60),
                [-1.0, 0.0, bpp[-1] + 1.0],
            ])
            for t in targets.tolist():
                assert ratios_for_target(table, t) == reference_lookup(oracle, t), t

    @pytest.mark.parametrize("mean_code_len", np.linspace(1.0, 16.0, 6).tolist())
    def test_lattice_order_picks_the_sorted_tables_row(self, mean_code_len):
        # for every row value and every midpoint of rows adjacent in bpp, the
        # lattice-order table gives the row of the stably sorted one (the oracle)
        table = build_rate_table(mean_code_len)
        oracle = by_bpp(table)
        bpp = oracle[1]
        for t in np.concatenate([bpp, (bpp[:-1] + bpp[1:]) / 2]).tolist():
            assert ratios_for_target(table, t) == sorted_lookup(oracle, t), t

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_nan_target_rejected(self, target):
        # at -inf every row is infinitely far, and the tie rule would pick (1, 0, 0)
        with pytest.raises(ValueError, match="finite"):
            ratios_for_target(build_rate_table(L_REFERENCE), target)
