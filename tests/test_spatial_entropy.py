import math
import warnings

import numpy as np
import pytest

from granucodec import imaging, spatial_entropy
from granucodec.spatial_entropy import EntropyConfig, bin_affinity, entropy_map, patch_entropy

from conftest import make_image


def entropy_oracle(values, n=32, sigma=None):
    """Independent recomputation of the three formulas, kept deliberately dumb."""
    sigma = sigma if sigma is not None else 2 / (n - 1)
    bins = [-1 + 2 * k / (n - 1) for k in range(n)]
    mass = [sum(math.exp(-((v - b) ** 2) / (2 * sigma ** 2)) for v in values) / len(values)
            for b in bins]
    total = sum(mass)
    probs = [m / total for m in mass]
    return -sum(p * math.log2(p) for p in probs if p > 0)


class TestBinAffinity:
    def test_zero_distance_is_one(self):
        assert bin_affinity(-1.0)[0] == 1.0

    def test_far_bin_underflows(self):
        # distance 2 at sigma = 2/31: exponent -(31^2)/2, far below float range
        assert bin_affinity(-1.0)[31] == pytest.approx(0.0, abs=1e-200)

    def test_symmetric_under_negation(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1, 1, size=20):
            assert np.allclose(bin_affinity(v), bin_affinity(-v)[::-1], rtol=1e-12)


class TestPatchEntropy:
    def test_constant_below_noise(self):
        rng = np.random.default_rng(1)
        flat = np.zeros(256)
        noisy = rng.uniform(-1, 1, size=256)
        assert patch_entropy(flat) < patch_entropy(noisy)
        # same ordering from the oracle
        assert entropy_oracle(flat) < entropy_oracle(noisy)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            patch = rng.uniform(-1, 1, size=(4, 4, 3))
            h = patch_entropy(patch)
            assert 0.0 <= h <= math.log2(32)

    def test_two_pixel_patch_matches_oracle(self):
        values = [-1.0, -1.0 + 2 / 31]
        assert patch_entropy(np.array(values)) == pytest.approx(
            entropy_oracle(values), abs=1e-9)

    def test_random_patches_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            patch = rng.uniform(-1, 1, size=rng.integers(2, 40))
            assert patch_entropy(patch) == pytest.approx(
                entropy_oracle(list(patch)), abs=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        patch = rng.uniform(-1, 1, size=64)
        shuffled = rng.permutation(patch)
        assert patch_entropy(patch) == pytest.approx(patch_entropy(shuffled), abs=1e-12)

    def test_large_sigma_flattens(self):
        cfg = EntropyConfig(sigma=100.0)
        flat = np.full(100, -0.9)
        noisy = np.random.default_rng(5).uniform(-1, 1, 100)
        assert abs(patch_entropy(flat, cfg) - patch_entropy(noisy, cfg)) < 1e-6

    def test_normalization_sums_to_one(self):
        cfg = EntropyConfig()
        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 1, size=30)
        mass = np.mean([bin_affinity(v, cfg) for v in values], axis=0)
        dist = mass / mass.sum()
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def only_path(monkeypatch, path):
    """Make entropy_map fail unless it takes `path`: the per-block level
    histogram ("histogram") or the per-sample kernel ("row")."""
    histogram_mass = spatial_entropy._histogram_mass

    def checked(samples, cfg):
        mass = histogram_mass(samples, cfg)
        assert (mass is not None) == (path == "histogram"), f"left the {path} path"
        return mass
    monkeypatch.setattr(spatial_entropy, "_histogram_mass", checked)


class TestEntropyMap:
    def test_uniform_image_all_equal(self):
        img = imaging.from_raw(np.full((32, 48, 3), 77, dtype=np.uint8))
        emap = entropy_map(img)
        assert emap.shape == (2, 3)
        assert np.allclose(emap, emap[0, 0], atol=1e-12)

    def test_permuted_blocks_exactly_equal(self, monkeypatch):
        # a seed whose two orders differ in the last bits on the row path
        rng = np.random.default_rng(13)
        block = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        shuffled = rng.permutation(block.ravel()).reshape(block.shape)
        img = imaging.from_raw(np.concatenate([block, shuffled], axis=1))
        only_path(monkeypatch, "histogram")
        emap = entropy_map(img)
        assert emap[0, 0] == emap[0, 1]

    def test_textured_quadrant_ranks_highest(self):
        rng = np.random.default_rng(7)
        raw = np.full((64, 64, 3), 100, dtype=np.uint8)
        raw[:32, :32] = rng.integers(0, 256, size=(32, 32, 3))
        emap = entropy_map(imaging.from_raw(raw))
        textured = emap[:2, :2].ravel()
        rest = np.concatenate([emap[2:].ravel(), emap[:2, 2:].ravel()])
        assert textured.min() > rest.max()

    def test_map_shape(self):
        img = make_image("photo", 512, 768, seed=8)
        assert entropy_map(img).shape == (32, 48)

    @pytest.mark.parametrize("kind", ["noise", "gradient", "blocky", "photo", "waves"])
    def test_histogram_path_matches_row_path(self, kind, monkeypatch):
        img = make_image(kind, 200, 136, seed=11)  # padded to 208 x 144 (blocky
        # rounds its own size down to 192 x 128)
        row = spatial_entropy._row_entropy(img.samples, EntropyConfig())
        only_path(monkeypatch, "histogram")
        emap = entropy_map(img)
        assert emap.shape == row.shape
        assert np.abs(emap - row).max() <= 1e-12
        assert np.array_equal(np.argsort(emap, axis=None, kind="stable"),
                              np.argsort(row, axis=None, kind="stable"))

    def test_matches_patch_entropy(self, monkeypatch):
        lattice = make_image("waves", 32, 32, seed=9).samples
        shifted = lattice + np.float32(1e-4)  # every sample off the 8-bit levels
        one_off = lattice.copy()
        one_off[-1, -1, -1] += np.float32(1e-4)  # only the last sample
        for path, samples in [("histogram", lattice), ("row", shifted), ("row", one_off)]:
            img = imaging.ImagePlane(samples, 32, 32)
            with monkeypatch.context() as m:
                only_path(m, path)
                emap = entropy_map(img)
            for by in range(2):
                for bx in range(2):
                    patch = samples[by * 16:(by + 1) * 16, bx * 16:(bx + 1) * 16]
                    assert emap[by, bx] == pytest.approx(patch_entropy(patch), abs=1e-9)

    def test_non_finite_samples_rejected_without_warning(self):
        samples = make_image("waves", 32, 32, seed=9).samples.copy()
        for bad in (np.nan, np.inf):
            samples[5, 7, 1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    entropy_map(imaging.ImagePlane(samples, 32, 32))
