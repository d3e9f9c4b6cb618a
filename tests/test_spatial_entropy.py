import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from granucodec import granularity, imaging, spatial_entropy
from granucodec.spatial_entropy import EntropyConfig, entropy_map

from conftest import make_image, make_raw, patch_entropy


def bin_affinity(pixel_value: float, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """Unnormalized Gaussian affinity of one value to every bin center."""
    return spatial_entropy._affinity(np.asarray(pixel_value, dtype=np.float64), cfg)


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

    def test_normalization_sums_to_one(self):
        cfg = EntropyConfig()
        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 1, size=30)
        mass = np.mean([bin_affinity(v, cfg) for v in values], axis=0)
        dist = mass / mass.sum()
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def block_entropies(samples):
    """patch_entropy of each 16x16 block of a padded (H, W, C) plane."""
    by, bx = samples.shape[0] // 16, samples.shape[1] // 16
    return np.array([[patch_entropy(samples[y * 16:(y + 1) * 16, x * 16:(x + 1) * 16])
                      for x in range(bx)] for y in range(by)])


class TestEntropyMap:
    def test_uniform_image_all_equal(self):
        img = imaging.from_raw(np.full((32, 48, 3), 77, dtype=np.uint8))
        emap = entropy_map(img)
        assert emap.shape == (2, 3)
        assert np.allclose(emap, emap[0, 0], atol=1e-12)

    def test_permuted_blocks_exactly_equal(self):
        # a seed whose two orders differ in the last bits under patch_entropy
        rng = np.random.default_rng(13)
        block = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        shuffled = rng.permutation(block.ravel()).reshape(block.shape)
        img = imaging.from_raw(np.concatenate([block, shuffled], axis=1))
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
    def test_histogram_path_matches_row_path(self, kind):
        # the byte counts match per-block patch_entropy of the samples
        img = make_image(kind, 200, 136, seed=11)  # padded to 208 x 144
        emap = entropy_map(img)
        oracle = block_entropies(img.samples)
        assert emap.shape == oracle.shape
        assert np.abs(emap - oracle).max() <= 1e-12
        assert np.array_equal(np.argsort(emap, axis=None, kind="stable"),
                              np.argsort(oracle, axis=None, kind="stable"))

    def test_matches_patch_entropy(self):
        img = make_image("waves", 32, 32, seed=9)
        emap = entropy_map(img)
        for by in range(2):
            for bx in range(2):
                patch = img.samples[by * 16:(by + 1) * 16, bx * 16:(bx + 1) * 16]
                assert emap[by, bx] == pytest.approx(patch_entropy(patch), abs=1e-9)


UNIT_TABLE_SHA256 = "f6584f48f4aff45ae9393b364e2c5d4adb25176c0f4fa33676ff35ce351e7743"
#: The sample of each byte, from the float64 formula b / 255 * 2 - 1.
LEVELS = (np.arange(256, dtype=np.float64) / 255.0 * 2.0 - 1.0).astype(np.float32)


def denormalize_keyed_map(samples):
    """entropy_map with each sample's byte found by imaging.denormalize (a
    float64 scale, rint and clip), as it was before entropy_map read the
    bytes; the rest, masses in 2**-43 units included, is entropy_map's own
    arithmetic. Samples on the 8-bit levels only."""
    b, cfg = 16, EntropyConfig()
    h, w, c = samples.shape
    by, bx = h // b, w // b
    affinity = spatial_entropy._affinity(LEVELS.astype(np.float64), cfg)
    table = np.rint(np.ldexp(affinity, spatial_entropy._MASS_EXP))  # whole 2**-43 units
    block_key = (np.arange(w) // b << 8)[:, None]
    mass = np.zeros((by, bx, cfg.n_bins))
    for row in range(by):
        band = samples[row * b:(row + 1) * b]
        codes = imaging.denormalize(band)
        assert np.array_equal(LEVELS[codes], band)
        counts = np.bincount((block_key | codes).ravel(), minlength=bx * 256)
        mass[row] = counts.reshape(bx, 256).astype(np.float64) @ table
    return spatial_entropy._mass_entropy(mass)


@pytest.fixture
def affinity_calls(monkeypatch):
    """The size of each value array `_affinity` is called with during the
    test, from an empty unit-table cache."""
    evaluated, affinity = [], spatial_entropy._affinity

    def counted(values, cfg):
        evaluated.append(np.size(values))
        return affinity(values, cfg)
    monkeypatch.setattr(spatial_entropy, "_affinity", counted)
    spatial_entropy._unit_table.cache_clear()
    yield evaluated
    spatial_entropy._unit_table.cache_clear()  # no table built by `counted` outlives the test


class TestLevelStep:
    def test_every_level_gives_back_its_byte(self):
        assert imaging.normalize(np.arange(256, dtype=np.uint8)).tobytes() == LEVELS.tobytes()
        assert np.array_equal(imaging.denormalize(LEVELS), np.arange(256))

    @pytest.mark.parametrize("kind", ["noise", "gradient", "blocky", "photo", "waves"])
    def test_equals_denormalize_keys_without_the_kernel(self, kind, affinity_calls):
        # the kernel is evaluated for the level table alone
        img = make_image(kind, 200, 136, seed=11)
        emap = entropy_map(img)
        assert affinity_calls == [256]  # the level table alone
        assert emap.tobytes() == denormalize_keyed_map(img.samples).tobytes()

    def test_unit_table_built_once_per_config(self, affinity_calls):
        img = make_image("photo", 32, 32, seed=3)
        maps = [entropy_map(img) for _ in range(3)]
        assert affinity_calls == [256]
        assert all(m.tobytes() == maps[0].tobytes() for m in maps)
        entropy_map(img, EntropyConfig(n_bins=16))
        assert affinity_calls == [256, 256]  # a new config, a new table
        table = spatial_entropy._unit_table(EntropyConfig())
        assert table is spatial_entropy._unit_table(EntropyConfig())
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_unit_table_bytes_pinned(self):
        # every block mass, and so every plan, follows from these bytes; a
        # rewrite of the byte levels or of the kernel's exp must keep them.
        # Taken with numpy 2.4.6, equal with its AVX-512 loops on and off
        table = spatial_entropy._unit_table(EntropyConfig())
        assert hashlib.sha256(table.tobytes()).hexdigest() == UNIT_TABLE_SHA256


def repeated_tile_plans(seeds=(0, 1, 2), h=256, w=1008) -> str:
    """Plan bytes, as hex, of photos whose blocks are 60% permuted copies of
    one 16x16 tile, at ratios 0.3/0.3/0.4. The copies tie in entropy, so the
    plan ranks them by raster order only if every copy gets the same value."""
    plans = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        raw = make_raw("photo", h, w, seed)
        tile = raw[:16, :16].reshape(-1)
        ny, nx = h // 16, w // 16
        for blk in rng.permutation(ny * nx)[:int(0.6 * ny * nx)]:
            y, x = divmod(int(blk), nx)
            raw[y * 16:(y + 1) * 16, x * 16:(x + 1) * 16] = \
                rng.permutation(tile).reshape(16, 16, 3)
        emap = entropy_map(imaging.from_raw(raw))
        plans.append(granularity.plan_granularity(
            emap, granularity.RatioTriple(0.3, 0.3, 0.4)).tobytes().hex())
    return "\n".join(plans)


@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_plans_do_not_depend_on_the_blas_kernel(core):
    # a DYNAMIC_ARCH OpenBLAS picks its matmul kernel from OPENBLAS_CORETYPE
    # at load time, so each kernel needs a process of its own
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", "from test_spatial_entropy import repeated_tile_plans; "
                               "print(repeated_tile_plans(), end='')"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": core})
    assert res.returncode == 0, res.stderr
    assert res.stdout == repeated_tile_plans()
