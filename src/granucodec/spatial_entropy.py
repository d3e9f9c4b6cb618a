"""Non-parametric per-block spatial entropy.

Each pixel value is soft-assigned to 32 bins spanning [-1, 1] with an
unnormalized Gaussian kernel; bin masses are averaged over a patch (all
three channels pooled into one sample set), normalized, and the Shannon
entropy in bits is taken. High entropy marks information-dense blocks.

`entropy_map` has two paths that compute the same masses, chosen from the
samples alone:

- Histogram path. A plane read through `imaging.from_raw` holds only the
  256 `normalize()` levels. When `levels[denormalize(samples)] == samples`
  holds exactly for every sample, each block's bin mass is its 256-level
  histogram (one `np.bincount` over (block, level) keys per block row) times
  a (256, n_bins) table of level-to-bin affinities, so `exp` runs
  256 * n_bins times per call instead of once per sample per bin. Blocks
  holding the same samples in any order get bit-identical entropies.
- Exact path. Any other plane (a decoded image, or samples off the 8-bit
  lattice) evaluates the kernel for every sample, one block row at a time.
  The paths agree to a few ulps: they differ only in summation order.

`patch_entropy` evaluates the kernel per sample like the exact path; it is
the oracle the tests hold both paths to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import BLOCK, ImagePlane, denormalize, normalize

#: The 256 sample values an 8-bit image normalizes to, indexed by byte.
_LEVELS = normalize(np.arange(256, dtype=np.uint8))


def _default_sigma(n_bins: int) -> float:
    return 2.0 / (n_bins - 1)  # one bin spacing


@dataclass(frozen=True)
class EntropyConfig:
    n_bins: int = 32
    sigma: float | None = None  # None -> bin spacing 2/(n-1)
    block: int = BLOCK

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def effective_sigma(self) -> float:
        return self.sigma if self.sigma is not None else _default_sigma(self.n_bins)

    @property
    def bin_centers(self) -> np.ndarray:
        n = self.n_bins
        return -1.0 + 2.0 * np.arange(n, dtype=np.float64) / (n - 1)


def _affinity(values: np.ndarray, cfg: EntropyConfig) -> np.ndarray:
    """Unnormalized Gaussian affinity of each value to every bin center,
    on a new trailing bin axis."""
    sigma = cfg.effective_sigma
    return np.exp(-((values[..., None] - cfg.bin_centers) ** 2) / (2.0 * sigma * sigma))


def _mass_entropy(mass: np.ndarray) -> np.ndarray:
    """Entropy (bits) of the bin masses along the last axis."""
    dist = mass / mass.sum(axis=-1, keepdims=True)
    terms = dist * np.log2(np.where(dist > 0, dist, 1.0))  # 0*log0 := 0
    return -terms.sum(axis=-1)


def _entropy_bits(samples: np.ndarray, cfg: EntropyConfig) -> np.ndarray:
    """Entropy (bits) of each sample set along the last axis of `samples`."""
    return _mass_entropy(_affinity(samples, cfg).mean(axis=-2))


def bin_affinity(pixel_value: float, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """Unnormalized Gaussian affinity of one value to every bin center."""
    return _affinity(np.asarray(pixel_value, dtype=np.float64), cfg)


def patch_entropy(patch: np.ndarray, cfg: EntropyConfig = EntropyConfig()) -> float:
    """Spatial entropy (bits) of a patch; channels pooled into one sample set."""
    values = np.asarray(patch, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty patch")
    return float(_entropy_bits(values, cfg))


def entropy_map(img: ImagePlane, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """One entropy value per non-overlapping block, raster order (by, bx).
    Raises ValueError for a plane holding NaN or infinite samples."""
    b = cfg.block
    if img.height % b or img.width % b:
        raise ValueError("image not padded to block multiples")
    mass = _histogram_mass(img.samples, cfg)
    if mass is None:
        if not np.isfinite(img.samples).all():
            raise ValueError("image holds non-finite samples")
        return _row_entropy(img.samples, cfg)
    return _mass_entropy(mass)


def _histogram_mass(samples: np.ndarray, cfg: EntropyConfig) -> np.ndarray | None:
    """(by, bx, n_bins) bin mass of each block of a padded (H, W, C) plane
    from its 8-bit level counts, or None if any sample is not exactly one of
    the 256 levels."""
    b = cfg.block
    h, w, c = samples.shape
    by, bx = h // b, w // b
    table = _affinity(_LEVELS.astype(np.float64), cfg)  # (256, n_bins)
    block_key = (np.arange(w) // b << 8)[:, None]  # (W, 1): block column * 256
    mass = np.empty((by, bx, cfg.n_bins), dtype=np.float64)
    for row in range(by):  # one block row at a time keeps the keys in cache
        band = samples[row * b:(row + 1) * b]
        with np.errstate(invalid="ignore"):  # NaN fails the test below
            codes = denormalize(band)
        if not np.array_equal(_LEVELS[codes], band):
            return None
        counts = np.bincount((block_key | codes).ravel(), minlength=bx * 256)
        mass[row] = counts.reshape(bx, 256).astype(np.float64) @ table
    return mass / (b * b * c)


def _row_entropy(samples: np.ndarray, cfg: EntropyConfig) -> np.ndarray:
    """Entropy map of any padded (H, W, C) plane, kernel evaluated per sample."""
    b = cfg.block
    h, w = samples.shape[:2]
    by, bx = h // b, w // b
    # (by, bx, b*b*channels): each row is one patch's pooled sample set
    patches = (
        samples.reshape(by, b, bx, b, -1)
        .transpose(0, 2, 1, 3, 4)
        .reshape(by, bx, -1)
        .astype(np.float64)
    )
    out = np.empty((by, bx), dtype=np.float64)
    for row in range(by):  # row-at-a-time keeps the affinity tensor small
        out[row] = _entropy_bits(patches[row], cfg)
    return out
