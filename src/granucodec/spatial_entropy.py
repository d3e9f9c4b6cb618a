"""Non-parametric per-block spatial entropy.

Each pixel value is soft-assigned to 32 bins spanning [-1, 1] with an
unnormalized Gaussian kernel; bin masses are averaged over a patch (all
three channels pooled into one sample set), normalized, and the Shannon
entropy in bits is taken. High entropy marks information-dense blocks.

`entropy_map` works one block row at a time. Samples on the 256 `normalize()`
levels (all of a plane read through `imaging.from_raw`) are counted per
block with one `np.bincount` over (block, level) keys, and the counts are
multiplied by a (256, n_bins) table of level-to-bin affinities, so blocks
holding the same samples in any order get bit-identical entropies. A block
row holding samples off those levels also evaluates the kernel per sample,
and adds the masses of the off samples alone. `patch_entropy` evaluates the
kernel for every sample; it is the oracle the tests hold `entropy_map` to.
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
    # exp(-(d ** 2) / (2 sigma^2)): the same operations in the same order, in
    # one buffer instead of a new temporary for each
    d = values[..., None] - cfg.bin_centers
    np.square(d, out=d)
    np.negative(d, out=d)
    d /= 2.0 * sigma * sigma
    return np.exp(d, out=d)


def _mass_entropy(mass: np.ndarray) -> np.ndarray:
    """Entropy (bits) of the bin masses along the last axis."""
    dist = mass / mass.sum(axis=-1, keepdims=True)
    terms = dist * np.log2(np.where(dist > 0, dist, 1.0))  # 0*log0 := 0
    return -terms.sum(axis=-1)


def bin_affinity(pixel_value: float, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """Unnormalized Gaussian affinity of one value to every bin center."""
    return _affinity(np.asarray(pixel_value, dtype=np.float64), cfg)


def patch_entropy(patch: np.ndarray, cfg: EntropyConfig = EntropyConfig()) -> float:
    """Spatial entropy (bits) of a patch; channels pooled into one sample set."""
    values = np.asarray(patch, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty patch")
    return float(_mass_entropy(_affinity(values, cfg).mean(axis=0)))


def entropy_map(img: ImagePlane, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """One entropy value per non-overlapping block, raster order (by, bx).
    Raises ValueError for a plane holding NaN or infinite samples."""
    b = BLOCK
    h, w, c = img.samples.shape
    if h % b or w % b:
        raise ValueError("image not padded to block multiples")
    by, bx = h // b, w // b
    table = _affinity(_LEVELS.astype(np.float64), cfg)  # (256, n_bins)
    block_key = (np.arange(w) // b << 8)[:, None]  # (W, 1): block column * 256
    spare = bx * 256  # the bin off-lattice samples are counted in, then dropped
    mass = np.zeros((by, bx, cfg.n_bins), dtype=np.float64)
    for row in range(by):  # one block row at a time keeps the keys in cache
        band = img.samples[row * b:(row + 1) * b]
        with np.errstate(invalid="ignore"):  # NaN is off the levels, checked below
            codes = denormalize(band)
        keys = block_key | codes
        off = _LEVELS[codes] != band
        if off.any():
            if not np.isfinite(band).all():
                raise ValueError("image holds non-finite samples")
            keys[off] = spare
            # lattice samples, counted below, move to +inf, where the kernel is 0
            spread = np.where(off, band.astype(np.float64), np.inf)
            # (bx, b*b*c): each row is one patch's pooled sample set
            patches = spread.reshape(b, bx, -1).transpose(1, 0, 2).reshape(bx, -1)
            mass[row] = _affinity(patches, cfg).sum(axis=1)
        counts = np.bincount(keys.ravel(), minlength=spare + 1)[:spare]
        mass[row] += counts.reshape(bx, 256).astype(np.float64) @ table
    return _mass_entropy(mass / (b * b * c))
