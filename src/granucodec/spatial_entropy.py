"""Non-parametric per-block spatial entropy.

Each pixel value is soft-assigned to 32 bins spanning [-1, 1] with an
unnormalized Gaussian kernel; bin masses are averaged over a patch (all
three channels pooled into one sample set), normalized, and the Shannon
entropy in bits is taken. High entropy marks information-dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import BLOCK, ImagePlane


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


def _entropy_bits(samples: np.ndarray, cfg: EntropyConfig) -> np.ndarray:
    """Entropy (bits) of each sample set along the last axis of `samples`."""
    mass = _affinity(samples, cfg).mean(axis=-2)
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
    return float(_entropy_bits(values, cfg))


def entropy_map(img: ImagePlane, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """One entropy value per non-overlapping block, raster order (by, bx)."""
    b = cfg.block
    h, w = img.height, img.width
    if h % b or w % b:
        raise ValueError("image not padded to block multiples")
    by, bx = h // b, w // b
    # (by, bx, b*b*channels): each row is one patch's pooled sample set
    patches = (
        img.samples.reshape(by, b, bx, b, -1)
        .transpose(0, 2, 1, 3, 4)
        .reshape(by, bx, -1)
        .astype(np.float64)
    )
    out = np.empty((by, bx), dtype=np.float64)
    for row in range(by):  # row-at-a-time keeps the affinity tensor small
        out[row] = _entropy_bits(patches[row], cfg)
    return out
