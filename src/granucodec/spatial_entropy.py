"""Non-parametric per-block spatial entropy.

Each pixel value is soft-assigned to 32 bins spanning [-1, 1] with an
unnormalized Gaussian kernel; bin masses are averaged over a patch (all
three channels pooled into one sample set), normalized, and the Shannon
entropy in bits is taken. High entropy marks information-dense blocks.

`entropy_map` works one block row at a time. It counts each block's bytes
with one `np.bincount` over (block, byte) keys and multiplies the counts by
a (256, n_bins) table of level-to-bin affinities. A key is the block column
* 256 plus the byte, an integer: the block part is set once per call, and
each row copies its bytes into the keys' low byte. Every affinity is
rounded to a whole number of 2**-43 units, so a block's mass is an exact
integer count of units whatever order it is summed in: blocks holding the
same samples in any order, on any BLAS kernel, get bit-identical entropies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .imaging import BLOCK, ImagePlane, normalize

#: Block masses are counted in units of 2**-_MASS_EXP (see `_unit_table`).
_MASS_EXP = 43


@dataclass(frozen=True)
class EntropyConfig:
    n_bins: int = 32

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")


def _affinity(values: np.ndarray, cfg: EntropyConfig) -> np.ndarray:
    """Unnormalized Gaussian affinity of each value to every bin center,
    on a new trailing bin axis: the centers span [-1, 1] evenly and sigma
    is one bin spacing."""
    n = cfg.n_bins
    centers = -1.0 + 2.0 * np.arange(n, dtype=np.float64) / (n - 1)
    sigma = 2.0 / (n - 1)
    return np.exp(-np.square(values[..., None] - centers) / (2.0 * sigma * sigma))


@functools.lru_cache(maxsize=4)
def _unit_table(cfg: EntropyConfig) -> np.ndarray:
    """The (256, n_bins) affinity of each byte's sample to every bin, in whole
    units of 2**-_MASS_EXP, built once per config and read-only. Every sum of
    a block's (at most 768) unit masses is an integer below 2**53, so it is
    exact in float64 whatever order a BLAS kernel adds it in."""
    levels = normalize(np.arange(256, dtype=np.uint8)).astype(np.float64)
    table = np.rint(np.ldexp(_affinity(levels, cfg), _MASS_EXP))
    table.flags.writeable = False
    return table


def _mass_entropy(mass: np.ndarray) -> np.ndarray:
    """Entropy (bits) of the bin masses along the last axis."""
    dist = mass / mass.sum(axis=-1, keepdims=True)
    terms = dist * np.log2(dist, out=np.zeros_like(dist), where=dist > 0)  # 0*log0 := 0
    return -terms.sum(axis=-1)


def entropy_map(img: ImagePlane, cfg: EntropyConfig = EntropyConfig()) -> np.ndarray:
    """One entropy value per non-overlapping block, raster order (by, bx)."""
    b = BLOCK
    h, w, c = img.pixels.shape
    by, bx = h // b, w // b
    table = _unit_table(cfg)  # (256, n_bins)
    # one block row's keys, reused for every row; `low` views their low bytes
    keys = np.empty((b, w * c), dtype=np.intp)
    keys[:] = np.arange(w * c) // (b * c) << 8
    size = keys.itemsize
    low = keys.view(np.uint8)[:, 0 if np.little_endian else size - 1::size]
    mass = np.empty((by, bx, cfg.n_bins), dtype=np.float64)
    for row in range(by):  # one block row at a time keeps the keys in cache
        np.copyto(low, img.pixels[row * b:(row + 1) * b].reshape(b, w * c))
        counts = np.bincount(keys.ravel(), minlength=bx * 256)
        mass[row] = counts.reshape(bx, 256).astype(np.float64) @ table
    return _mass_entropy(mass)  # normalizing makes the unit and the count cancel
