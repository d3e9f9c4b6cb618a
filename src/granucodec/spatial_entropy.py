"""Non-parametric per-block spatial entropy.

Each pixel value is soft-assigned to 32 bins spanning [-1, 1] with an
unnormalized Gaussian kernel; bin masses are averaged over a patch (all
three channels pooled into one sample set), normalized, and the Shannon
entropy in bits is taken. High entropy marks information-dense blocks.

`entropy_map` works one block row at a time. Samples on the 256 levels of
`imaging.normalize` (all of a plane read through `imaging.from_raw`) are
counted per block with one `np.bincount` over (block, byte) keys, and the
counts are multiplied by a (256, n_bins) table of level-to-bin affinities.
A sample s's byte is trunc(s * 127.5 + 127.5) in float32, clamped to
[0, 255]; for each of the 256 levels this is exactly its own byte. A sample
that is not `normalize` of its byte is off the levels. The clamp is needed:
unclamped, -7.0 would get byte -765, 3.0 byte 510 and inf byte inf, and each
gives its sample back, so it would pass for a level. A key is the block
column * 256 plus the byte, summed as integers: the block part is set once
per call, and each row writes its bytes into the keys' low byte. (A float32
key sum would be exact only up to 2**24, which would cap the padded width
at 1,048,576 px.) A block row holding off samples also evaluates the kernel
per sample, and adds the masses of the off samples alone. Every affinity is
rounded to a whole number of 2**-43 units, so a block's mass is an exact
integer count of units whatever order it is summed in: blocks holding the
same samples in any order, on any BLAS kernel, get bit-identical entropies.
`patch_entropy` evaluates the kernel for every sample, unrounded; it is the
oracle the tests hold `entropy_map` to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import BLOCK, HALF_RANGE, ImagePlane, normalize

#: Block masses are counted in units of 2**-_MASS_EXP (see `_units`).
_MASS_EXP = 43


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


def _units(affinity: np.ndarray) -> np.ndarray:
    """Affinities in whole units of 2**-_MASS_EXP, in place. Every sum of a
    block's (at most 768) unit masses is an integer below 2**53, so it is
    exact in float64 whatever order a BLAS kernel adds it in."""
    np.ldexp(affinity, _MASS_EXP, out=affinity)
    return np.rint(affinity, out=affinity)


def _mass_entropy(mass: np.ndarray) -> np.ndarray:
    """Entropy (bits) of the bin masses along the last axis."""
    dist = mass / mass.sum(axis=-1, keepdims=True)
    terms = dist * np.log2(dist, out=np.zeros_like(dist), where=dist > 0)  # 0*log0 := 0
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
    lattice = normalize(np.arange(256, dtype=np.uint8)).astype(np.float64)
    table = _units(_affinity(lattice, cfg))  # (256, n_bins)
    spare = bx * 256  # the bin off-lattice samples are counted in, then dropped
    # one block row's buffers, reused for every row. Each key holds its block
    # column * 256, set once; a row writes its bytes into the low byte of
    # each key through `low` (from a contiguous uint8 copy, which measured
    # faster than casting the float codes into the strided view)
    keys = np.empty((b, w * c), dtype=np.intp)
    keys[:] = np.arange(w * c) // (b * c) << 8
    size = keys.itemsize
    low = keys.view(np.uint8)[:, 0 if np.little_endian else size - 1::size]
    codes = np.empty((b, w * c), dtype=np.float32)
    bytes_ = np.empty((b, w * c), dtype=np.uint8)
    levels = np.empty((b, w * c), dtype=np.float32)
    off = np.empty((b, w * c), dtype=bool)
    mass = np.zeros((by, bx, cfg.n_bins), dtype=np.float64)
    # the scale may overflow to +-inf; NaN stays NaN and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(by):  # one block row at a time keeps the keys in cache
            band = img.samples[row * b:(row + 1) * b].reshape(b, w * c)
            # codes = the clamped byte of each sample, in float32
            np.multiply(band, HALF_RANGE, out=codes)
            codes += HALF_RANGE
            np.trunc(codes, out=codes)
            np.clip(codes, 0, 255, out=codes)
            np.copyto(bytes_, codes, casting="unsafe")
            np.copyto(low, bytes_)
            np.not_equal(normalize(codes, out=levels), band, out=off)
            row_keys = keys
            if off.any():
                if not np.isfinite(band).all():
                    raise ValueError("image holds non-finite samples")
                row_keys = np.where(off, spare, keys)
                # lattice samples, counted below, move to +inf, where the kernel is 0
                spread = np.where(off, band.astype(np.float64), np.inf)
                # (bx, b*b*c): each row is one patch's pooled sample set
                patches = spread.reshape(b, bx, -1).transpose(1, 0, 2).reshape(bx, -1)
                mass[row] = _units(_affinity(patches, cfg)).sum(axis=1)
            counts = np.bincount(row_keys.ravel(), minlength=spare + 1)[:spare]
            mass[row] += counts.reshape(bx, 256).astype(np.float64) @ table
    return _mass_entropy(mass)  # normalizing makes the unit and the count cancel
