"""Codebook storage, nearest-neighbor quantization, k-means training and
index usage statistics.

Quantization picks the code minimizing squared Euclidean distance, ties to
the lowest index, so streams are bit-reproducible. The frequency table
counts how often each index is emitted over a corpus; add-one smoothing at
finalization keeps every symbol codeable.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .granularity import MaskSet

CODEBOOK_MAGIC = b"CGCB"
CODEBOOK_VERSION = 1
MAX_K = 0xFFFF  # the file stores k (and d) as uint16

_DIST_BLOCK_BYTES = 2 << 20  # size of one block of cell-to-code distances


class CodebookError(Exception):
    """Malformed codebook file or mismatched dimensions."""


def _codes_hash(codes: np.ndarray) -> int:
    digest = hashlib.sha256(np.ascontiguousarray(codes, dtype=np.float32).tobytes())
    return struct.unpack("<Q", digest.digest()[:8])[0]


@dataclass(frozen=True)
class Codebook:
    codes: np.ndarray  # (k, d) float32

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes, dtype=np.float32)
        if codes.ndim != 2 or codes.shape[0] < 1:
            raise CodebookError(f"bad codebook shape {codes.shape}")
        if not np.all(np.isfinite(codes)):
            raise CodebookError("codebook contains non-finite values")
        object.__setattr__(self, "codes", codes)

    @property
    def k(self) -> int:
        return self.codes.shape[0]

    @property
    def d(self) -> int:
        return self.codes.shape[1]

    @property
    def id_hash(self) -> int:
        return _codes_hash(self.codes)


@dataclass
class FrequencyTable:
    counts: np.ndarray  # (k,) uint64
    smoothed: bool = False

    @classmethod
    def zeros(cls, k: int) -> "FrequencyTable":
        return cls(np.zeros(k, dtype=np.uint64))

    @property
    def k(self) -> int:
        return self.counts.shape[0]


def quantize(grid: np.ndarray, cb: Codebook) -> np.ndarray:
    """Nearest-code index per cell, shaped like the grid without its last axis."""
    grid = np.asarray(grid)
    if grid.shape[-1] != cb.d:
        raise CodebookError(f"cell dim {grid.shape[-1]} != codebook dim {cb.d}")
    cells = grid.reshape(-1, cb.d).astype(np.float64)
    idx, _ = _assign(cells, cb.codes.astype(np.float64))  # argmin ties -> lowest
    return idx.reshape(grid.shape[:-1])


def quantize_masked(grids, masks: MaskSet, cb: Codebook) -> list[np.ndarray]:
    """int32 index streams of the cells each scale's mask keeps, raster
    order: fine, medium, coarse."""
    return [quantize(grid[mask.astype(bool)], cb)
            for grid, mask in zip(grids, (masks.m1, masks.m2, masks.m3))]


def lookup(idx: np.ndarray, cb: Codebook) -> np.ndarray:
    """Replace each index with its code vector."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= cb.k):
        raise CodebookError("index out of codebook range")
    return cb.codes[idx]


def train_codebook(corpus: np.ndarray, k: int, iters: int = 25, seed: int = 0) -> Codebook:
    """Seeded k-means++ followed by a fixed number of Lloyd iterations.

    Empty clusters are re-seeded from the point currently farthest from its
    assigned center, so all k codes stay live.
    """
    corpus = np.ascontiguousarray(corpus, dtype=np.float64)
    if corpus.ndim != 2:
        raise ValueError("corpus must be (n, d)")
    n = corpus.shape[0]
    if n < k:
        raise ValueError(f"corpus size {n} smaller than k={k}")
    rng = np.random.default_rng(seed)

    # k-means++ init
    centers = np.empty((k, corpus.shape[1]), dtype=np.float64)
    centers[0] = corpus[rng.integers(n)]
    d2 = ((corpus - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = corpus[rng.integers(n)]
        else:
            centers[i] = corpus[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((corpus - centers[i]) ** 2).sum(axis=1))

    for _ in range(iters):
        _update_centers(corpus, *_assign(corpus, centers), centers)
    return Codebook(centers.astype(np.float32))


def _update_centers(corpus: np.ndarray, assign: np.ndarray, d2: np.ndarray,
                    centers: np.ndarray) -> None:
    """One Lloyd update, in place: each center moves to the mean of its
    members; empty clusters, in ascending order, each take the point then
    farthest from its center, whose distance is then zeroed."""
    k = centers.shape[0]
    sizes = np.bincount(assign, minlength=k)
    live = sizes > 0
    for j in range(corpus.shape[1]):  # sums in corpus order, as mean() adds them
        sums = np.bincount(assign, weights=corpus[:, j], minlength=k)
        centers[live, j] = sums[live] / sizes[live]
    for i in np.flatnonzero(~live):
        far = int(d2.argmax())
        centers[i] = corpus[far]
        d2[far] = 0.0


def _assign(points: np.ndarray, centers: np.ndarray):
    assign = np.empty(points.shape[0], dtype=np.int32)
    best = np.empty(points.shape[0], dtype=np.float64)
    c2 = (centers ** 2).sum(axis=1)
    step = max(1, _DIST_BLOCK_BYTES // c2.nbytes)  # cells per distance block
    for start in range(0, points.shape[0], step):
        chunk = points[start:start + step]
        # x^2 - 2x.c + c^2, evaluated in the GEMM's own output
        dists = 2.0 * chunk @ centers.T
        np.subtract((chunk ** 2).sum(axis=1)[:, None], dists, out=dists)
        dists += c2
        near = assign[start:start + step] = dists.argmin(axis=1)
        best[start:start + step] = np.take_along_axis(dists, near[:, None], 1)[:, 0]
    return assign, np.maximum(best, 0.0)


def kmeans_distortion(corpus: np.ndarray, cb: Codebook) -> float:
    _, d2 = _assign(np.asarray(corpus, dtype=np.float64), cb.codes.astype(np.float64))
    return float(d2.sum())


def accumulate_frequencies(idx: np.ndarray, tbl: FrequencyTable) -> FrequencyTable:
    """Count each emitted index once. In-place; returns tbl for chaining."""
    if tbl.smoothed:
        raise ValueError("frequency table already finalized")
    flat = np.asarray(idx).ravel()
    if flat.size:
        tbl.counts += np.bincount(flat, minlength=tbl.k).astype(np.uint64)
    return tbl


def finalize_frequencies(tbl: FrequencyTable) -> FrequencyTable:
    """Apply add-one smoothing and mark the table finalized."""
    if not tbl.smoothed:
        tbl.counts = tbl.counts + np.uint64(1)
        tbl.smoothed = True
    return tbl


def save_codebook(cb: Codebook, tbl: FrequencyTable, path) -> None:
    """Write the CGCB container: codes, frequency counts, content hash."""
    if tbl.k != cb.k:
        raise CodebookError("frequency table size does not match codebook")
    if cb.k > MAX_K or cb.d > MAX_K:
        raise CodebookError(f"k={cb.k}, d={cb.d}: the format stores each in 16 bits "
                            f"(at most {MAX_K})")
    with open(path, "wb") as f:
        f.write(CODEBOOK_MAGIC)
        f.write(struct.pack("<BHH", CODEBOOK_VERSION, cb.k, cb.d))
        f.write(cb.codes.astype("<f4").tobytes())
        f.write(tbl.counts.astype("<u8").tobytes())
        f.write(struct.pack("<Q", cb.id_hash))


def load_codebook(path) -> tuple[Codebook, FrequencyTable]:
    with open(path, "rb") as f:
        data = f.read()
    off = 4 + 5  # magic, then version, k and d
    if data[:4] != CODEBOOK_MAGIC:
        raise CodebookError(f"{path}: not a codebook file")
    if len(data) < off:
        raise CodebookError(f"{path}: truncated header ({len(data)} bytes)")
    version, k, d = struct.unpack_from("<BHH", data, 4)
    if version != CODEBOOK_VERSION:
        raise CodebookError(f"{path}: unsupported version {version}")
    need = off + 4 * k * d + 8 * k + 8
    if len(data) != need:
        raise CodebookError(f"{path}: expected {need} bytes, got {len(data)}")
    codes = np.frombuffer(data, dtype="<f4", count=k * d, offset=off).reshape(k, d)
    off += 4 * k * d
    counts = np.frombuffer(data, dtype="<u8", count=k, offset=off).copy()
    off += 8 * k
    (stored_hash,) = struct.unpack_from("<Q", data, off)
    cb = Codebook(codes.copy())
    if cb.id_hash != stored_hash:
        raise CodebookError(f"{path}: content hash mismatch")
    return cb, FrequencyTable(counts, smoothed=True)
