"""Codebook storage, nearest-neighbor quantization and k-means training.

Quantization picks the code minimizing squared Euclidean distance, ties to
the lowest index. Each distance is the float64 sum of (x_j - c_j)**2 added
in coordinate order, with no BLAS call, so the chosen index and its
distance are the same on every machine. The search bins the codes on a grid
over their first three coordinates and scans only the codes near each cell;
a cell it cannot settle that way goes to a scan of all k codes. Both give
what the full scan gives, bit for bit, and k-means uses the same search.
Every (cell, code) pair the search looks at costs a few elementwise numpy
passes: one list position at a time over all cells, the best distance kept
with a minimum and the best position with an arithmetic select, and each
bin counted against the same float edges for cells and codes alike.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

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
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
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


@dataclass(frozen=True)
class FrequencyTable:
    counts: np.ndarray  # (k,) uint64

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def smoothed(self) -> bool:
        """Every count is >= 1, so every code gets a Huffman codeword."""
        return bool(np.all(self.counts >= 1))


def quantize(grid: np.ndarray, cb: Codebook) -> np.ndarray:
    """Nearest-code index per cell, shaped like the grid without its last axis."""
    grid = np.asarray(grid)
    if grid.shape[-1] != cb.d:
        raise CodebookError(f"cell dim {grid.shape[-1]} != codebook dim {cb.d}")
    cells = grid.reshape(-1, cb.d).astype(np.float64)
    idx, _ = _assign(cells, cb.codes.astype(np.float64))  # ties -> lowest index
    return idx.reshape(grid.shape[:-1])


def quantize_masked(grids, masks, cb: Codebook) -> list[np.ndarray]:
    """int32 index streams of the cells each scale's bool mask keeps, raster
    order: fine, medium, coarse. One search covers all three."""
    kept = [grid[mask] for grid, mask in zip(grids, masks)]
    return np.split(quantize(np.concatenate(kept), cb), np.cumsum([len(c) for c in kept[:2]]))


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
    if iters < 0:
        raise ValueError(f"iters={iters} is negative")
    centers = _seed_centers(corpus, k, np.random.default_rng(seed))
    for _ in range(iters):
        _update_centers(corpus, *_assign(corpus, centers), centers)
    return Codebook(centers.astype(np.float32))


def _seed_centers(corpus: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center is drawn with probability
    proportional to its squared distance from the nearest center so far.

    A draw runs the steps `rng.choice(n, p=d2 / d2.sum())` runs (divide,
    cumsum, divide by the last value, search one `rng.random()`) on one
    buffer, without choice's validation and fresh arrays, so it picks the
    same point. Distances add the d coordinate columns in order, as numpy's
    `.sum(axis=1)` of an (n, d) array does for d < 8.
    """
    n, d = corpus.shape
    cols = [np.ascontiguousarray(corpus[:, j]) for j in range(d)]
    centers = np.empty((k, d), dtype=np.float64)
    d2, dist, buf = np.empty(n), np.empty(n), np.empty(n)
    centers[0] = corpus[rng.integers(n)]
    _sq_dist(zip(cols, centers[0]), d2, buf)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = corpus[rng.integers(n)]
        else:
            np.divide(d2, total, out=buf)
            np.cumsum(buf, out=buf)
            buf /= buf[-1]
            centers[i] = corpus[buf.searchsorted(rng.random(), side="right")]
        _sq_dist(zip(cols, centers[i]), dist, buf)
        np.minimum(d2, dist, out=d2)
    return centers


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
    """Nearest center of each point and its squared distance, ties to the
    lowest index: what `_full_scan` gives, found by scanning only the
    centers near each point.

    The centers are binned on a grid over their first g = min(3, d)
    coordinates, about k^(1/g) bins a side, so a bin holds about one center.
    Each point scans the centers of its bin's 3^g neighbourhood, in index
    order. Every center outside that neighbourhood is at least m away in one
    binned coordinate, where m is the distance from the point to the nearest
    face of the neighbourhood (infinite where the grid ends). So when the
    best distance found is below m**2, no center outside can beat or tie it.
    The points this does not settle go to the full scan.

    The scan runs over list positions r, not points: with the points ranked
    by list length, those with more than r codes are a prefix, and each step
    gathers the r-th code of their lists and compares it with all of them at
    once. The best distance is kept with np.minimum and the best position r
    with an arithmetic select (a maximum of closer * r, as positions only
    grow); positions become codes once, after the loop. A NaN or infinite
    point gets a NaN or infinite best distance and margin, which settle
    nothing, so the full scan gives it its answer.
    """
    n, d = points.shape
    k = centers.shape[0]
    xs = [np.ascontiguousarray(points[:, j]) for j in range(d)]
    cs = [np.ascontiguousarray(centers[:, j]) for j in range(d)]
    g = min(3, d)
    edges = [_grid_edges(c, max(1, round(k ** (1 / g)))) for c in cs[:g]]
    shape = tuple(e.size for e in edges)
    members, starts = _neighbour_lists([_bin(c, e) for c, e in zip(cs, edges)], shape)
    flat, margin = _locate(xs, edges)

    # longest lists first, so the points still scanning at rank r are a prefix
    lengths = starts[flat + 1] - starts[flat]
    order = np.argsort(-lengths)
    first = starts[flat[order]]
    rank_xs = [x[order] for x in xs]
    # list position of each point's best code so far, in the smallest type
    best_r = np.zeros(n, dtype=np.min_scalar_type(lengths.max(initial=0)))
    near_d2 = np.full(n, np.inf)
    code, dist, term, coord = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n), np.empty(n)
    closer = np.empty(n, dtype=bool)
    for r, m in enumerate(n - np.cumsum(np.bincount(lengths)[:-1])):  # points with over r codes
        # the r-th code of each list; every index is in range, so no take
        # needs the checked, buffered "raise" mode
        np.take(members[r:], first[:m], out=code[:m], mode="clip")
        # each coordinate is gathered after the last one is used
        _sq_dist(((x[:m], np.take(c, code[:m], out=coord[:m], mode="clip"))
                  for x, c in zip(rank_xs, cs)), dist[:m], term[:m])
        np.less(dist[:m], near_d2[:m], out=closer[:m])  # strict: the lower index keeps a tie
        np.minimum(near_d2[:m], dist[:m], out=near_d2[:m])
        # positions only grow, so the largest closer one is the latest
        np.maximum(best_r[:m], closer[:m] * best_r.dtype.type(r), out=best_r[:m])
    first += best_r
    assign, best = np.empty(n, dtype=np.int32), np.empty_like(near_d2)
    assign[order], best[order] = members[first], near_d2

    # An outside center lies at or beyond the edge a margin is measured to,
    # and it was binned against that same float edge. Rounding is monotone,
    # and so is each step of _sq_dist (a difference, a square, a sum of
    # non-negative terms), so its computed distance is at least
    # margin * margin as computed here: no rounding slack is needed.
    unsettled = np.flatnonzero(~(best < margin * margin))
    if unsettled.size:
        assign[unsettled], best[unsettled] = _full_scan(points[unsettled], centers)
    return assign, best


def _locate(xs: list[np.ndarray], edges: list[np.ndarray]):
    """Each point's flat bin, and its distance in the binned coordinates to
    the nearest face of that bin's 3^g neighbourhood (infinite where the
    grid ends)."""
    bins = [_bin(x, e) for x, e in zip(xs, edges)]
    margin = np.full(xs[0].size, np.inf)
    for x, b, e in zip(xs, bins, edges):
        below = np.full(e.size, -np.inf)  # bins 0 and 1 have nothing below
        below[2:] = e[1:-1]
        above = np.full(e.size, np.inf)  # nor the last two anything above
        above[:-2] = e[2:]
        b = b.astype(np.intp)  # numpy gathers fastest through intp indices
        # an infinite x less the grid's infinite end is NaN, and a NaN margin
        # settles nothing: such a point goes to the full scan
        with np.errstate(invalid="ignore"):
            np.minimum(margin, x - below[b], out=margin)
            np.minimum(margin, above[b] - x, out=margin)
    return np.ravel_multi_index(bins, tuple(e.size for e in edges)), margin


def _grid_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Lower edges of equal bins spanning the values; one bin if they are
    all equal."""
    lo, hi = values.min(), values.max()
    return lo + (hi - lo) * (np.arange(bins if hi > lo else 1) / bins)


def _bin(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin b holds [edges[b], edges[b + 1]); the end bins reach to infinity.
    A value's bin is the count of inner edges at or below it (none for a
    NaN), in the smallest unsigned type that holds the last bin: for a
    finite value, the bin a search of the sorted edges finds."""
    bins = np.zeros(values.shape, dtype=np.min_scalar_type(edges.size - 1))
    above = np.empty(values.shape, dtype=bool)
    for e in edges[1:]:
        bins += np.greater_equal(values, e, out=above)
    return bins


def _neighbour_lists(code_bins: list[np.ndarray], shape: tuple[int, ...]):
    """CSR lists: the codes of bin i's 3^g neighbourhood are
    members[starts[i]:starts[i + 1]], in ascending index order.

    Code c lies in the neighbourhood of each in-range bin that is within one
    step of its own on every axis. The (3,) * g + (k,) array of keys
    neighbour bin * k + c is built by broadcasting one (3, k) term per axis,
    and one sort of the in-range keys lists them by bin, then code."""
    k = code_bins[0].size
    steps = np.arange(-1, 2)
    keys, inside, stride = np.arange(k), np.ones(k, dtype=bool), k
    for axis in reversed(range(len(shape))):  # the last axis varies fastest
        # signed, so bin -1 is outside; the steps vary along this axis
        near = code_bins[axis].astype(np.intp) + steps.reshape(-1, *[1] * (len(shape) - axis))
        keys = keys + near * stride
        inside = inside & (near >= 0) & (near < shape[axis])
        stride *= shape[axis]
    keys = keys[inside]
    keys.sort()
    starts = np.searchsorted(keys, np.arange(math.prod(shape) + 1) * k)
    # a last entry past the lists, so an empty list's first position is valid
    return np.append(keys % k, 0), starts


def _full_scan(points: np.ndarray, centers: np.ndarray):
    """Nearest center of each point from all k distances, in blocks of
    _DIST_BLOCK_BYTES; argmin gives a tie to the lowest index."""
    n, d = points.shape
    k = centers.shape[0]
    assign = np.empty(n, dtype=np.int32)
    best = np.empty(n, dtype=np.float64)
    step = max(1, _DIST_BLOCK_BYTES // (8 * k))  # points per block
    # allocated once: fresh blocks would overlap the last ones while rebinding
    dist, term = np.empty((min(step, n), k)), np.empty((min(step, n), k))
    for start in range(0, n, step):
        chunk = points[start:start + step]
        rows = chunk.shape[0]
        _sq_dist(((chunk[:, j, None], centers[:, j]) for j in range(d)),
                 dist[:rows], term[:rows])
        near = assign[start:start + step] = dist[:rows].argmin(axis=1)
        best[start:start + step] = np.take_along_axis(dist[:rows], near[:, None], 1)[:, 0]
    return assign, best


def _sq_dist(pairs, out: np.ndarray, term: np.ndarray) -> None:
    """out = the sum, in order, of (x - c)**2 over the (x, c) coordinate
    pairs, broadcast. The search and the full scan share it, so their
    distances agree bit for bit."""
    for j, (x, c) in enumerate(pairs):
        diff = term if j else out
        np.subtract(x, c, out=diff)
        np.multiply(diff, diff, out=diff)
        if j:
            out += term


def kmeans_distortion(corpus: np.ndarray, cb: Codebook) -> float:
    _, d2 = _assign(np.asarray(corpus, dtype=np.float64), cb.codes.astype(np.float64))
    return float(d2.sum())


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
    return cb, FrequencyTable(counts)
