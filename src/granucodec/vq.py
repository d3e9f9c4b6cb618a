"""Codebook storage, nearest-colour quantization and k-means training.

A code is the colour the decoder paints: the clamped bytes of its float32
samples. A cell, at every scale, is 256 times its mean colour in unsigned
integers (`analysis.pyramid`). So every mean is a multiple of 2**-8 below
256 and every squared distance from a cell to a code, or from a code to a
box with integer edges, a multiple of 2**-16 below 2**18: exact in float64,
added in any order, on every machine. The search picks the nearest colour,
ties to the lowest index, by the bucket search of Gersho and Gray (Vector
Quantization and Signal Compression, 1992): a cell scans the list of codes
that can be nearest in its box of [0, 256)^3, about 3 at k=1024. It reads
the integer cells as they are: a cell's box is a shift of its value, and
its mean is made once, in the order the scan ranks the cells. k-means
searches its byte centres through `quantize`, under the codec's list bound.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .analysis import FEATURES
from .bitstream import BitstreamError, frequency_counts
from .imaging import HALF_RANGE, denormalize, normalize, read_bounded

CODEBOOK_MAGIC = b"CGCB"
CODEBOOK_VERSION = 1
MAX_K = 0xFFFF  # the file stores k as uint16
_HEADER = struct.Struct("<4sBHH")  # magic, version, k, d

# The nearest-code search's box index (see _build_index)
_BOXES_PER_CODE = 32  # about 3 candidates per codec cell at k=1024
_MAX_BOX_BITS = 15  # at most 2**15 boxes
_ENTRIES_PER_CODE = 256  # a level whose lists would hold more entries per code is not kept
_PAIR_BLOCK = 1 << 15  # (box, code) pairs bounded in one step of a build
_MAX_LIST = 4096  # the most codes the codec's index may list in one box


class CodebookError(ValueError):
    """Malformed codebook file or mismatched dimensions."""


def _codes_hash(codes: np.ndarray) -> int:
    digest = hashlib.sha256(np.ascontiguousarray(codes, dtype=np.float32))  # no bytes copy
    return struct.unpack("<Q", digest.digest()[:8])[0]


@dataclass(frozen=True, eq=False)
class Codebook:
    codes: np.ndarray  # (k, d) float32, a read-only copy, checked once
    id_hash: int = field(init=False)  # _codes_hash(codes), computed once

    def __post_init__(self):
        codes = np.array(self.codes, dtype=np.float32, order="C")
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] != FEATURES:
            raise CodebookError(f"codebook shape {codes.shape}, not (k >= 1, {FEATURES})")
        if not np.isfinite(codes).all():
            raise CodebookError("codebook contains non-finite values")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "id_hash", _codes_hash(codes))

    @property
    def k(self) -> int:
        return self.codes.shape[0]

    @property
    def d(self) -> int:
        return self.codes.shape[1]

    @functools.cached_property
    def colours(self) -> np.ndarray:
        """The (k, 3) uint8 colours the decoder paints, made on first use."""
        colours = denormalize(self.codes)
        colours.flags.writeable = False
        return colours


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    counts: np.ndarray  # (k,) uint64, a read-only copy of what frequency_counts takes

    def __post_init__(self):
        counts = frequency_counts(self.counts).copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def smoothed(self) -> bool:
        """Every count is >= 1, so every code gets a Huffman codeword."""
        return bool(np.all(self.counts >= 1))


@functools.lru_cache(maxsize=2)
def _cached_index(colours: bytes):
    """The search index of the uint8 colours `colours` holds, built on first
    use and kept for the last two: one build for every session of a codebook.
    Colours that crowd a list past _MAX_LIST codes give None, kept too."""
    index = _build_index(np.frombuffer(colours, np.uint8).reshape(-1, FEATURES).astype(np.float64))
    return index if np.diff(index[2]).max() <= _MAX_LIST else None


def _cells(cells) -> np.ndarray:
    """The (n, FEATURES) rows of unsigned integer cells, each 256 times a
    mean colour, as `analysis.pyramid` gives them; other cells are refused."""
    cells = np.asarray(cells)
    if cells.ndim == 0 or cells.shape[-1] != FEATURES:
        raise CodebookError(f"cells of shape {cells.shape}, not (..., {FEATURES})")
    if cells.dtype.kind != "u" or cells.size and cells.max() > 255 * 256:
        raise ValueError(f"{cells.dtype} cells: unsigned integers of at most {255 * 256}")
    return cells.reshape(-1, FEATURES)


def quantize(cells: np.ndarray, cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's nearest code, ties to the lowest index, and its exact
    squared distance in byte**2, both shaped like `cells` without its last
    axis. Colours that crowd a list past _MAX_LIST codes are refused."""
    if (index := _cached_index(cb.colours.tobytes())) is None:
        raise CodebookError(f"codes too crowded for the nearest-code search: "
                            f"over {_MAX_LIST} in one box")
    shape = np.shape(cells)[:-1]
    return tuple(a.reshape(shape) for a in _assign(_cells(cells), index))


def quantize_masked(grids, masks, cb: Codebook) -> list[np.ndarray]:
    """int32 index streams of the cells each scale's bool mask keeps, raster
    order: fine, medium, coarse, from the pyramid's grids. One search covers
    all three, as every scale's cells are in one unit."""
    kept = [np.compress(mask.ravel(), grid.reshape(-1, FEATURES), axis=0)
            for grid, mask in zip(grids, masks)]
    return np.split(quantize(np.concatenate(kept), cb)[0], np.cumsum([len(c) for c in kept[:2]]))


def train_codebook(corpus: np.ndarray, k: int, *, iters: int, seed: int) -> Codebook:
    """Seeded k-means++ and a fixed number of Lloyd iterations on cell means,
    each searched by `quantize`, the seeds and every update rounded to bytes;
    the codes are the samples of the final colours. An empty cluster takes
    the point then farthest from its center, so all k codes stay live."""
    corpus = _cells(corpus)
    means = corpus * (1.0 / 256)  # exact: a cell is 256 times its mean
    if means.shape[0] < k:
        raise ValueError(f"corpus size {means.shape[0]} smaller than k={k}")
    if iters < 0:
        raise ValueError(f"iters={iters} is negative")
    centers = np.rint(_seed_centers(means, k, np.random.default_rng(seed)))
    for _ in range(iters):
        _update_centers(means, *quantize(corpus, Codebook(normalize(centers))), centers)
    return Codebook(normalize(centers))


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
    farthest from its center, whose distance is then zeroed. Each center is
    then rounded to bytes: a mean of m exact means lies 2**-8 / m or more
    from a tie, beyond its division's rounding."""
    k = centers.shape[0]
    sizes = np.bincount(assign, minlength=k)
    live = sizes > 0
    for j in range(corpus.shape[1]):
        sums = np.bincount(assign, weights=corpus[:, j], minlength=k)
        centers[live, j] = sums[live] / sizes[live]
    for i in np.flatnonzero(~live):
        far = int(d2.argmax())
        centers[i] = corpus[far]
        d2[far] = 0.0
    np.rint(centers, out=centers)


def _assign(cells: np.ndarray, index):
    """Nearest center of each cell's mean colour and its squared distance,
    ties to the lowest index, as a scan of all k centers gives them, found by
    scanning only the candidate list of the box the mean falls in. The
    (n, d) cells are unsigned integers, each 256 times a mean in [0, 255]^d,
    read as they are: a box is found from the cells, and the means are made
    once, already in rank order.

    The scan runs over list positions r, not cells: with the cells ranked
    by list length, those with more than r codes are a prefix, and each
    step gathers the r-th code of their lists and compares it with all of
    them at once. The best distance is kept with np.minimum and the best
    position r with an arithmetic select (a maximum of closer * r, as
    positions only grow); positions become codes once, after the loop.
    """
    n, d = cells.shape
    cs, members, starts, spread = index
    # the mean's box coordinate, mean * side / 256 truncated, is the cell
    # shifted right, exactly: the cell is 256 x the mean and side a power of two
    shift = 16 - (spread.size.bit_length() - 1)
    flat = np.zeros(n, dtype=np.intp)
    for j in range(d):
        flat += spread[cells[:, j] >> shift] << (d - 1 - j)

    # longest lists first, so the cells still scanning at rank r are a
    # prefix; keyed in the smallest type, where a stable sort is a radix sort
    lengths = starts[flat + 1] - starts[flat]
    longest = lengths.max(initial=0)
    order = np.argsort((longest - lengths).astype(np.min_scalar_type(longest)), kind="stable")
    first = starts[flat[order]]
    scanning = n - np.cumsum(np.bincount(lengths)[:-1])  # cells with over r codes
    del flat, lengths
    # the ranked means, gathered straight from the cells: exact, 2**-8 a unit
    rank_xs = [cells[:, j][order] * (1.0 / 256) for j in range(d)]
    # list position of each cell's best code so far, in the smallest type
    best_r = np.zeros(n, dtype=np.min_scalar_type(longest))
    near_d2 = np.full(n, np.inf)
    code, dist, term = np.empty(n, members.dtype), np.empty(n), np.empty(n)
    closer = np.empty(n, dtype=bool)
    for r, m in enumerate(scanning):
        # the r-th code of each list; every index is in range, so no take
        # needs the checked, buffered "raise" mode
        np.take(members[r:], first[:m], out=code[:m], mode="clip")
        # each coordinate is gathered, once the last one is used, into the
        # array _sq_dist then squares its difference in
        _sq_dist(((x[:m], np.take(c, code[:m], out=(term if j else dist)[:m], mode="clip"))
                  for j, (x, c) in enumerate(zip(rank_xs, cs))), dist[:m], term[:m])
        np.less(dist[:m], near_d2[:m], out=closer[:m])  # strict: the lower index keeps a tie
        np.minimum(near_d2[:m], dist[:m], out=near_d2[:m])
        # positions only grow, so the largest closer one is the latest
        np.maximum(best_r[:m], closer[:m] * best_r.dtype.type(r), out=best_r[:m])
    del rank_xs, code, dist, term, closer
    first += best_r
    assign, best = np.empty(n, dtype=np.int32), np.empty_like(near_d2)
    assign[order], best[order] = members[first], near_d2
    return assign, best


def _build_index(centers: np.ndarray):
    """(cs, members, starts, spread) for (k, d) byte colours: cs holds their
    columns, and box i lists members[starts[i]:starts[i + 1]], ascending.

    [0, 256)^d is cut into side^d equal boxes with integer edges. side is a
    power of two giving about _BOXES_PER_CODE boxes per code, at most
    2**_MAX_BOX_BITS, or less when the lists would be long (see below).
    Halving the side cuts box p of n boxes into its fan = 2^d children
    o * n + p, where bit d - 1 - j of o says which half of axis j the child
    holds. So spread[b] spaces the bits of coordinate b d apart, finest bit
    first, and the box at (b_j) is the sum of spread[b_j] << (d - 1 - j).

    Box B, closed, drops a code c of its parent's list when a code s of
    that list is nearer than c at every point of B, and keeps the rest. A
    code nearest to a point of B, ties to the lowest index, is never dropped,
    nor is it in the parent, which holds that point too. s is the first code
    of the list whose farthest point of B is nearest, so each code whose
    nearest point of B is farther still is dropped, and so is each code s
    shades: the codes behind s seen from a box far away. |x - s|^2 - |x - c|^2
    is linear in x, so its largest value in B is at a corner; every value is
    an integer below 2**20, exact.

    The lists are refined from the whole cube's list of distinct codes, one
    halving of the box side at a time. A level runs in steps of at most
    _PAIR_BLOCK (box, code) pairs, and is given up once its lists hold more
    than _ENTRIES_PER_CODE * k entries, which bounds the build's memory;
    codes crowding few boxes end it early, lists still exact.
    """
    k, d = centers.shape
    fan = 1 << d
    bits = min(math.ceil(math.log2(_BOXES_PER_CODE * k) / d), _MAX_BOX_BITS // d)
    cs = np.array(centers.T)
    # a child's coordinate on an axis is twice its parent's plus 0 (the
    # lower half) or 1; halves[j, o] is child o's on axis j
    half = np.arange(2)[:, None]
    halves = (np.arange(fan) >> np.arange(d - 1, -1, -1)[:, None]) & 1
    # a code equal to a lower-index one never wins a tie, so it is not listed
    members = np.sort(np.unique(centers, axis=0, return_index=True)[1])
    members = members.astype(np.min_scalar_type(k - 1))
    starts = np.array([0, members.size])
    coords = np.zeros((d, 1), dtype=np.intp)  # each box's coordinates, in box order
    level = 0
    while level < bits:
        width = 128 >> level  # a child's side
        lengths = np.diff(starts)
        kept, counts = [[] for _ in range(fan)], []
        box = held = 0
        while box < lengths.size and held <= _ENTRIES_PER_CODE * k:
            # the boxes whose children's pairs fit one step, at least one box
            stop = max(box + 1, int(np.searchsorted(
                starts, starts[box] + _PAIR_BLOCK // fan, side="right")) - 1)
            run = lengths[box:stop]
            run_starts = starts[box:stop] - starts[box]
            code = members[starts[box]:starts[stop]]
            parent = np.repeat(np.arange(box, stop), run)
            # both halves' lower edges on each axis, (2, pairs); child o holds halves[j, o]
            edges = [(2 * coords[j][parent] + half) * width for j in range(d)]
            max_d2 = 0.0  # each pair's farthest squared distance
            for c, lo, h in zip(cs, edges, halves):
                max_d2 = max_d2 + (np.maximum(c[code] - lo, lo + width - c[code]) ** 2)[h]
            # s, the first code of each list whose farthest point is nearest
            bound = np.repeat(np.minimum.reduceat(max_d2, run_starts, axis=1), run, axis=1)
            at = np.where(max_d2 == bound, np.arange(code.size), code.size)
            s = code[np.repeat(np.minimum.reduceat(at, run_starts, axis=1), run, axis=1)]
            # |x - s|^2 - |x - c|^2 sums (c_j - s_j)(2 x_j - s_j - c_j) over
            # the axes: gap, its largest value in the child, takes the upper
            # edge x_j = lo + width where c_j > s_j and the lower one elsewhere
            gap = 0.0
            for c, lo, h in zip(cs, edges, halves):
                c_s = np.take(c, s)
                diff = c[code] - c_s
                gap = gap + diff * (2 * lo[h] - c_s - c[code]) + 2 * width * np.maximum(diff, 0)
            keep = gap >= 0
            counts.append(np.add.reduceat(keep, run_starts, axis=1, dtype=np.intp))
            for o in range(fan):
                kept[o].append(code[keep[o]])
            held += counts[-1].sum()
            box = stop
        if held > _ENTRIES_PER_CODE * k:
            break
        level += 1
        # child o of box p is box o * n + p, for the n boxes of the level before
        members = np.concatenate([part for parts in kept for part in parts])
        starts = np.concatenate(([0], np.cumsum(np.concatenate(counts, axis=1))))
        coords = (2 * coords[:, None, :] + halves[:, :, None]).reshape(d, -1)
    side = np.arange(1 << level)
    spread = sum((((side >> t) & 1) << (d * (level - 1 - t)) for t in range(level)),
                 np.zeros_like(side))
    for array in (cs, members, starts, spread):  # every search of these codes shares them
        array.flags.writeable = False
    return cs, members, starts, spread


def _sq_dist(pairs, out: np.ndarray, term: np.ndarray) -> None:
    """out = the sum, in order, of (x - c)**2 over the (x, c) coordinate
    pairs, broadcast; c may be the array its square is made in, out for the
    first pair and term after. The search and k-means seeding share it."""
    for j, (x, c) in enumerate(pairs):
        diff = term if j else out
        np.subtract(x, c, out=diff)
        np.multiply(diff, diff, out=diff)
        if j:
            out += term


def kmeans_distortion(corpus: np.ndarray, cb: Codebook) -> float:
    """The summed squared distance of each cell's mean colour to its nearest
    code's colour, on the [-1, 1] sample scale: in bytes, divided by 127.5**2."""
    return float(quantize(corpus, cb)[1].sum()) / HALF_RANGE ** 2


def save_codebook(cb: Codebook, tbl: FrequencyTable, path) -> None:
    """Write the CGCB container: codes, frequency counts, content hash."""
    if tbl.k != cb.k:
        raise CodebookError("frequency table size does not match codebook")
    if cb.k > MAX_K:
        raise CodebookError(f"k={cb.k}: the format stores k in 16 bits (at most {MAX_K})")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(CODEBOOK_MAGIC, CODEBOOK_VERSION, cb.k, cb.d))
        f.write(cb.codes.astype("<f4").tobytes())
        f.write(tbl.counts.astype("<u8").tobytes())
        f.write(struct.pack("<Q", cb.id_hash))


def load_codebook(path) -> tuple[Codebook, FrequencyTable]:
    with open(path, "rb", buffering=0) as f:  # the header, then the declared body and one byte
        head = read_bounded(f, _HEADER.size)
        if head[:4] != CODEBOOK_MAGIC:
            raise CodebookError(f"{path}: not a codebook file")
        if len(head) < _HEADER.size:
            raise CodebookError(f"{path}: truncated header ({len(head)} bytes)")
        _, version, k, d = _HEADER.unpack(head)
        if version != CODEBOOK_VERSION:
            raise CodebookError(f"{path}: unsupported version {version}")
        if d != FEATURES:  # before any read whose size follows from d
            raise CodebookError(f"{path}: codebook shape ({k}, {d}), not (k >= 1, {FEATURES})")
        need = 4 * k * d + 8 * k + 8
        data = read_bounded(f, need + 1)
    if len(data) != need:
        got = "more" if len(data) > need else _HEADER.size + len(data)
        raise CodebookError(f"{path}: expected {_HEADER.size + need} bytes, got {got}")
    codes = np.frombuffer(data, dtype="<f4", count=k * d).reshape(k, d)
    off = 4 * k * d
    counts = np.frombuffer(data, dtype="<u8", count=k, offset=off)
    off += 8 * k
    (stored_hash,) = struct.unpack_from("<Q", data, off)
    try:
        cb, tbl = Codebook(codes), FrequencyTable(counts)
    except (CodebookError, BitstreamError) as e:
        raise CodebookError(f"{path}: {e}") from None
    if cb.id_hash != stored_hash:
        raise CodebookError(f"{path}: content hash mismatch")
    return cb, tbl
