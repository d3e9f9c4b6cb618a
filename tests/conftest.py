"""Shared helpers: synthetic desk images, oracles and test codebooks.

This module imports no pytest, so a program that draws the test images
(bench/run.py) pays nothing for it. The session fixtures live in
`session_fixtures`, registered below.
"""

import struct
import tracemalloc

import numpy as np

from granucodec import bitstream, imaging, pipeline, vq
from granucodec.imaging import nn_upsample
from granucodec.spatial_entropy import EntropyConfig, _affinity, _mass_entropy

# not "fixtures": pytest registers its own _pytest.fixtures under that
# plugin name, and would skip a second module of the name without a word
pytest_plugins = ["session_fixtures"]


#: Rows make_raw draws at once: a multiple of every cell size the strip kinds
#: use, so that each strip starts on a cell boundary
STRIP_ROWS = 64


def _cell_rows(grid: np.ndarray, f: int, y0: int, y1: int, w: int) -> np.ndarray:
    """Rows y0:y1 (y0 a multiple of f) and the first w columns of the grid
    with every cell repeated f x f."""
    return nn_upsample(grid[y0 // f:-(-y1 // f)], f)[:y1 - y0, :w]


def make_raw(kind: str, h: int, w: int, seed: int) -> np.ndarray:
    """Deterministic synthetic test image, (h, w, 3) uint8.

    Every kind but leaves draws its cell grids whole, then the image
    STRIP_ROWS rows at a time: each strip continues the same random stream
    and every pixel sees the same float operations as in one whole-image
    draw, so the bytes do not depend on the strip height, and no float
    temporary spans the image."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        # noise with spatially varying mean and amplitude, not flat iid
        h4, w4 = -(-h // 4) * 4, -(-w // 4) * 4
        mean = rng.uniform(20, 235, (h4 // 4, w4 // 4, 3))
        amp = rng.uniform(5, 70, (h4 // 4, w4 // 4, 1))

        def rows(y0, y1):
            return (_cell_rows(mean, 4, y0, y1, w)
                    + _cell_rows(amp, 4, y0, y1, w) * rng.normal(size=(y1 - y0, w, 3)))
    elif kind == "gradient":
        slopes = rng.uniform(-3, 3, size=(3, 2))
        h16, w16 = -(-h // 16) * 16, -(-w // 16) * 16
        blobs = rng.normal(0, 60, (h16 // 16, w16 // 16, 3))
        amp = rng.random(size=(h, w, 1))  # whole: it comes before the noise in the stream

        def rows(y0, y1):
            yy, xx = np.mgrid[y0:y1, 0:w].astype(np.float64)
            img = np.stack([255 * ((a * xx / w + b * yy / h) % 1.0) for a, b in slopes], axis=2)
            return img + (_cell_rows(blobs, 16, y0, y1, w)
                          + (8 + 40 * amp[y0:y1]) * rng.normal(size=img.shape))
    elif kind == "blocky":
        cell = rng.integers(0, 256, size=(-(-h // 16), -(-w // 16), 3))

        def rows(y0, y1):
            return _cell_rows(cell, 16, y0, y1, w) + rng.normal(0, 8, size=(y1 - y0, w, 3))
    elif kind == "photo":
        # photographic texture stand-in: band-limited noise plus detail
        h8, w8 = -(-h // 8) * 8, -(-w // 8) * 8
        low = rng.normal(128, 55, size=(h8 // 8, w8 // 8, 3))
        mid = rng.normal(0, 25, size=(h8 // 2, w8 // 2, 3))

        def rows(y0, y1):
            return ((_cell_rows(low, 8, y0, y1, w) + _cell_rows(mid, 2, y0, y1, w))
                    + rng.normal(0, 10, size=(y1 - y0, w, 3)))
    elif kind == "waves":
        f1, f2 = 0.05 + rng.random() * 0.2, 0.05 + rng.random() * 0.2

        def rows(y0, y1):
            yy, xx = np.mgrid[y0:y1, 0:w].astype(np.float64)
            img = np.stack([
                128 + 110 * np.sin(f1 * xx + f2 * yy),
                128 + 110 * np.cos(f2 * xx),
                128 + 110 * np.sin(f1 * yy),
            ], axis=2)
            return img + rng.normal(0, 10, size=img.shape)
    elif kind == "leaves":
        # dead leaves: opaque discs of uniform random colour, radius density
        # ∝ r^-3 on [8, 100] px, painted front to back until none is bare
        img, bare = np.empty((h, w, 3)), np.ones((h, w), dtype=bool)
        left, lo, hi = h * w, 8.0 ** -2, 100.0 ** -2
        while left:
            for cy, cx, u, *colour in rng.random((256, 6)) * (h, w, 1, 255, 255, 255):
                r = (lo - u * (lo - hi)) ** -0.5  # inverse of the radius CDF
                ys = slice(max(int(cy - r), 0), min(int(cy + r) + 1, h))
                xs = slice(max(int(cx - r), 0), min(int(cx + r) + 1, w))
                yy, xx = np.ogrid[ys, xs]
                new = bare[ys, xs] & ((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r)
                img[ys, xs][new] = colour
                bare[ys, xs][new] = False
                left -= np.count_nonzero(new)
                if not left:
                    break
        img += rng.normal(0, 2, size=img.shape)
        return np.clip(img, 0, 255).astype(np.uint8)
    else:
        raise ValueError(kind)
    out = np.empty((h, w, 3), dtype=np.uint8)
    for y0 in range(0, h, STRIP_ROWS):
        y1 = min(y0 + STRIP_ROWS, h)
        out[y0:y1] = np.clip(rows(y0, y1), 0, 255).astype(np.uint8)
    return out


def make_image(kind: str, h: int, w: int, seed: int) -> imaging.ImagePlane:
    return imaging.from_raw(make_raw(kind, h, w, seed))


def patch_entropy(patch: np.ndarray, cfg: EntropyConfig = EntropyConfig()) -> float:
    """Spatial entropy (bits) of a patch, channels pooled into one sample set:
    the kernel evaluated for every sample, unrounded. The oracle the tests
    hold `entropy_map` to."""
    values = np.asarray(patch, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty patch")
    return float(_mass_entropy(_affinity(values, cfg).mean(axis=0)))


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated (numpy buffers included) while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reshape_mean_pool(grid: np.ndarray, factor: int) -> np.ndarray:
    """f x f cell means as numpy's mean over the two cell axes of a 5-D view,
    in the grid's dtype."""
    h, w = grid.shape[:2]
    pooled = grid.reshape(h // factor, factor, w // factor, factor, -1).mean(
        axis=(1, 3), dtype=np.float64)
    return pooled.reshape(pooled.shape[:2] + grid.shape[2:]).astype(grid.dtype)


def flat_frequencies(k: int) -> vq.FrequencyTable:
    """The smoothed table of a corpus that emitted nothing: every count 1."""
    return vq.FrequencyTable(np.ones(k, dtype=np.uint64))


def crowded_cube() -> np.ndarray:
    """The float32 samples of every colour of a 40^3 byte cube, bytes 108-147
    on each axis: 64,000 distinct colours too dense for the search's index."""
    axis = np.arange(108, 148)
    return imaging.normalize(np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
                             .reshape(-1, 3))


def write_codebook(path, codes) -> None:
    """Write a `.cgcb` file of the (k, d) codes byte by byte, for any width d:
    the header, every count 1 and the codes' content hash, all valid."""
    codes = np.asarray(codes, dtype="<f4")
    k, d = codes.shape
    path.write_bytes(b"CGCB" + struct.pack("<BHH", vq.CODEBOOK_VERSION, k, d) + codes.tobytes()
                     + np.ones(k, dtype="<u8").tobytes()
                     + struct.pack("<Q", vq._codes_hash(codes)))


def codes_session(codes) -> pipeline.CodecSession:
    """A session over the given (k, d) codes with a flat frequency table."""
    cb = vq.Codebook(np.asarray(codes, dtype=np.float32))
    return pipeline.CodecSession(cb, flat_frequencies(cb.k))


def map_container(session, gmap: np.ndarray) -> bitstream.Container:
    """An unpadded container header for a granularity map, with an empty
    payload: what reconstruct needs besides the map and the streams."""
    by, bx = gmap.shape
    return bitstream.Container(
        true_w=16 * bx, true_h=16 * by, codebook_hash=session.codebook.id_hash,
        index_bits=(0, 0, 0), map_bits=0, payload=b"")


def lookup(idx: np.ndarray, cb: vq.Codebook) -> np.ndarray:
    """Replace each index with its code vector."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= cb.k):
        raise vq.CodebookError("index out of codebook range")
    return cb.codes[idx]


def assert_painted(out: np.ndarray, mask: np.ndarray, stream: np.ndarray,
                   cb: vq.Codebook, factor: int) -> None:
    """Every pixel of each cell that a scale's mask keeps holds the bytes of
    the clamped colour of that cell's code in the scale's raster-order stream;
    a cell covers factor x factor pixels."""
    expected = np.zeros(mask.shape + (3,), dtype=np.float32)
    expected[mask] = np.clip(lookup(stream, cb), -1.0, 1.0)
    support = nn_upsample(mask, factor)
    assert out.dtype == np.uint8
    assert np.array_equal(out[support],
                          imaging.denormalize(nn_upsample(expected, factor)[support]))


def desk_corpus(n: int = 20, size: int = 512) -> list:
    kinds = ["noise", "gradient", "blocky", "photo", "waves"]
    return [make_image(kinds[i % len(kinds)], size, size, seed=100 + i)
            for i in range(n)]


def leaves_images(seeds, size: int = 512) -> list:
    return [make_image("leaves", size, size, seed=s) for s in seeds]
