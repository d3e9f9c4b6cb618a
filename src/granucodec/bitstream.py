"""Canonical prefix coding of the payload, the .cgic container format, and
rate measurement.

The payload, laid out by `pack` and `unpack` alone, is one bit string: the
granularity map, then the fine, medium and coarse index streams, all four coded
by one canonical prefix encoder and one decoder. The index streams use the
Huffman code of the shared frequency table, held to `MAX_CODE_LEN` = 16 bits as
in JPEG; the map uses `MAP_CODE`, a fixed canonical code with lengths (1, 2, 2)
over `COARSE - label`. A canonical code depends only on its per-symbol lengths:
in (length, symbol) order, each codeword is the Kraft sum of the codewords
before it, scaled to its own length. So each code holds, built once from the
lengths alone (Moffat & Turpin 1997), the symbol and the code length of the
codeword starting each window as wide as the longest codeword; the decoder
reads each bit position's code length there and hops from symbol to symbol.
The header holds each segment's bit length and a CRC32 of the header and the
payload, checked first: a complete prefix code decodes almost any bit string.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .granularity import COARSE, INDICES_PER_BLOCK, LABEL_NAMES, RatioTriple, label_counts
from .imaging import BLOCK, ceil_to, read_bounded

CONTAINER_MAGIC = b"CGIC"
# Version 2 holds every codeword to 16 bits; a version-1 container may carry
# the longer codes of a skewed table, which a later decoder reads wrong.
# Version 3 drops the padded size and the block ratios from the header.
# Version 4's CRC covers the payload too.
CONTAINER_VERSION = 4

# JPEG's limit (ITU-T T.81, Annex K.3): one 16-bit window holds any codeword,
# and a balanced code over the 2^16 symbols a code may have fits it.
MAX_CODE_LEN = 16

# Largest padded image, in pixels, a container may declare: 8192^2. Decoding
# peaks near 4.5 bytes per padded pixel, about 0.3 GB at the cap, so a small
# hostile header cannot ask for more (Pillow's MAX_IMAGE_PIXELS plays this
# role for its decoders).
MAX_PIXELS = 1 << 26


class BitstreamError(ValueError):
    """Corrupt container, truncated payload or invalid prefix walk."""


# ---------------------------------------------------------------------------
# canonical Huffman

@dataclass(frozen=True, eq=False)
class HuffmanCode:
    """Canonical prefix code, as `_canonical_code` builds it from the lengths."""

    lengths: np.ndarray  # (k,) int32
    codewords: np.ndarray  # (k,) int64
    windows: np.ndarray  # (2^max_len,) int32: the symbol whose codeword starts each window, or k
    window_lengths: np.ndarray  # (2^max_len,) uint8: that codeword's length, or 0
    mean_length: float  # unweighted mean of the lengths (the rate model's L)

    @property
    def k(self) -> int:
        return self.lengths.shape[0]


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    k = counts.shape[0]
    if k == 1:
        return np.ones(1, dtype=np.int32)  # degenerate alphabet, 1 explicit bit
    # Huffman's merge on a heap of keys weight << b | lowest member symbol:
    # ties go to the node holding the lowest symbol. Live nodes hold disjoint
    # symbols, so node[s] names the live node whose lowest symbol is s.
    b = (k - 1).bit_length()  # the symbol field, as wide as the largest symbol
    low = (1 << b) - 1
    heap = (counts.astype(object) << b | np.arange(k)).tolist()  # may pass 64 bits
    heapq.heapify(heap)
    node, parent = list(range(k)), [0] * (2 * k - 1)
    for n in range(k, 2 * k - 1):  # leaves are nodes 0..k-1; the root is made last
        x, y = heapq.heappop(heap), heap[0]
        sx, sy = x & low, y & low
        parent[node[sx]] = parent[node[sy]] = n
        node[min(sx, sy)] = n
        heapq.heapreplace(heap, x + y - max(sx, sy))  # the merged node keeps the lower symbol
    depth = [0] * (2 * k - 1)
    for n in range(2 * k - 3, -1, -1):  # a parent is made after its children
        depth[n] = depth[parent[n]] + 1
    return np.array(depth[:k], dtype=np.int32)


def _canonical_code(lengths: np.ndarray) -> HuffmanCode:
    """The code of per-symbol lengths: in (length, symbol) order, each codeword
    is the Kraft sum of those before it, scaled to its own length. So the
    codewords tile the max_len-bit windows from 0, each owning the windows it
    starts; the windows left over (only for k = 1) start no codeword."""
    lengths = np.array(lengths, dtype=np.int32)  # a copy, as it is made read-only
    k, longest = lengths.shape[0], int(lengths.max(initial=0))
    by_length = np.argsort(lengths, kind="stable")
    shift = (longest - lengths[by_length]).astype(np.uint64)
    step = np.uint64(1) << shift  # 2^-length in units of 2^-max_len
    codewords = np.empty(k, dtype=np.int64)
    codewords[by_length] = (np.cumsum(step, dtype=np.uint64) - step) >> shift
    owner = np.append(by_length, k)  # symbol k, of length 0, owns the windows left over
    rest = (1 << longest) - int(step.sum())
    windows, window_lengths = np.repeat([owner, np.append(lengths, 0)[owner]],
                                        np.append(step, rest).astype(np.intp), axis=1)
    arrays = lengths, codewords, windows.astype(np.int32), window_lengths.astype(np.uint8)
    for array in arrays:  # every user of a code shares it
        array.flags.writeable = False
    return HuffmanCode(*arrays, float(lengths.mean(dtype=np.float64)))


def frequency_counts(counts) -> np.ndarray:
    """The counts as a 1-D uint64 array, refused unless they are 1 to 2^16
    integers, each >= 1 and below 2^64, as in a smoothed table."""
    if np.ndim(counts) != 1:
        raise BitstreamError(f"frequency counts of shape {np.shape(counts)}, not (k,)")
    if not 1 <= len(counts) <= 1 << MAX_CODE_LEN:
        raise BitstreamError(f"{len(counts)} symbols: a {MAX_CODE_LEN}-bit prefix code "
                             f"holds 1 to {1 << MAX_CODE_LEN}")
    counts = np.asarray(counts)
    ok = counts >= 1
    if counts.dtype.kind not in "iu":  # a float or a Python int may be a fraction or too large
        ok &= counts < 2.0 ** 64
        ok[ok] = counts[ok] % 1 == 0
    if not ok.all():
        at = int(ok.argmin())
        raise BitstreamError(f"code {at} has frequency count {counts[at]}; every count must "
                             "be an integer >= 1 and below 2^64, as in a smoothed table")
    return counts.astype(np.uint64, copy=False)


def build_huffman(counts: np.ndarray) -> HuffmanCode:
    """Optimal prefix code for frequency counts (see `frequency_counts`),
    unless its longest codeword passes `MAX_CODE_LEN` bits. Then every count
    is raised to a floor 2^e, clamped to the largest count, at which the code
    fits and at 2^(e-1) does not; e is bisected, in at most 7 more builds
    (Brotli's BrotliCreateHuffmanTree doubles the floor). At the largest
    count all weights are equal, so the code is balanced and fits."""
    counts = frequency_counts(counts)
    lengths = _huffman_lengths(counts)
    if lengths.max(initial=0) > MAX_CODE_LEN:
        top = int(counts.max())
        lo, hi = 0, top.bit_length()  # the floor 2^lo fails; 2^hi, clamped to top, fits
        while hi - lo > 1 or lengths.max() > MAX_CODE_LEN:  # ends on a build at hi
            e = (lo + hi + 1) // 2
            lengths = _huffman_lengths(np.maximum(counts, np.uint64(min(1 << e, top))))
            lo, hi = (e, hi) if lengths.max() > MAX_CODE_LEN else (lo, e)
    return _canonical_code(lengths)


# ---------------------------------------------------------------------------
# payload coding

# The granularity map's fixed canonical code over `COARSE - label`: lengths
# (1, 2, 2) give coarse 0, medium 10 and fine 11.
MAP_CODE = _canonical_code(np.array([1, 2, 2]))


def prefix_encode(segments) -> tuple[bytes, list[int]]:
    """The payload of consecutive segments, each a (symbols, code) pair:
    every codeword in order, MSB first, zero-padded to a whole byte. Returns
    the payload and each segment's length in bits.

    The payload is written in big-endian 32-bit words. A codeword starting
    in word w lies within words w and w + 1, so it is shifted to its offset
    in that 64-bit window, and the codewords starting in one word are ORed
    together: the high half of the result goes to word w, the low half to
    w + 1. No codeword passes `MAX_CODE_LEN` bits, so a codeword starts in
    every word but perhaps the last, and the i-th group is word i's."""
    lengths, codewords = [], []
    for symbols, code in segments:
        symbols = np.asarray(symbols).ravel()
        if symbols.dtype.kind not in "iu":
            raise BitstreamError(f"symbols of dtype {symbols.dtype} are not integers")
        bad = symbols[(symbols < 0) | (symbols >= code.k)]  # checked as given, then cast
        if bad.size:
            raise BitstreamError(f"symbol {bad[0]} outside alphabet of size {code.k}")
        symbols = symbols.astype(np.int64, copy=False)
        lengths.append(np.take(code.lengths, symbols))
        codewords.append(np.take(code.codewords, symbols))
    length = np.concatenate(lengths)
    start = np.cumsum(length, dtype=np.int64) - length
    placed = (np.concatenate(codewords).view(np.uint64)
              << (64 - (start & 31) - length).view(np.uint64))
    word = start >> 5
    merged = np.bitwise_or.reduceat(placed, np.flatnonzero(np.diff(word, prepend=-1) > 0))
    words = np.zeros(merged.size + 1, dtype=np.uint64)
    words[:-1] = merged >> np.uint64(32)
    words[1:] |= merged & np.uint64(0xFFFFFFFF)
    bits = [int(l.sum()) for l in lengths]
    return words.astype(">u4").tobytes()[:sum(bits) + 7 >> 3], bits


def prefix_decode(payload: bytes, pos: int, segments: list[tuple[str, int, int]],
                  code: HuffmanCode) -> list[np.ndarray]:
    """Read consecutive segments of symbols from the bits of `payload`, from
    bit `pos` on; each segment is a (name, count, stop) triple: `count`
    symbols, the last of which ends exactly at bit `stop`, within the
    payload. Returns each segment's symbols. A symbol that passes a stop
    inside the payload, or a segment that ends short of its stop, raises an
    error naming its segment. No codeword of `code` passes `MAX_CODE_LEN`
    bits, as none that build_huffman makes does. The walk reads at most
    `(s - pos) // m + 1` symbols, s the furthest stop within the payload and
    m the shortest codeword length: every good symbol moves m bits or more,
    so if the counts claim more symbols, one of those first ones is bad."""
    names, counts, stops = zip(*segments)
    bits = 8 * len(payload)
    limits = np.minimum(stops, bits)
    lengths, table, window_len = code.lengths, code.windows, code.window_lengths
    max_len = int(lengths.max())
    walk = min(sum(counts), max(int(limits.max()) - pos, 0) // int(lengths.min()) + 1)
    # The max_len-bit window at every bit position up to the last stop, read
    # from three bytes (zeros past it, where no symbol ends in its segment).
    # The steps past those positions are 0: a chain that gets there stays.
    n = int(limits.max()) + 7 >> 3
    data = np.pad(np.frombuffer(payload, dtype=np.uint8)[:n], (0, 2))
    three = (data[:n].astype(np.uint32) << 8 | data[1:n + 1]) << 8 | data[2:n + 2]
    step = np.zeros(8 * n + max_len, dtype=np.uint8)
    for r in range(8):
        step[r:8 * n:8] = np.take(window_len, three >> (24 - max_len - r) & (1 << max_len) - 1)
    # the chain: one index and one add per symbol
    steps, p = step.tobytes(), pos
    chain = np.array([pos] + [p := p + steps[p] for _ in range(walk)], dtype=np.int64)
    starts, bounds = chain[:-1], np.cumsum(counts)
    # the first bad symbol raises the walk's error (limits only for the walk)
    limits = np.repeat(limits, np.diff(np.minimum(bounds, walk), prepend=0))
    bad = np.flatnonzero((chain[1:] > limits) | (step[starts] == 0))
    if bad.size:
        at, stop = starts[bad[0]], limits[bad[0]]
        if step[at] == 0 and at + max_len <= stop:
            raise BitstreamError("invalid prefix walk")
        if stop < bits:
            name = names[np.searchsorted(bounds, bad[0], side="right")]
            raise BitstreamError(f"read past end of the {name} segment")
        raise BitstreamError("read past end of bit payload")
    # then the first segment to end short of its stop
    for name, end, stop in zip(names, chain[bounds].tolist(), stops):
        if end != stop:
            raise BitstreamError(f"{name} segment bit length mismatch (ends at bit {end}, "
                                 f"header says {stop})")
    symbols = table[three[starts >> 3] >> (24 - max_len - (starts & 7)) & (1 << max_len) - 1]
    return np.split(symbols, bounds[:-1])


# ---------------------------------------------------------------------------
# container

# magic, version, true w/h, codebook hash, fine/medium/coarse/map bit lengths;
# the CRC32 of these bytes and the payload follows. The padded size and the
# block ratios are not stored: they follow from the true size and the map.
_HEADER = struct.Struct("<4sB2IQ4I")
_HEADER_SIZE = _HEADER.size + 4


@dataclass(frozen=True)
class Container:
    true_w: int
    true_h: int
    codebook_hash: int
    index_bits: tuple[int, int, int]  # fine, medium, coarse segment lengths
    map_bits: int
    payload: bytes  # map bits ++ fine ++ medium ++ coarse, zero-padded

    @property
    def padded_w(self) -> int:
        return ceil_to(self.true_w, BLOCK)

    @property
    def padded_h(self) -> int:
        return ceil_to(self.true_h, BLOCK)

    @property
    def ratios(self) -> RatioTriple:
        """The block ratios the granularity map holds (read from the payload)."""
        gmap = decode_map(self)
        return RatioTriple(*(label_counts(gmap) / gmap.size).tolist())

    @property
    def payload_bit_length(self) -> int:
        return self.map_bits + sum(self.index_bits)

    @property
    def byte_length(self) -> int:
        return _HEADER_SIZE + len(self.payload)


def decode_map(c: Container) -> np.ndarray:
    """The granularity map: one label per block, raster order, from the
    payload's first `map_bits` bits."""
    by, bx = c.padded_h // BLOCK, c.padded_w // BLOCK
    (labels,) = prefix_decode(c.payload, 0, [("map", by * bx, c.map_bits)], MAP_CODE)
    return (COARSE - labels).astype(np.uint8).reshape(by, bx)


def pack(true_w, true_h, codebook_hash, gmap, streams, code: HuffmanCode) -> Container:
    """The container of a granularity map, as `COARSE - label` under `MAP_CODE`,
    and its fine, medium and coarse index streams under `code`."""
    payload, (map_bits, *index_bits) = prefix_encode(
        [(COARSE - np.asarray(gmap, dtype=np.int64), MAP_CODE), *((s, code) for s in streams)])
    return Container(true_w, true_h, codebook_hash, tuple(index_bits), map_bits, payload)


def unpack(c: Container, code: HuffmanCode) -> tuple[np.ndarray, list[np.ndarray]]:
    """The granularity map and the index streams that `pack` wrote, read with `code`."""
    gmap = decode_map(c)
    pos, *stops = np.cumsum([c.map_bits, *c.index_bits]).tolist()
    counts = (label_counts(gmap) * INDICES_PER_BLOCK).tolist()  # each stream's symbols
    return gmap, prefix_decode(c.payload, pos, list(zip(LABEL_NAMES, counts, stops)), code)


def check_size(true_w: int, true_h: int) -> None:
    """Refuse an image no container may hold: an empty one, or one past
    `MAX_PIXELS` once padded. The encoder and the parser share this check."""
    if not (true_w > 0 and true_h > 0):
        raise BitstreamError(f"empty image ({true_w}x{true_h})")
    w, h = ceil_to(true_w, BLOCK), ceil_to(true_h, BLOCK)
    if w * h > MAX_PIXELS:
        raise BitstreamError(f"{w}x{h} padded pixels exceed the {MAX_PIXELS}-pixel limit")


def serialize_container(c: Container) -> bytes:
    header = _HEADER.pack(
        CONTAINER_MAGIC, CONTAINER_VERSION, c.true_w, c.true_h, c.codebook_hash,
        c.index_bits[0], c.index_bits[1], c.index_bits[2], c.map_bits,
    )
    return header + zlib.crc32(c.payload, zlib.crc32(header)).to_bytes(4, "little") + c.payload


def parse_container(data: bytes) -> Container:
    if len(data) < _HEADER_SIZE:
        raise BitstreamError("container shorter than header")
    (magic, version, true_w, true_h, cb_hash,
     bits_f, bits_m, bits_c, map_bits) = _HEADER.unpack_from(data)
    crc = int.from_bytes(data[_HEADER.size:_HEADER_SIZE], "little")
    if magic != CONTAINER_MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise BitstreamError(f"unsupported container version {version}; this "
                             f"decoder reads version {CONTAINER_VERSION}")
    if crc != zlib.crc32(memoryview(data)[_HEADER_SIZE:], zlib.crc32(data[:_HEADER.size])):
        raise BitstreamError("container CRC mismatch")
    c = Container(true_w=true_w, true_h=true_h, codebook_hash=cb_hash,
                  index_bits=(bits_f, bits_m, bits_c), map_bits=map_bits,
                  payload=data[_HEADER_SIZE:])
    blocks = c.padded_w * c.padded_h // BLOCK ** 2
    if not blocks <= map_bits <= 2 * blocks:  # 1 or 2 bits per block label
        raise BitstreamError(f"map bit length {map_bits} impossible for {blocks} blocks")
    check_size(true_w, true_h)
    total_bits = c.payload_bit_length
    if len(c.payload) != (total_bits + 7) // 8:
        raise BitstreamError("payload length inconsistent with header")
    # trailing pad bits must be zero
    if total_bits % 8 and c.payload:
        tail = c.payload[-1] & ((1 << (8 - total_bits % 8)) - 1)
        if tail:
            raise BitstreamError("nonzero padding bits")
    return c


def read_container(path) -> Container:
    """Parse a container file, read no further than the payload its header
    declares and one byte: a file that never ends is refused, not read whole."""
    with open(path, "rb") as f:
        head = f.read(_HEADER_SIZE)  # short only at the end of the file
        bits = sum(_HEADER.unpack_from(head.ljust(_HEADER_SIZE, b"\0"))[5:])  # 4 segments
        return parse_container(head + read_bounded(f, (bits + 7) // 8 + 1))


def measure_rate(c: Container) -> tuple[float, float]:
    """(total bpp, payload-only bpp) over the true pixel count."""
    pixels = c.true_w * c.true_h
    total = 8.0 * c.byte_length / pixels
    payload = c.payload_bit_length / pixels
    return total, payload
