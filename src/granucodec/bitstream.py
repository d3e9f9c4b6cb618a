"""Canonical prefix coding of the payload, the .cgic container format, and
rate measurement.

The payload is one bit array: the granularity map, then the fine, medium and
coarse index streams. One canonical prefix encoder and one decoder serve all
four segments. The index streams use the Huffman code of the shared
frequency table; the map uses `MAP_CODE`, a fixed canonical code with
lengths (1, 2, 2) over `COARSE - label`. A canonical code depends only on its
per-symbol lengths, so encoder and decoder agree given the lengths: in
(length, symbol) order, each codeword is the Kraft sum of the codewords
before it, scaled to its own length. Decoding extends a candidate codeword
one bit at a time and looks it up in the code's codeword-to-symbol map. The
container header carries the bit length of each segment; a CRC32 over the
header makes corruption loud.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .granularity import RatioTriple

CONTAINER_MAGIC = b"CGIC"
CONTAINER_VERSION = 1

# Codewords are held in int64, so no code may be longer than this.
MAX_CODE_LEN = 63

# Largest padded image, in pixels, a container may declare: 8192^2. Decoding
# peaks near 19 bytes per padded pixel, about 1.3 GB at the cap, so a small
# hostile header cannot ask for more (Pillow's MAX_IMAGE_PIXELS plays this
# role for its decoders).
MAX_PIXELS = 1 << 26


class BitstreamError(Exception):
    """Corrupt container, truncated payload or invalid prefix walk."""


# ---------------------------------------------------------------------------
# canonical Huffman

@dataclass(frozen=True)
class HuffmanCode:
    """Canonical prefix code: per-symbol lengths and codewords, and their
    inverse."""

    lengths: np.ndarray  # (k,) int32
    codewords: np.ndarray  # (k,) int64
    symbols: dict[int, int]  # 1 << length | codeword -> symbol

    @property
    def k(self) -> int:
        return self.lengths.shape[0]


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    k = counts.shape[0]
    if k == 1:
        return np.ones(1, dtype=np.int32)  # degenerate alphabet, 1 explicit bit
    # heap entries: (weight, lowest member symbol, members); merging prefers
    # low aggregate symbol index on equal weight for determinism. The lowest
    # symbol is unique among live nodes, so member lists are never compared.
    heap = [(w, s, [s]) for s, w in enumerate(counts.tolist())]
    heapq.heapify(heap)
    lengths = [0] * k
    while len(heap) > 1:
        w1, m1, members1 = heapq.heappop(heap)
        w2, m2, members2 = heapq.heappop(heap)
        members = members1 + members2
        for s in members:  # every member moves one level deeper
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(m1, m2), members))
    return np.array(lengths, dtype=np.int32)


def _canonical_code(lengths: np.ndarray) -> HuffmanCode:
    """Assign codewords by (length, symbol index): each codeword is the Kraft
    sum of the codewords before it, scaled to its own length."""
    lengths = np.asarray(lengths, dtype=np.int32)
    k = lengths.shape[0]
    by_length = np.argsort(lengths, kind="stable")
    shift = (int(lengths.max(initial=0)) - lengths[by_length]).astype(np.uint64)
    step = np.uint64(1) << shift  # 2^-length in units of 2^-max_len
    codewords = np.empty(k, dtype=np.int64)
    codewords[by_length] = (np.cumsum(step, dtype=np.uint64) - step) >> shift
    keys = (np.uint64(1) << lengths.astype(np.uint64)) | codewords.astype(np.uint64)
    return HuffmanCode(lengths, codewords, dict(zip(keys.tolist(), range(k))))


def canonical_codewords(lengths: np.ndarray) -> np.ndarray:
    """Assign codewords by (length, symbol index)."""
    return _canonical_code(lengths).codewords


def build_huffman(counts: np.ndarray) -> HuffmanCode:
    """Optimal prefix code for the finalized frequency counts."""
    try:
        counts = np.asarray(counts, dtype=np.uint64)
    except OverflowError as exc:
        raise BitstreamError("frequency counts must fit in 64 unsigned bits") from exc
    if counts.size and counts.min() < 1:
        raise BitstreamError("frequency table must be finalized (all counts >= 1)")
    lengths = _huffman_lengths(counts)
    if lengths.max(initial=0) > MAX_CODE_LEN:
        raise BitstreamError(
            f"skewed frequency table: a {lengths.max()}-bit code exceeds the "
            f"{MAX_CODE_LEN}-bit codeword limit")
    return _canonical_code(lengths)


def kraft_sum(code: HuffmanCode) -> float:
    """Sum of 2^-len; exactly 1.0 for a full prefix code (exact arithmetic)."""
    max_len = int(code.lengths.max())
    total = sum(1 << (max_len - int(l)) for l in code.lengths)
    return total / (1 << max_len)


def mean_code_length(code: HuffmanCode) -> float:
    """Unweighted mean of the per-symbol code lengths (the rate model's L)."""
    return float(code.lengths.mean(dtype=np.float64))


def weighted_total_bits(code: HuffmanCode, counts: np.ndarray) -> int:
    return int((code.lengths.astype(np.int64) * np.asarray(counts, dtype=np.int64)).sum())


# ---------------------------------------------------------------------------
# payload coding

# The granularity map's fixed canonical code over `COARSE - label`: lengths
# (1, 2, 2) give coarse 0, medium 10 and fine 11.
MAP_CODE = _canonical_code(np.array([1, 2, 2]))


def prefix_encode(symbols: np.ndarray, code: HuffmanCode) -> np.ndarray:
    """Codewords of `symbols` in order, as a uint8 array of 0/1 bits."""
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    bad = symbols[(symbols < 0) | (symbols >= code.k)]
    if bad.size:
        raise BitstreamError(f"symbol {bad[0]} outside alphabet of size {code.k}")
    # 64 bits per symbol, MSB first; keep the last `length` of each row
    bits = np.unpackbits(code.codewords[symbols].astype(">u8").view(np.uint8))
    keep = np.arange(64) >= 64 - code.lengths[symbols, None]
    return bits.reshape(-1, 64)[keep]


def prefix_decode(bits: list[int], pos: int, count: int,
                  code: HuffmanCode) -> tuple[np.ndarray, int]:
    """Read `count` symbols from `bits[pos:]`, extending each codeword one bit
    at a time until it is one of the code's; returns them and the position
    after the last one."""
    symbols = code.symbols
    limit = 1 << int(code.lengths.max())
    out = np.empty(count, dtype=np.int32)
    try:
        for n in range(count):
            key = 1  # sentinel bit: keeps the codeword's length in the key
            while True:
                key = (key << 1) | bits[pos]
                pos += 1
                symbol = symbols.get(key)
                if symbol is not None:
                    out[n] = symbol
                    break
                if key >= limit:
                    raise BitstreamError("invalid prefix walk")
    except IndexError:
        raise BitstreamError("read past end of bit payload") from None
    return out, pos


# ---------------------------------------------------------------------------
# container

# magic, version, true and padded w/h, codebook hash, ratio parts p1..p3,
# fine/medium/coarse/map bit lengths; the CRC32 of these bytes follows
_HEADER = struct.Struct("<4sB4IQ3H4I")
_HEADER_SIZE = _HEADER.size + 4


@dataclass(frozen=True)
class Container:
    true_w: int
    true_h: int
    padded_w: int
    padded_h: int
    codebook_hash: int
    ratios: RatioTriple
    index_bits: tuple[int, int, int]  # fine, medium, coarse segment lengths
    map_bits: int
    payload: bytes  # map bits ++ fine ++ medium ++ coarse, zero-padded

    @property
    def payload_bit_length(self) -> int:
        return self.map_bits + sum(self.index_bits)

    @property
    def byte_length(self) -> int:
        return _HEADER_SIZE + len(self.payload)


def _ratio_parts(ratios: RatioTriple) -> tuple[int, int, int]:
    p1 = round(ratios.r1 * 10000)
    p2 = round(ratios.r2 * 10000)
    p3 = 10000 - p1 - p2
    if p3 < 0:  # both roundings went up; settle the difference on p2
        p2 += p3
        p3 = 0
    return p1, p2, p3


def serialize_container(c: Container) -> bytes:
    p1, p2, p3 = _ratio_parts(c.ratios)
    header = _HEADER.pack(
        CONTAINER_MAGIC, CONTAINER_VERSION,
        c.true_w, c.true_h, c.padded_w, c.padded_h,
        c.codebook_hash, p1, p2, p3,
        c.index_bits[0], c.index_bits[1], c.index_bits[2], c.map_bits,
    )
    header += zlib.crc32(header).to_bytes(4, "little")
    return header + c.payload


def parse_container(data: bytes) -> Container:
    if len(data) < _HEADER_SIZE:
        raise BitstreamError("container shorter than header")
    (magic, version, true_w, true_h, padded_w, padded_h, cb_hash,
     p1, p2, p3, bits_f, bits_m, bits_c, map_bits) = _HEADER.unpack_from(data)
    crc = int.from_bytes(data[_HEADER.size:_HEADER_SIZE], "little")
    if magic != CONTAINER_MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise BitstreamError(f"unsupported version {version}")
    if crc != zlib.crc32(data[:_HEADER.size]):
        raise BitstreamError("header CRC mismatch")
    if padded_w % 16 or padded_h % 16:
        raise BitstreamError("padded dims not multiples of 16")
    if not (0 < true_w <= padded_w and 0 < true_h <= padded_h):
        raise BitstreamError("true dims exceed padded dims")
    if padded_w - true_w >= 16 or padded_h - true_h >= 16:
        raise BitstreamError("padding exceeds one block")
    if p1 + p2 + p3 != 10000:
        raise BitstreamError("ratio fields do not sum to 1")
    blocks = padded_w * padded_h // 256
    if not blocks <= map_bits <= 2 * blocks:  # 1 or 2 bits per block label
        raise BitstreamError(f"map bit length {map_bits} impossible for {blocks} blocks")
    if padded_w * padded_h > MAX_PIXELS:
        raise BitstreamError(f"{padded_w}x{padded_h} padded pixels exceed the "
                             f"{MAX_PIXELS}-pixel limit")
    payload = data[_HEADER_SIZE:]
    total_bits = map_bits + bits_f + bits_m + bits_c
    if len(payload) != (total_bits + 7) // 8:
        raise BitstreamError("payload length inconsistent with header")
    # trailing pad bits must be zero
    if total_bits % 8 and payload:
        tail = payload[-1] & ((1 << (8 - total_bits % 8)) - 1)
        if tail:
            raise BitstreamError("nonzero padding bits")
    return Container(
        true_w=true_w, true_h=true_h, padded_w=padded_w, padded_h=padded_h,
        codebook_hash=cb_hash,
        ratios=RatioTriple(p1 / 10000, p2 / 10000, p3 / 10000),
        index_bits=(bits_f, bits_m, bits_c), map_bits=map_bits,
        payload=payload,
    )


def measure_rate(c: Container) -> tuple[float, float]:
    """(total bpp, payload-only bpp) over the true pixel count."""
    pixels = c.true_w * c.true_h
    total = 8.0 * c.byte_length / pixels
    payload = c.payload_bit_length / pixels
    return total, payload
