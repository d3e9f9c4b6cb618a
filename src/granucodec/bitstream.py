"""Canonical Huffman coding of VQ indices, granularity-map serialization,
the .cgic container format, and rate measurement.

The code is canonical: only the per-symbol lengths matter, codewords are
assigned in (length, symbol) order, so encoder and decoder agree given the
shared frequency table. The container header carries everything needed to
slice the single concatenated bit payload back into the granularity map and
the three index streams; a CRC32 over the header makes corruption loud.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .granularity import COARSE, FINE, MEDIUM, RatioTriple

CONTAINER_MAGIC = b"CGIC"
CONTAINER_VERSION = 1

# Codewords are held in int64, so no code may be longer than this.
MAX_CODE_LEN = 63

# Fixed prefix code for granularity labels, cheapest symbol on coarse.
_MAP_CODE = {COARSE: (1, 0b0), MEDIUM: (2, 0b10), FINE: (2, 0b11)}


class BitstreamError(Exception):
    """Corrupt container, truncated payload or invalid prefix walk."""


# ---------------------------------------------------------------------------
# bit packing

class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bit_length = 0

    def write(self, value: int, nbits: int) -> None:
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        self.bit_length += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        """Flush, zero-padding the final partial byte."""
        out = bytes(self._bytes)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """MSB-first bit cursor over a byte string."""

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = data
        self.pos = 0
        self.limit = len(data) * 8 if bit_length is None else bit_length

    def read_bit(self) -> int:
        if self.pos >= self.limit:
            raise BitstreamError("read past end of bit payload")
        byte = self._data[self.pos >> 3]
        bit = (byte >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit


# ---------------------------------------------------------------------------
# canonical Huffman

@dataclass(frozen=True)
class HuffmanCode:
    """Canonical prefix code: lengths, (length, symbol)-ordered codewords, and
    the decode tables both are derived from."""

    lengths: np.ndarray  # (k,) int32
    codewords: np.ndarray  # (k,) int64
    order: tuple[int, ...]  # symbols in (length, symbol) order
    # indexed by code length 0..max_len: first codeword, its position in
    # `order`, and the number of symbols of that length
    first_code: tuple[int, ...]
    first_index: tuple[int, ...]
    count_by_len: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.lengths.shape[0]


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    k = counts.shape[0]
    if k == 1:
        return np.ones(1, dtype=np.int32)  # degenerate alphabet, 1 explicit bit
    # heap entries: (weight, lowest contained symbol, node); merging prefers
    # low aggregate symbol index on equal weight for determinism
    heap = [(int(counts[s]), s, s) for s in range(k)]
    heapq.heapify(heap)
    parent: dict[int, int] = {}
    next_node = k
    while len(heap) > 1:
        w1, m1, n1 = heapq.heappop(heap)
        w2, m2, n2 = heapq.heappop(heap)
        parent[n1] = next_node
        parent[n2] = next_node
        heapq.heappush(heap, (w1 + w2, min(m1, m2), next_node))
        next_node += 1
    lengths = np.zeros(k, dtype=np.int32)
    for s in range(k):
        node, depth = s, 0
        while node in parent:
            node = parent[node]
            depth += 1
        lengths[s] = depth
    return lengths


def _canonical_code(lengths: np.ndarray) -> HuffmanCode:
    """Assign codewords by (length, symbol index) and build the decode tables."""
    lengths = np.asarray(lengths, dtype=np.int32)
    order = np.argsort(lengths, kind="stable")
    count_by_len = np.bincount(lengths, minlength=int(lengths.max(initial=0)) + 1).tolist()
    first_code, first_index = [0], [0]
    code = index = 0
    for length in range(1, len(count_by_len)):
        first_code.append(code)
        first_index.append(index)
        code = (code + count_by_len[length]) << 1
        index += count_by_len[length]
    sorted_len = lengths[order]
    codewords = np.zeros(lengths.shape[0], dtype=np.int64)
    codewords[order] = (np.array(first_code, dtype=np.int64)[sorted_len]
                        + np.arange(lengths.shape[0])
                        - np.array(first_index)[sorted_len])
    return HuffmanCode(lengths, codewords, tuple(order.tolist()), tuple(first_code),
                       tuple(first_index), tuple(count_by_len))


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

def encode_indices(stream: np.ndarray, code: HuffmanCode, writer: BitWriter) -> int:
    """Append one index stream to the writer; returns its bit length."""
    start = writer.bit_length
    lengths, words = code.lengths, code.codewords
    for sym in np.asarray(stream).ravel():
        s = int(sym)
        if not 0 <= s < code.k:
            raise BitstreamError(f"symbol {s} outside alphabet of size {code.k}")
        writer.write(int(words[s]), int(lengths[s]))
    return writer.bit_length - start


def decode_indices(reader: BitReader, count: int, code: HuffmanCode) -> np.ndarray:
    """Read `count` symbols via a canonical prefix walk."""
    order, first_code = code.order, code.first_code
    first_index, count_by_len = code.first_index, code.count_by_len
    max_len = len(count_by_len) - 1
    out = np.empty(count, dtype=np.int32)
    for n in range(count):
        value = 0
        length = 0
        while True:
            value = (value << 1) | reader.read_bit()
            length += 1
            if length > max_len:
                raise BitstreamError("invalid prefix walk")
            offset = value - first_code[length]
            if 0 <= offset < count_by_len[length]:
                out[n] = order[first_index[length] + offset]
                break
    return out


def encode_granularity_map(gmap: np.ndarray, writer: BitWriter) -> int:
    """Raster-order prefix coding of block labels; returns bit length."""
    start = writer.bit_length
    for label in np.asarray(gmap).ravel():
        nbits, word = _MAP_CODE[int(label)]
        writer.write(word, nbits)
    return writer.bit_length - start


def decode_granularity_map(reader: BitReader, blocks_y: int, blocks_x: int) -> np.ndarray:
    labels = np.empty(blocks_y * blocks_x, dtype=np.uint8)
    for n in range(labels.size):
        if reader.read_bit() == 0:
            labels[n] = COARSE
        elif reader.read_bit() == 0:
            labels[n] = MEDIUM
        else:
            labels[n] = FINE
    return labels.reshape(blocks_y, blocks_x)


# ---------------------------------------------------------------------------
# container

_HEADER_FMT = "<4sB4I Q 3H 4I I"  # magic..map bits, then crc32
_HEADER_SIZE = struct.calcsize(_HEADER_FMT.replace(" ", ""))


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
    header = struct.pack(
        "<4sB4IQ3H4I",
        CONTAINER_MAGIC, CONTAINER_VERSION,
        c.true_w, c.true_h, c.padded_w, c.padded_h,
        c.codebook_hash, p1, p2, p3,
        c.index_bits[0], c.index_bits[1], c.index_bits[2], c.map_bits,
    )
    header += struct.pack("<I", zlib.crc32(header))
    return header + c.payload


def parse_container(data: bytes) -> Container:
    if len(data) < _HEADER_SIZE:
        raise BitstreamError("container shorter than header")
    base = _HEADER_SIZE - 4
    (magic, version, true_w, true_h, padded_w, padded_h, cb_hash,
     p1, p2, p3, bits_f, bits_m, bits_c, map_bits) = struct.unpack_from(
        "<4sB4IQ3H4I", data, 0)
    (crc,) = struct.unpack_from("<I", data, base)
    if magic != CONTAINER_MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise BitstreamError(f"unsupported version {version}")
    if crc != zlib.crc32(data[:base]):
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
