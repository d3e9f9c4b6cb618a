"""A reference decoder for the .cgic container, version 4, written from the
format alone: it reads bytes with `struct`, `zlib` and numpy and walks the
prefix codes one bit at a time. It is slow; it describes the format and is
the tests' oracle for `pipeline.decode_image`.

Layout, integers little-endian:

    offset  size  field
    0       4     magic b"CGIC"
    4       1     version, 4
    5       4     true width w, > 0
    9       4     true height h, > 0
    13      8     codebook content hash (the .cgcb file's last 8 bytes)
    21      12    bit lengths of the fine, medium and coarse index streams
    33      4     bit length of the granularity map
    37      4     CRC-32 (zlib) of bytes 0-36 followed by the payload
    41      ...   payload: map, fine, medium and coarse bits, each symbol's
                  codeword most significant bit first, zero bits to a byte

The image is padded to W x H, w and h rounded up to multiples of 16, at most
2^26 pixels: by x bx blocks of 16x16 pixels. The map sends one label per
block, in raster order, as 2 - label (fine 0, medium 1, coarse 2) in the
canonical code of lengths (1, 2, 2): coarse 0, medium 10, fine 11. A scale's
cells are 4x4, 8x8 or 16x16 pixels, in a (H/4, W/4), (H/8, W/8) or (by, bx)
grid; its stream sends the code of each cell of a block with its label, in
raster order of that grid: 16, 4 or 1 per block. The index streams use the
canonical code of the codebook's code lengths: symbols in (length, symbol)
order take consecutive codewords, shifted left as the length grows. Every
segment ends exactly at its stated length. Each cell is painted flat with
its code's colour.
"""

import struct
import zlib

import numpy as np

HEADER = struct.Struct("<4sB2IQ4I")  # the CRC-32 follows
MAX_PIXELS = 1 << 26


class Refused(ValueError):
    """Bytes that are not a container this decoder reads."""


def check(ok, why):
    if not ok:
        raise Refused(why)


def canonical(lengths) -> dict:
    """{(length, codeword): symbol} of the canonical code of per-symbol lengths."""
    table, code, last = {}, 0, 0
    for length, symbol in sorted((int(n), s) for s, n in enumerate(lengths)):
        code <<= length - last
        table[length, code], code, last = symbol, code + 1, length
    return table


def read(bits, pos, stop, count, table) -> list:
    """`count` symbols from bits[pos:stop], which they fill exactly."""
    longest, out = max(n for n, _ in table), []
    for _ in range(count):
        length = code = 0
        while (length, code) not in table:
            check(pos < stop and length < longest, "no codeword before the segment ends")
            code, length, pos = code << 1 | bits[pos], length + 1, pos + 1
        out.append(table[length, code])
    check(pos == stop, "segment bits left over")
    return out


def decode(data: bytes, lengths, colours, codebook_hash: int):
    """(true_h, true_w, pixels): the padded (H, W, 3) uint8 image the
    container holds, for a codebook of the given code lengths, colours and
    content hash; `Refused` for anything else."""
    check(len(data) >= HEADER.size + 4, "shorter than the header")
    magic, version, w, h, hash_, *index_bits, map_bits = HEADER.unpack_from(data)
    check(magic == b"CGIC" and version == 4, "not a version-4 container")
    payload = data[HEADER.size + 4:]
    crc = zlib.crc32(data[:HEADER.size] + payload)
    check(data[HEADER.size:HEADER.size + 4] == struct.pack("<I", crc), "CRC")
    H, W = -(-h // 16) * 16, -(-w // 16) * 16
    check(w > 0 and h > 0 and H * W <= MAX_PIXELS, "size")
    by, bx = H // 16, W // 16
    check(by * bx <= map_bits <= 2 * by * bx, "map length")
    total = map_bits + sum(index_bits)
    check(len(payload) == -(-total // 8), "payload length")
    bits = np.unpackbits(np.frombuffer(payload, np.uint8)).tolist()
    check(not any(bits[total:]), "padding bits")
    check(hash_ == codebook_hash, "another codebook")

    labels = read(bits, 0, map_bits, by * bx, canonical([1, 2, 2]))
    gmap = 2 - np.array(labels, dtype=np.int64).reshape(by, bx)
    table, pos, pixels = canonical(lengths), map_bits, np.zeros((H, W, 3), np.uint8)
    for label, side, n in zip((0, 1, 2), (4, 8, 16), index_bits):
        per = 16 // side  # cells per block side
        mask = (gmap == label).repeat(per, 0).repeat(per, 1)
        grid = np.zeros(mask.shape, dtype=np.int64)
        grid[mask] = read(bits, pos, pos + n, int(mask.sum()), table)  # raster order
        pos += n
        at = mask.repeat(side, 0).repeat(side, 1)  # the scale's pixels
        pixels[at] = np.asarray(colours)[grid].repeat(side, 0).repeat(side, 1)[at]
    return h, w, pixels
