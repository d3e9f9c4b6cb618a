"""Seeded fuzzing of the container and codebook readers.

Every mutated input must either decode cleanly or raise `BitstreamError` /
`CodebookError`, and no case may take longer than `CASE_SECONDS`: a hostile
header must not make the decoder allocate or loop beyond the input's size.
"""

import struct
import time
import zlib

import numpy as np
import pytest

from granucodec import pipeline, vq
from granucodec.bitstream import BitstreamError, parse_container, serialize_container
from granucodec.granularity import RatioTriple
from granucodec.vq import CodebookError

from conftest import make_image

CASE_SECONDS = 2.0  # clean cases take milliseconds; this only catches blowups

_FIELDS = "<4sB4IQ3H4I"  # container header before its CRC
_FIELD_BITS = [None, 8, 32, 32, 32, 32, 64, 16, 16, 16, 32, 32, 32, 32]
_CODEBOOK_HEADER = 9  # magic, version, k, d


def _run(case):
    """'ok' or the error's type and message; raises on any other exception."""
    start = time.perf_counter()
    try:
        case()
        outcome = "ok"
    except (BitstreamError, CodebookError) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    assert elapsed < CASE_SECONDS, f"case took {elapsed:.2f} s ({outcome})"
    return outcome


def _decode(session, data):
    c = parse_container(data)
    out = pipeline.decode_image(session, c)
    assert (out.true_h, out.true_w) == (c.true_h, c.true_w)
    assert np.isfinite(out.samples).all()


def _rewrite_field(rng, data):
    """Set one header field to a hostile value and recompute the CRC."""
    fields = list(struct.unpack_from(_FIELDS, data, 0))
    i = int(rng.integers(1, len(fields)))
    top = (1 << _FIELD_BITS[i]) - 1
    old = fields[i]
    candidates = [0, 1, top, old + 1, old - 1, old + 16, old - 16, old * 2, old // 2,
                  int(rng.integers(0, top, dtype=np.uint64))]
    fields[i] = min(max(candidates[int(rng.integers(len(candidates)))], 0), top)
    header = struct.pack(_FIELDS, *fields)
    return header + struct.pack("<I", zlib.crc32(header)) + data[len(header) + 4:]


def _bit_flips(rng, data, n, start):
    """`n` copies of `data` with one to three bits flipped past `start`."""
    for _ in range(n):
        out = bytearray(data)
        for bit in rng.choice(8 * (len(data) - start), size=int(rng.integers(1, 4))):
            out[start + bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(out)


def _byte_flips(rng, data, n):
    """`n` copies of `data` with one to three bytes XORed with a random mask."""
    for _ in range(n):
        out = bytearray(data)
        for pos in rng.choice(len(data), size=int(rng.integers(1, 4))):
            out[pos] ^= int(rng.integers(1, 256))
        yield bytes(out)


def _resizes(rng, data, n):
    """`n` random truncations and `n` extensions by 1 to 16 random bytes."""
    for _ in range(n):
        yield data[:int(rng.integers(0, len(data)))]
    for _ in range(n):
        yield data + rng.bytes(int(rng.integers(1, 17)))


@pytest.fixture(scope="module")
def encoded(small_session):
    img = make_image("photo", 80, 96, seed=21)
    c = pipeline.encode_image(small_session, img, ratios=RatioTriple(0.4, 0.4, 0.2))
    assert all(c.index_bits)  # every segment of the payload is present
    return serialize_container(c)


def test_container_fuzz(small_session, encoded):
    rng = np.random.default_rng(2024)
    header_len = struct.calcsize(_FIELDS) + 4
    rewrites = [_rewrite_field(rng, encoded) for _ in range(1000)]
    cases = [*_bit_flips(rng, encoded, 1000, header_len), *_resizes(rng, encoded, 500),
             *rewrites]
    outcomes = [_run(lambda d=d: _decode(small_session, d)) for d in cases]
    assert "ok" in outcomes
    assert any("past end" in o for o in outcomes)
    assert not any("CRC" in o for o in outcomes[-len(rewrites):])


def test_codebook_fuzz(small_session, encoded, tmp_path):
    path = tmp_path / "cb.cgcb"
    vq.save_codebook(small_session.codebook, small_session.frequencies, path)
    data = path.read_bytes()
    rng = np.random.default_rng(2025)
    cases = [data[:n] for n in range(_CODEBOOK_HEADER)]
    cases += _byte_flips(rng, data, 391)
    cases += _resizes(rng, data, 100)

    def load_and_decode(blob):
        path.write_bytes(blob)
        _decode(pipeline.CodecSession.from_file(path), encoded)

    outcomes = [_run(lambda b=b: load_and_decode(b)) for b in cases]
    assert all(o.startswith("CodebookError") for o in outcomes[:_CODEBOOK_HEADER])
    # flipped frequency counts pass the codebook checks and reach the decoder
    assert any(o.startswith("BitstreamError") for o in outcomes)
