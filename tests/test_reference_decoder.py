"""A differential fuzz of `pipeline.decode_image` against `reference_decoder`,
which is written from the container format alone. On valid containers, on
byte mutations resealed with a good CRC, and on mutations that still decode
(a codeword swapped for another of its length; a block's label changed with
the streams that follow from it), both decoders paint the same pixels or
both refuse."""

import zlib

import numpy as np
import pytest

import reference_decoder
from conftest import make_image
from granucodec import analysis, pipeline, vq
from granucodec.bitstream import pack, parse_container, serialize_container
from granucodec.granularity import RatioTriple, masks_from_map

HEAD = reference_decoder.HEADER.size  # the CRC-32 follows


def decoded(session, data):
    """(codec, reference): each decoder's (true_h, true_w, pixels), or None
    where it refuses the bytes."""
    try:
        img = pipeline.decode_image(session, parse_container(data))
        codec = img.true_h, img.true_w, img.pixels
    except ValueError:
        codec = None
    cb = session.codebook
    try:
        ref = reference_decoder.decode(data, session.huffman.lengths, cb.colours, cb.id_hash)
    except reference_decoder.Refused:
        ref = None
    return codec, ref


def agree(session, data) -> bool:
    """Whether the bytes decode, once both decoders agree on them."""
    codec, ref = decoded(session, data)
    assert (codec is None) == (ref is None)
    if codec is not None:
        assert codec[:2] == ref[:2] and np.array_equal(codec[2], ref[2])
    return codec is not None


def reseal(data: bytes) -> bytes:
    """The bytes with a CRC-32 that matches the rest of them."""
    head, payload = data[:HEAD], data[HEAD + 4:]
    return head + zlib.crc32(head + payload).to_bytes(4, "little") + payload


def streams_of(gmap, grids):
    """Each scale's stream: the codes of the cells its mask keeps, raster order."""
    return [grid[mask] for grid, mask in zip(grids, masks_from_map(gmap))]


def container(session, h, w, gmap, grids) -> bytes:
    """The container of a map and a code for every cell of every scale."""
    return serialize_container(pack(w, h, session.codebook.id_hash, gmap,
                                    streams_of(gmap, grids), session.huffman))


@pytest.fixture(scope="module")
def cases(session):
    """(h, w, gmap, grids, bytes) of 360 valid containers: 60 encodes of test
    images of random size at random ratios, whose bytes are the encoder's,
    and 300 of random size, map and codes."""
    rng = np.random.default_rng(90)
    kinds = ["noise", "gradient", "blocky", "photo", "waves"]
    out = []
    for i in range(360):
        if i < 60:
            img = make_image(kinds[i % 5], *rng.integers(16, 81, size=2), seed=200 + i)
            h, w = img.true_h, img.true_w
            _, _, gmap = pipeline.plan_image(session, img, RatioTriple(*rng.dirichlet([1] * 3)))
            grids = [vq.quantize(grid, session.codebook)[0] for grid in analysis.pyramid(img)]
            data = container(session, h, w, gmap, grids)
            assert data == serialize_container(pipeline.encode_with_map(session, img, gmap))
        else:
            h, w = rng.integers(1, 81, size=2).tolist()
            by, bx = -(-h // 16), -(-w // 16)
            gmap = rng.integers(0, 3, size=(by, bx)).astype(np.uint8)
            grids = [rng.integers(0, session.codebook.k, size=(16 * by // s, 16 * bx // s))
                     for s in (4, 8, 16)]
            data = container(session, h, w, gmap, grids)
        out.append((h, w, gmap, grids, data))
    return out


def test_valid_containers_decode_alike(session, cases):
    assert all(agree(session, data) for *_, data in cases)


def test_resealed_byte_mutations_agree(session, cases):
    # one to three bytes of the header or payload replaced, or the last
    # byte cut or doubled, then resealed, so the CRC refuses none of them
    rng = np.random.default_rng(91)
    outcomes = []
    for _ in range(1200):
        data = bytearray(cases[rng.integers(len(cases))][-1])
        cut = rng.integers(4)
        if cut == 0:
            data = data[:-1]
        elif cut == 1:
            data += data[-1:]
        else:
            for at in rng.choice(np.r_[0:HEAD, HEAD + 4:len(data)], size=cut - 1):
                data[at] = (data[at] + rng.integers(1, 256)) % 256
        outcomes.append(agree(session, reseal(bytes(data))))
    assert 0 < sum(outcomes) < len(outcomes)  # some decode, the others are refused


def test_codeword_swaps_decode_alike(session, cases):
    # one index codeword replaced in place by another of its length: the
    # payload still decodes, to another code in that cell
    rng = np.random.default_rng(92)
    lengths = session.huffman.lengths
    codeword = {s: c for (_, c), s in reference_decoder.canonical(lengths).items()}
    swaps = 0
    for h, w, gmap, grids, data in (cases[i] for i in rng.integers(len(cases), size=200)):
        _, _, _, _, _, *index_bits, map_bits = reference_decoder.HEADER.unpack_from(data)
        scale = rng.integers(3)
        stream = streams_of(gmap, grids)[scale]
        if not stream.size:
            continue
        i = rng.integers(stream.size)
        n = lengths[stream[i]]
        others = np.flatnonzero((lengths == n) & (np.arange(lengths.size) != stream[i]))
        if not others.size:
            continue
        at = map_bits + sum(index_bits[:scale]) + int(lengths[stream[:i]].sum())
        bits = np.unpackbits(np.frombuffer(data[HEAD + 4:], np.uint8))
        bits[at:at + n] = (codeword[rng.choice(others)] >> np.arange(n - 1, -1, -1)) & 1
        assert agree(session, reseal(data[:HEAD + 4] + np.packbits(bits).tobytes()))
        swaps += 1
    assert swaps > 100


def test_label_changes_decode_alike(session, cases):
    # one block's label changed, with the map and stream lengths and the
    # streams that follow from it: another valid container
    rng = np.random.default_rng(93)
    for h, w, gmap, grids, data in (cases[i] for i in rng.integers(len(cases), size=200)):
        moved = gmap.copy()
        at = tuple(rng.integers(gmap.shape))
        moved[at] = (moved[at] + rng.integers(1, 3)) % 3
        changed = container(session, h, w, moved, grids)
        assert changed[HEAD - 16:HEAD] != data[HEAD - 16:HEAD]  # the four bit lengths
        assert agree(session, changed)
