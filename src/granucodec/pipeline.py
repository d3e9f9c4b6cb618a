"""End-to-end encode/decode orchestration around a shared codec session.

A session bundles the codebook, its finalized frequency table, the Huffman
code built from it, and the rate query table keyed by that code's mean
length. Encoder and decoder must load the same codebook file; the container
header pins its content hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import analysis, bitstream, granularity, reconstruction, vq
from .bitstream import MAP_CODE, BitstreamError, Container, HuffmanCode
from .granularity import (
    COARSE, FINE, INDICES_PER_BLOCK, MEDIUM, MaskSet, RatioTriple, RateQueryTable)
from .imaging import BLOCK, ImagePlane
from .spatial_entropy import EntropyConfig, entropy_map
from .vq import Codebook, FrequencyTable


@dataclass
class CodecSession:
    codebook: Codebook
    frequencies: FrequencyTable
    huffman: HuffmanCode = field(init=False)
    rate_table: RateQueryTable = field(init=False)
    entropy_cfg = EntropyConfig()  # the fixed recipe's; not a constructor argument

    def __post_init__(self):
        if not self.frequencies.smoothed:
            raise ValueError("session requires a finalized frequency table")
        if self.frequencies.k != self.codebook.k:
            raise ValueError("frequency table size does not match codebook")
        self.huffman = bitstream.build_huffman(self.frequencies.counts)
        self.rate_table = granularity.build_rate_table(
            bitstream.mean_code_length(self.huffman))

    @property
    def mean_code_len(self) -> float:
        return self.rate_table.mean_code_len

    @classmethod
    def from_file(cls, path) -> "CodecSession":
        cb, tbl = vq.load_codebook(path)
        return cls(cb, tbl)


def quantize_streams(session: CodecSession, img: ImagePlane,
                     gmap: np.ndarray) -> tuple[MaskSet, list[np.ndarray]]:
    """Quantize only the mask-retained cells at each scale."""
    masks = granularity.masks_from_map(gmap)
    return masks, vq.quantize_masked(analysis.pyramid(img), masks, session.codebook)


def _check_decodable(img: ImagePlane) -> None:
    """Refuse a plane whose container no decoder would read."""
    if img.height * img.width > bitstream.MAX_PIXELS:
        raise ValueError(f"{img.width}x{img.height} padded pixels exceed the "
                         f"{bitstream.MAX_PIXELS}-pixel limit")


def encode_with_map(session: CodecSession, img: ImagePlane,
                    gmap: np.ndarray) -> Container:
    """Encode with an explicit granularity map (the planner normally
    supplies it; tests and manual overrides can too)."""
    _check_decodable(img)
    by, bx = img.height // BLOCK, img.width // BLOCK
    if gmap.shape != (by, bx):
        raise ValueError(f"granularity map shape {gmap.shape} != {(by, bx)}")
    _, streams = quantize_streams(session, img, gmap)
    map_seg = bitstream.prefix_encode(COARSE - gmap.astype(np.int64), MAP_CODE)
    index_segs = [bitstream.prefix_encode(s, session.huffman) for s in streams]
    return Container(
        true_w=img.true_w, true_h=img.true_h,
        padded_w=img.width, padded_h=img.height,
        codebook_hash=session.codebook.id_hash,
        ratios=granularity.map_ratios(gmap),
        index_bits=tuple(seg.size for seg in index_segs), map_bits=map_seg.size,
        payload=np.packbits(np.concatenate([map_seg, *index_segs])).tobytes(),
    )


def encode_image(session: CodecSession, img: ImagePlane,
                 ratios: RatioTriple | None = None,
                 target_bpp: float | None = None) -> Container:
    if (ratios is None) == (target_bpp is None):
        raise ValueError("give exactly one of ratios or target_bpp")
    _check_decodable(img)
    if ratios is None:
        ratios = granularity.ratios_for_target(session.rate_table, target_bpp)
    emap = entropy_map(img, session.entropy_cfg)
    gmap = granularity.plan_granularity(emap, ratios)
    return encode_with_map(session, img, gmap)


def decode_streams(session: CodecSession,
                   container: Container) -> tuple[np.ndarray, list[np.ndarray]]:
    """Recover the granularity map and the three index streams."""
    if container.codebook_hash != session.codebook.id_hash:
        raise BitstreamError("container was encoded with a different codebook")
    by = container.padded_h // BLOCK
    bx = container.padded_w // BLOCK
    bits = np.unpackbits(np.frombuffer(container.payload, dtype=np.uint8),
                         count=container.payload_bit_length).tolist()
    labels, pos = bitstream.prefix_decode(bits, 0, by * bx, MAP_CODE)
    if pos != container.map_bits:
        raise BitstreamError("granularity map bit length mismatch")
    gmap = (COARSE - labels).astype(np.uint8).reshape(by, bx)
    counts = granularity.label_counts(gmap)
    expected = [INDICES_PER_BLOCK[lbl] * counts[lbl] for lbl in (FINE, MEDIUM, COARSE)]
    streams = []
    for n_symbols, declared in zip(expected, container.index_bits):
        stream, end = bitstream.prefix_decode(bits, pos, n_symbols, session.huffman)
        if end - pos != declared:
            raise BitstreamError("index segment bit length mismatch")
        streams.append(stream)
        pos = end
    return gmap, streams


def reconstruct(session: CodecSession, container: Container, gmap: np.ndarray,
                streams: list[np.ndarray]) -> ImagePlane:
    masks = granularity.masks_from_map(gmap)
    d = session.codebook.d
    grids = []
    for idx, mask in zip(streams, (masks.m1, masks.m2, masks.m3)):
        grid = np.zeros(mask.shape + (d,), dtype=np.float32)
        grid[mask.astype(bool)] = vq.lookup(idx, session.codebook)
        grids.append(grid)
    z_hat = reconstruction.assemble_hybrid(grids[0], grids[1], grids[2], masks)
    y3 = reconstruction.conditional_decode(z_hat, masks)
    return reconstruction.synthesize_image(y3, container.true_h, container.true_w)


def decode_image(session: CodecSession, container: Container) -> ImagePlane:
    gmap, streams = decode_streams(session, container)
    return reconstruct(session, container, gmap, streams)
