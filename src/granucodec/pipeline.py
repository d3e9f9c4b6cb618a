"""Encode and decode around a shared codec session; encode and the CLI's stats
plan through one function, `plan_image` (ratios or a target bpp in, maps out).

A session is a frozen bundle of the codebook, its frequency table and what
follows from them: the Huffman code, its mean length L and the rate table
(the bpp at L of each ratio triple on the lattice), built once per table and
shared, read-only, by every session that holds it. Encoder and decoder must
load the same codebook file; the container header pins its content hash.
Only `bitstream.pack` and `bitstream.unpack` know the payload's layout.

A code is the colour the decoder paints (`Codebook.colours`). `reconstruct`
runs the paper's coarse-to-fine conditional-replacement chain: the coarse
stream's codes fill the block grid; each synthesis layer, here a
nearest-neighbour x2 upsampler, doubles it, and the medium, then the fine
stream replace the cells sent at their scale. Each 4x4 pixel cell is painted
with its code's colour.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import analysis, bitstream, granularity, vq
from .bitstream import BitstreamError, Container, HuffmanCode
from .granularity import RatioTriple
from .imaging import BLOCK, ImagePlane, nn_upsample
from .spatial_entropy import EntropyConfig, entropy_map
from .vq import Codebook, CodebookError, FrequencyTable


@dataclass(frozen=True, eq=False)
class CodecSession:
    codebook: Codebook
    frequencies: FrequencyTable
    huffman: HuffmanCode = field(init=False)
    mean_code_len: float = field(init=False)
    rate_table: np.ndarray = field(init=False)  # bpp at each granularity.LATTICE row
    entropy_cfg = EntropyConfig()  # the fixed recipe's; not a constructor argument

    def __post_init__(self):
        if self.frequencies.k != self.codebook.k:
            raise CodebookError("frequency table size does not match codebook")
        huffman, rate_table = _shared_code(self.frequencies.counts.tobytes())
        object.__setattr__(self, "huffman", huffman)
        object.__setattr__(self, "mean_code_len", huffman.mean_length)
        object.__setattr__(self, "rate_table", rate_table)

    @classmethod
    def from_file(cls, path) -> "CodecSession":
        return cls(*vq.load_codebook(path))


@functools.lru_cache(maxsize=2)
def _shared_code(data: bytes) -> tuple[HuffmanCode, np.ndarray]:
    """The Huffman code of the uint64 counts `data` holds and its rate table,
    built on first use and kept for the last two distinct tables: every
    session loaded from one codebook file shares one build (as vq._cached_index)."""
    code = bitstream.build_huffman(np.frombuffer(data, dtype=np.uint64))
    return code, granularity.build_rate_table(code.mean_length)


def quantize_streams(session: CodecSession, img: ImagePlane,
                     gmap: np.ndarray) -> tuple[tuple, list[np.ndarray]]:
    """Quantize only the mask-retained cells at each scale."""
    masks = granularity.masks_from_map(gmap)
    return masks, vq.quantize_masked(analysis.pyramid(img), masks, session.codebook)


def encode_with_map(session: CodecSession, img: ImagePlane,
                    gmap: np.ndarray) -> Container:
    """Encode with a granularity map, as `plan_image` or any caller gives it."""
    bitstream.check_size(img.true_w, img.true_h)
    by, bx = img.height // BLOCK, img.width // BLOCK
    if gmap.shape != (by, bx):
        raise ValueError(f"granularity map shape {gmap.shape} != {(by, bx)}")
    _, streams = quantize_streams(session, img, gmap)
    return bitstream.pack(img.true_w, img.true_h, session.codebook.id_hash, gmap, streams,
                          session.huffman)


def plan_image(session: CodecSession, img: ImagePlane, ratios: RatioTriple | None = None,
               target_bpp: float | None = None) -> tuple[RatioTriple, np.ndarray, np.ndarray]:
    """(ratios, entropy map, granularity map) for ratios or a target; size checked first."""
    if (ratios is None) == (target_bpp is None):
        raise ValueError("give exactly one of ratios or target_bpp")
    bitstream.check_size(img.true_w, img.true_h)
    if ratios is None:
        ratios = granularity.ratios_for_target(session.rate_table, target_bpp)
    emap = entropy_map(img, session.entropy_cfg)
    return ratios, emap, granularity.plan_granularity(emap, ratios)


def encode_image(session: CodecSession, img: ImagePlane, ratios: RatioTriple | None = None,
                 target_bpp: float | None = None) -> Container:
    return encode_with_map(session, img, plan_image(session, img, ratios, target_bpp)[2])


def decode_streams(session: CodecSession,
                   container: Container) -> tuple[np.ndarray, list[np.ndarray]]:
    """Recover the granularity map and the three index streams."""
    if container.codebook_hash != session.codebook.id_hash:
        raise BitstreamError("container was encoded with a different codebook")
    return bitstream.unpack(container, session.huffman)


def reconstruct(session: CodecSession, container: Container, gmap: np.ndarray,
                streams: list[np.ndarray]) -> ImagePlane:
    """Paint each 4x4 pixel cell with its code's colour (see the module doc)."""
    if len(streams) != 3:
        raise ValueError(f"{len(streams)} index streams, not 3 (fine, medium, coarse)")
    masks, k = granularity.masks_from_map(gmap), session.codebook.k
    codes = np.zeros(masks[2].shape, dtype=np.int32)  # holds every index below k <= 2^16
    for idx, mask, factor in zip(streams[::-1], masks[::-1], (1, 2, 2)):  # coarse first
        codes, idx = nn_upsample(codes, factor), np.asarray(idx)
        if idx.size != np.count_nonzero(mask):  # numpy would broadcast one index
            raise ValueError(f"stream of {idx.size} indices for {np.count_nonzero(mask)} cells")
        if idx.dtype.kind not in "iu" or idx.size and (idx.min() < 0 or idx.max() >= k):
            raise CodebookError(f"{idx.dtype} stream: indices must be integers in [0, {k})")
        codes[mask] = idx
    return ImagePlane(nn_upsample(session.codebook.colours[codes], 4),
                      true_h=container.true_h, true_w=container.true_w)


def decode_image(session: CodecSession, container: Container) -> ImagePlane:
    gmap, streams = decode_streams(session, container)
    return reconstruct(session, container, gmap, streams)
