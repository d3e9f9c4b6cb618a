"""Hybrid multi-scale assembly and the conditional-replacement decoder.

The hybrid grid stitches quantized features of all three scales onto the
fine grid. On the decoding side, each synthesis layer's output is
overwritten, at positions a mask marks as exactly known, with the feature
values recovered from the bitstream; whatever the layers do, masked
positions stay bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .granularity import MaskSet
from .imaging import ImagePlane, avg_pool, nn_upsample


def _up2(grid: np.ndarray) -> np.ndarray:
    return nn_upsample(grid, 2)


def _mean_rgb_painter(y3: np.ndarray) -> np.ndarray:
    """Fill each 4x4 pixel block with the cell's mean-RGB channels."""
    rgb = np.clip(y3[..., :3], -1.0, 1.0)
    return nn_upsample(rgb, 4).astype(np.float32)


@dataclass(frozen=True)
class SynthesisSpec:
    """Decoder layers: d1, d2 upscale x2; painter maps the fine feature grid
    to pixels. Tests substitute layers to check replacement exactness."""

    d1: Callable[[np.ndarray], np.ndarray] = _up2
    d2: Callable[[np.ndarray], np.ndarray] = _up2
    painter: Callable[[np.ndarray], np.ndarray] = _mean_rgb_painter


DEFAULT_SYNTHESIS = SynthesisSpec()


def _masked(grid: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grid * mask[..., None].astype(grid.dtype)


def assemble_hybrid(q1: np.ndarray, q2: np.ndarray, q3: np.ndarray,
                    masks: MaskSet) -> np.ndarray:
    """Stitch the three quantized grids onto the fine grid via the masks."""
    if q1.shape[:2] != masks.m1.shape or q2.shape[:2] != masks.m2.shape \
            or q3.shape[:2] != masks.m3.shape:
        raise ValueError("feature grid / mask scale mismatch")
    return (
        _masked(q1, masks.m1)
        + nn_upsample(_masked(q2, masks.m2), 2)
        + nn_upsample(_masked(q3, masks.m3), 4)
    )


def conditional_decode(z_hat: np.ndarray, masks: MaskSet,
                       spec: SynthesisSpec = DEFAULT_SYNTHESIS) -> np.ndarray:
    """Run the synthesis layers, replacing exactly-known positions after
    each layer. Returns the fine-scale feature grid y3."""
    y1 = avg_pool(z_hat, 4)
    y2 = _masked(spec.d1(y1), 1 - masks.m2) + _masked(avg_pool(z_hat, 2), masks.m2)
    y3 = _masked(spec.d2(y2), 1 - masks.m1) + _masked(z_hat, masks.m1)
    return y3


def synthesize_image(y3: np.ndarray, true_h: int, true_w: int,
                     spec: SynthesisSpec = DEFAULT_SYNTHESIS) -> ImagePlane:
    """Paint pixels from the fine feature grid; samples stay in [-1, 1]."""
    pixels = np.clip(spec.painter(y3), -1.0, 1.0).astype(np.float32)
    return ImagePlane(pixels, true_h=true_h, true_w=true_w)
