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


@dataclass(frozen=True)
class SynthesisSpec:
    """Decoder layers: d1, d2 upscale x2. Tests substitute layers to check
    replacement exactness."""

    d1: Callable[[np.ndarray], np.ndarray] = _up2
    d2: Callable[[np.ndarray], np.ndarray] = _up2


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


def synthesize_image(y3: np.ndarray, true_h: int, true_w: int) -> ImagePlane:
    """Fill each 4x4 pixel block with its fine cell's mean-RGB channels,
    clamped to [-1, 1]. Clamping and casting on the fine grid leaves one
    full-size allocation, the upsampled output."""
    rgb = np.clip(y3[..., :3], -1.0, 1.0).astype(np.float32, copy=False)
    return ImagePlane(nn_upsample(rgb, 4), true_h=true_h, true_w=true_w)
