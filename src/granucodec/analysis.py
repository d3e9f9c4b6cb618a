"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by four channels: mean R,
mean G, mean B, and the standard deviation of the luminance (R+G+B)/3. The
recipe is fixed: a stream's indices mean something only relative to this
transform and the codebook trained on its output.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane, avg_pool


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (z1, z2, z3) float32 feature grids."""
    # float64 accumulators add the float32 samples exactly: no float64 copy
    lum = img.samples.mean(axis=2, dtype=np.float64)

    def grid(scale: int, means: np.ndarray) -> np.ndarray:
        h, w = lum.shape
        blocks = lum.reshape(h // scale, scale, w // scale, scale)
        mu = blocks.mean(axis=(1, 3))
        var = ((blocks - mu[:, None, :, None]) ** 2).mean(axis=(1, 3))
        std = np.sqrt(var)
        return np.concatenate([means, std[..., None]], axis=2).astype(np.float32)

    # Means at medium/coarse are pooled from the fine means so the
    # cross-scale pooling identity holds bit-exactly.
    m1 = avg_pool(img.samples, 4)
    z1 = grid(4, m1)
    z2 = grid(8, avg_pool(m1, 2))
    z3 = grid(16, avg_pool(m1, 4))
    return z1, z2, z3
