"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by its mean colour: mean
R, mean G and mean B of the normalized samples. The decoder paints a cell
with its code's colour, so every feature a code holds reaches a pixel. The
recipe is fixed: a stream's indices mean something only relative to this
transform and the codebook trained on its output.

Every sample is a multiple of 2**-31 and every 4x4 mean a multiple of
2**-35, both at most 1 in magnitude, so each float64 sum the pyramid forms
is exact and no summation order changes a bit.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane, avg_pool, normalize

FEATURES = 3  # channels per cell: mean R, G and B

#: Pixel rows normalized at a time, a multiple of 4 so that no 4x4 cell
#: straddles two bands; the float32 band buffer (12 B per pixel of a band)
#: is reused for every band.
_BAND_ROWS = 32


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (z1, z2, z3) float32 feature grids."""
    h, w, c = img.pixels.shape
    z1 = np.empty((h // 4, w // 4, c), dtype=np.float32)
    band = np.empty((min(h, _BAND_ROWS), w, c), dtype=np.float32)
    for top in range(0, h, _BAND_ROWS):
        rows = img.pixels[top:top + _BAND_ROWS]
        z1[top // 4:(top + len(rows)) // 4] = avg_pool(
            normalize(rows, out=band[:len(rows)]), 4)
    # medium and coarse are pooled from the fine means, so the cross-scale
    # pooling identity holds bit-exactly
    return z1, avg_pool(z1, 2), avg_pool(z1, 4)
