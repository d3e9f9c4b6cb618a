"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by its mean colour: mean
R, mean G and mean B of the normalized samples. The decoder paints a cell
with its code's colour, so every feature a code holds reaches a pixel. The
recipe is fixed: a stream's indices mean something only relative to this
transform and the codebook trained on its output.

One kernel, `_pool`, makes all three scales: the 4x4 means from the samples,
the 8x8 and 16x16 means from the 4x4 ones. Every sample is a multiple of
2**-31 and every 4x4 mean a multiple of 2**-35, both at most 1 in magnitude,
so each float64 sum the pyramid forms is exact and no summation order
changes a bit. So `_pool` sums in the order that costs least: the f rows of
each cell row first, then the f columns of each cell.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane, normalize

FEATURES = 3  # channels per cell: mean R, G and B

#: Pixel rows normalized at a time, a multiple of 4 so that no 4x4 cell
#: straddles two bands. A band's float32 samples take 12 B per band pixel and
#: `_pool`'s float64 row sums 6 B; z2 and z3 are pooled from the whole z1.
_BAND_ROWS = 32


def _pool(grid: np.ndarray, f: int) -> np.ndarray:
    """The float32 means of the f x f cells of an (h, w, c) grid."""
    h, w, c = grid.shape
    rows = grid[0::f].astype(np.float64)
    for i in range(1, f):
        rows += grid[i::f]
    # one pass over each cell's f columns; adds of strided column views
    # would loop over the c channels of one position at a time
    cells = np.einsum("ijkc->ijc", rows.reshape(h // f, w // f, f, c))
    cells /= f * f
    return cells.astype(np.float32)


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (z1, z2, z3) float32 feature grids."""
    h, w, c = img.pixels.shape
    z1 = np.empty((h // 4, w // 4, c), dtype=np.float32)
    for top in range(0, h, _BAND_ROWS):
        z1[top // 4:(top + _BAND_ROWS) // 4] = _pool(
            normalize(img.pixels[top:top + _BAND_ROWS]), 4)
    # medium and coarse are pooled from the fine means, so the cross-scale
    # pooling identity holds bit-exactly
    return z1, _pool(z1, 2), _pool(z1, 4)
