"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by its mean colour: mean
R, mean G and mean B of the normalized samples. The decoder paints a cell
with its code's colour, so every feature a code holds reaches a pixel. The
recipe is fixed: a stream's indices mean something only relative to this
transform and the codebook trained on its output.

One kernel, `_cell_sums`, sums the bytes of every cell in uint16: the 4x4
sums from the pixels, the 8x8 sums as 2x2 sums of those and the 16x16 sums
as 2x2 sums of the 8x8 ones. The largest sum, 256 * 255 = 65,280, fits in
16 bits, so every sum is exact. `imaging.normalize` turns a sum of n bytes
into its mean sample with one subtract and one divide, both exact or
correctly rounded in float32: each feature is the exact mean colour of its
pixels, rounded once, on every machine.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane, normalize

FEATURES = 3  # channels per cell: mean R, G and B


def _cell_sums(grid: np.ndarray, f: int) -> np.ndarray:
    """The uint16 sums of the f x f cells of an (h, w, c) grid of unsigned
    integers whose cell sums fit in 16 bits."""
    h, w, c = grid.shape
    rows = np.add.reduce(grid.reshape(h // f, f, w * c), axis=1, dtype=np.uint16)
    # one pass over each cell's f columns; adds of strided column views
    # would loop over the c channels of one position at a time
    return np.einsum("ijkc->ijc", rows.reshape(h // f, w // f, f, c))


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (z1, z2, z3) float32 feature grids."""
    s1 = _cell_sums(img.pixels, 4)
    s2 = _cell_sums(s1, 2)
    return normalize(s1, 16), normalize(s2, 64), normalize(_cell_sums(s2, 2), 256)
