"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by the sums S of its R, G
and B bytes over its n = s * s pixels (`CELL_PIXELS`); its mean colour S / n
is exact in float64, n being a power of two. The recipe is fixed: a stream's
indices mean something only relative to this transform and the codebook
trained on its output.

One kernel, `_cell_sums`, sums the bytes of every cell in uint16: the 4x4
sums from the pixels, the 8x8 sums as 2x2 sums of those and the 16x16 sums
as 2x2 sums of the 8x8 ones. The largest sum, 256 * 255 = 65,280, fits in
16 bits, so every sum is exact on every machine.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane

FEATURES = 3  # channels per cell: R, G and B
CELL_PIXELS = (16, 64, 256)  # pixels per cell at the fine, medium and coarse scale


def _cell_sums(grid: np.ndarray, f: int) -> np.ndarray:
    """The uint16 sums of the f x f cells of an (h, w, c) grid of unsigned
    integers whose cell sums fit in 16 bits."""
    h, w, c = grid.shape
    rows = np.add.reduce(grid.reshape(h // f, f, w * c), axis=1, dtype=np.uint16)
    # one pass over each cell's f columns; adds of strided column views
    # would loop over the c channels of one position at a time
    return np.einsum("ijkc->ijc", rows.reshape(h // f, w // f, f, c))


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (s1, s2, s3) uint16 colour-sum grids."""
    s1 = _cell_sums(img.pixels, 4)
    s2 = _cell_sums(s1, 2)
    return s1, s2, _cell_sums(s2, 2)
