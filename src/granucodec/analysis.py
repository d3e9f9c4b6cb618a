"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is one cell, given at every scale in
one unit: 256 times its mean colour, that is 256 / (s * s) times the sums of
its R, G and B bytes, exact in uint16 and at most 256 * 255 = 65,280. The
recipe is fixed: a stream's indices mean something only relative to this
transform and the codebook trained on its output.

One kernel, `_cell_sums`, sums the bytes of every cell in uint16: the 4x4
sums from the pixels, the 8x8 sums as 2x2 sums of those and the 16x16 sums
as 2x2 sums of the 8x8 ones, which are the coarse cells; the 4x4 and 8x8
sums are shifted into cells by 4 and 2 bits.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane

FEATURES = 3  # channels per cell: R, G and B


def _cell_sums(grid: np.ndarray, f: int) -> np.ndarray:
    """The uint16 sums of the f x f cells of an (h, w, c) grid of unsigned
    integers whose cell sums fit in 16 bits."""
    h, w, c = grid.shape
    rows = np.add.reduce(grid.reshape(h // f, f, w * c), axis=1, dtype=np.uint16)
    # one pass over each cell's f columns; adds of strided column views
    # would loop over the c channels of one position at a time
    return np.einsum("ijkc->ijc", rows.reshape(h // f, w // f, f, c))


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its fine, medium and coarse uint16 cell grids,
    each cell 256 times its mean colour."""
    s1 = _cell_sums(img.pixels, 4)
    s2 = _cell_sums(s1, 2)
    return s1 << 4, s2 << 2, _cell_sums(s2, 2)
