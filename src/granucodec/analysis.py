"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by its mean colour: mean
R, mean G and mean B. The decoder paints a cell with its code's colour, so
every feature a code holds reaches a pixel. The recipe is fixed: a stream's
indices mean something only relative to this transform and the codebook
trained on its output.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane, avg_pool

FEATURES = 3  # channels per cell: mean R, G and B


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (z1, z2, z3) float32 feature grids; a
    plane with a NaN or infinite sample raises ValueError."""
    # medium and coarse are pooled from the fine means, so the cross-scale
    # pooling identity holds bit-exactly
    with np.errstate(invalid="ignore"):  # inf + -inf in a cell is refused below
        z1 = avg_pool(img.samples, 4)
    if not np.isfinite(z1).all():  # a cell mean is finite iff its samples are
        raise ValueError("image holds non-finite samples")
    return z1, avg_pool(z1, 2), avg_pool(z1, 4)
