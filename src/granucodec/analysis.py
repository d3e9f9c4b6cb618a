"""Deterministic analysis transform producing the three-scale feature pyramid.

Each s x s pixel block (s = 4, 8, 16) is described by its mean colour: mean
R, mean G and mean B of the normalized samples. The decoder paints a cell
with its code's colour, so every feature a code holds reaches a pixel. The
recipe is fixed: a stream's indices mean something only relative to this
transform and the codebook trained on its output.

Every sample is a multiple of 2**-31 and every 4x4 mean a multiple of
2**-35, both at most 1 in magnitude, so each float64 sum the pyramid forms
is exact and no summation order changes a bit. So the fine means are summed
in the order that costs least: the four pixel rows of each cell row first,
then the four columns of each cell.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImagePlane, avg_pool, normalize

FEATURES = 3  # channels per cell: mean R, G and B

#: Pixel rows normalized at a time, a multiple of 4 so that no 4x4 cell
#: straddles two bands. Three buffers serve every band: the float32 samples
#: (12 B per band pixel), the float64 row sums (6 B) and the float64 cell
#: sums (1.5 B).
_BAND_ROWS = 32


def _fine_means(pixels: np.ndarray) -> np.ndarray:
    """The 4x4 cell means of normalized pixels, one band of rows at a time."""
    h, w, c = pixels.shape
    z1 = np.empty((h // 4, w // 4, c), dtype=np.float32)
    band = np.empty((min(h, _BAND_ROWS), w, c), dtype=np.float32)
    row_sums = np.empty((len(band) // 4, w, c))
    cell_sums = np.empty((len(band) // 4, w // 4, c))
    for top in range(0, h, _BAND_ROWS):
        pixel_rows = pixels[top:top + _BAND_ROWS]
        samples = normalize(pixel_rows, out=band[:len(pixel_rows)])
        n = len(samples) // 4  # cell rows in this band
        rows, cells = row_sums[:n], cell_sums[:n]
        np.copyto(rows, samples[0::4])
        for i in range(1, 4):
            rows += samples[i::4]
        # one pass over each cell's four columns; adds of strided column
        # views would loop over the 3 channels of a pixel at a time
        np.einsum("ijkc->ijc", rows.reshape(n, w // 4, 4, c), out=cells)
        np.divide(cells, 16, out=z1[top // 4:top // 4 + n], casting="same_kind")
    return z1


def pyramid(img: ImagePlane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a padded image to its (z1, z2, z3) float32 feature grids."""
    z1 = _fine_means(img.pixels)
    # medium and coarse are pooled from the fine means, so the cross-scale
    # pooling identity holds bit-exactly
    return z1, avg_pool(z1, 2), avg_pool(z1, 4)
