"""Codebook training over an image corpus.

k-means runs on the cells of all three pyramid scales, one unit at every scale.
The frequency pass then counts each index that encoding would emit (entropy
map, a plan at fixed ratios, masked quantization), plus one, so every symbol
stays codeable. It plans without pipeline.plan_image, which takes a session,
and a session is built from the very table this pass counts.
"""

from __future__ import annotations

import numpy as np

from . import analysis, granularity, vq
from .imaging import ImagePlane
from .spatial_entropy import entropy_map
from .vq import Codebook, FrequencyTable

# The fixed plan of the frequency pass, which counts each index it emits.
FREQ_RATIOS = granularity.RatioTriple(0.5, 0.4, 0.1)


def _stack_cells(pyramids) -> np.ndarray:
    return np.concatenate([g.reshape(-1, g.shape[-1]) for grids in pyramids for g in grids])


def corpus_cells(images: list[ImagePlane]) -> np.ndarray:
    """All pyramid cells of all images, as (n, 3) uint16 cells."""
    return _stack_cells([analysis.pyramid(img) for img in images])


def train_codebook(images: list[ImagePlane], k: int = 1024, seed: int = 0,
                   iters: int = 25, max_samples: int = 200_000) -> tuple[Codebook, FrequencyTable]:
    """Train a codebook and its smoothed usage-frequency table. The CLI uses these defaults."""
    if not images:
        raise ValueError("no images to train a codebook on")
    if not 1 <= k <= vq.MAX_K:
        raise ValueError(f"k={k} is outside 1..{vq.MAX_K}, the codebook format's range")
    if max_samples < k:
        raise ValueError(f"max_samples={max_samples} is below k={k}: k-means needs a "
                         f"sample of at least k cells")
    pyramids = [analysis.pyramid(img) for img in images]
    cells = _stack_cells(pyramids)
    if cells.shape[0] > max_samples:  # the sample replaces the stack, freeing it
        rng = np.random.default_rng(seed)
        cells = cells[np.sort(rng.choice(cells.shape[0], size=max_samples, replace=False))]
    cb = vq.train_codebook(cells, k, iters=iters, seed=seed)

    counts = np.ones(k, dtype=np.uint64)
    for img, grids in zip(images, pyramids):
        gmap = granularity.plan_granularity(entropy_map(img), FREQ_RATIOS)
        masks = granularity.masks_from_map(gmap)
        for idx in vq.quantize_masked(grids, masks, cb):
            counts += np.bincount(idx, minlength=k).astype(np.uint64)
    return cb, FrequencyTable(counts)
