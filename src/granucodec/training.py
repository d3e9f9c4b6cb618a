"""Codebook training over an image corpus.

k-means runs on feature cells pooled from all three pyramid scales; the
usage-frequency pass then replays the real encoding path (entropy map,
granularity plan, masked quantization) so the statistics match what
encoding will actually emit.
"""

from __future__ import annotations

import numpy as np

from . import analysis, granularity, vq
from .imaging import ImagePlane
from .spatial_entropy import entropy_map
from .vq import Codebook, FrequencyTable

# Default allocation used while gathering usage statistics.
DEFAULT_FREQ_RATIOS = granularity.RatioTriple(0.5, 0.4, 0.1)


def _stack_cells(pyramids) -> np.ndarray:
    return np.concatenate([grid.reshape(-1, grid.shape[-1])
                           for grids in pyramids for grid in grids], axis=0)


def corpus_cells(images: list[ImagePlane]) -> np.ndarray:
    """All pyramid cells of all images, as one (n, d) array."""
    return _stack_cells([analysis.pyramid(img) for img in images])


def train_codebook(images: list[ImagePlane], k: int = 1024, seed: int = 0,
                   iters: int = 25, max_samples: int | None = 200_000,
                   freq_ratios: granularity.RatioTriple = DEFAULT_FREQ_RATIOS,
                   ) -> tuple[Codebook, FrequencyTable]:
    """Train a codebook and its finalized usage-frequency table."""
    if not 1 <= k <= vq.MAX_K:
        raise ValueError(f"k={k} is outside 1..{vq.MAX_K}, the codebook format's range")
    pyramids = [analysis.pyramid(img) for img in images]
    cells = _stack_cells(pyramids)
    if max_samples is not None and cells.shape[0] > max_samples:
        rng = np.random.default_rng(seed)
        pick = rng.choice(cells.shape[0], size=max_samples, replace=False)
        sample = cells[np.sort(pick)]
    else:
        sample = cells
    cb = vq.train_codebook(sample, k=k, iters=iters, seed=seed)

    tbl = FrequencyTable.zeros(k)
    for img, grids in zip(images, pyramids):
        gmap = granularity.plan_granularity(entropy_map(img), freq_ratios)
        masks = granularity.masks_from_map(gmap)
        for idx in vq.quantize_masked(grids, masks, cb):
            vq.accumulate_frequencies(idx, tbl)
    return cb, vq.finalize_frequencies(tbl)
