"""Granularity planning and the closed-form rate model.

Blocks are sorted by spatial entropy (ascending, ties by raster index); the
lowest-entropy blocks become coarse, the next slice medium, the rest fine.
The theoretical bits-per-pixel of a ratio triple is

    bpp = L/256 * (16*r1 + 4*r2 + r3) + (4*r1 + r2)/256

with L the mean Huffman code length over the index alphabet and 16, 4, 1
the VQ indices a fine, medium or coarse block sends (`INDICES_PER_BLOCK`):
a block's bits follow its index count. Target-bpp lookup inverts it over
one read-only lattice, `LATTICE`, the ratio simplex at 1/100 (5,151 rows).
A code's rate table is just the bpp column over those rows, in lattice
order: the lookup needs no order, and only the `rate-table` command sorts
the rows by bpp to print them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import nn_upsample

FINE, MEDIUM, COARSE = 0, 1, 2
LABEL_NAMES = ("fine", "medium", "coarse")  # indexed by label, in stream order
INDICES_PER_BLOCK = (16, 4, 1)  # indexed by label: 4x4, 2x2 or 1 cell of the 16x16 block


@dataclass(frozen=True)
class RatioTriple:
    r1: float  # fine
    r2: float  # medium
    r3: float  # coarse

    def __post_init__(self):
        for r in (self.r1, self.r2, self.r3):
            if not -1e-9 <= r <= 1 + 1e-9:
                raise ValueError(f"ratio {r} outside [0, 1]")
        if abs(self.r1 + self.r2 + self.r3 - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {self}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.r1, self.r2, self.r3)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def plan_granularity(entropy: np.ndarray, ratios: RatioTriple) -> np.ndarray:
    """Label each block FINE/MEDIUM/COARSE from its entropy rank."""
    flat = np.asarray(entropy, dtype=np.float64).ravel()
    n = flat.size
    order = np.argsort(flat, kind="stable")  # ties keep raster order
    n_coarse = min(_round_half_up(ratios.r3 * n), n)
    n_medium = min(_round_half_up(ratios.r2 * n), n - n_coarse)
    labels = np.full(n, FINE, dtype=np.uint8)
    labels[order[:n_coarse]] = COARSE
    labels[order[n_coarse:n_coarse + n_medium]] = MEDIUM
    return labels.reshape(entropy.shape)


def masks_from_map(gmap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bool masks of the cells each scale sends, in stream order: fine
    (H/4, W/4), medium (H/8, W/8), coarse (H/16, W/16). They are a disjoint
    cover of the fine grid: fine + up(medium, 2) + up(coarse, 4) == 1 in
    every cell, so a block sends `INDICES_PER_BLOCK[label]` indices."""
    gmap = np.asarray(gmap)
    fine, medium, coarse = (gmap == label for label in (FINE, MEDIUM, COARSE))
    if not (fine | medium | coarse).all():
        bad = gmap[~(fine | medium | coarse)][0]
        raise ValueError(f"granularity map label {bad} is not fine, medium or coarse")
    return nn_upsample(fine, 4), nn_upsample(medium, 2), coarse


def label_counts(gmap: np.ndarray) -> np.ndarray:
    """Blocks per label, a (3,) int array indexed by label, of a map holding
    only FINE, MEDIUM and COARSE, as `plan_granularity` and `decode_map` do."""
    return np.bincount(np.ravel(gmap), minlength=3)


def _bpp(r1, r2, r3, mean_code_len: float):
    """The closed-form bpp, elementwise over floats or arrays of ratios."""
    if mean_code_len <= 0:
        raise ValueError("mean code length must be positive")
    n1, n2, n3 = INDICES_PER_BLOCK
    return mean_code_len / 256.0 * (n1 * r1 + n2 * r2 + n3 * r3) + (4.0 * r1 + r2) / 256.0


def theoretical_bpp(ratios: RatioTriple, mean_code_len: float) -> float:
    """Closed-form bpp: index cost plus the mask-side accounting term."""
    return _bpp(*ratios.as_tuple(), mean_code_len)


# the ratio simplex at 1/100 in lattice order (r1, then r2, ascending)
LATTICE = np.array([(i, j, 100 - i - j) for i in range(101)
                    for j in range(101 - i)]) / 100
LATTICE.flags.writeable = False


def build_rate_table(mean_code_len: float) -> np.ndarray:
    """The rate model's bpp at each `LATTICE` row: a read-only (5151,) float64 column."""
    table = _bpp(*LATTICE.T, mean_code_len)
    table.flags.writeable = False
    return table


def ratios_for_target(bpp: np.ndarray, target_bpp: float) -> RatioTriple:
    """The `LATTICE` row of the closest bpp in a column over it; ties resolved
    toward larger r1 (quality-favoring), then toward the first row. At one r1
    the bpp rises strictly with r2, so in lattice order that first row is the
    lower-bpp one, as in bpp order."""
    if not math.isfinite(target_bpp):
        raise ValueError(f"target bpp must be a finite number, got {target_bpp}")
    gap = np.abs(bpp - target_bpp)
    closest = np.flatnonzero(gap == gap.min())
    best = closest[np.argmax(LATTICE[closest, 0])]  # argmax: first of equals
    return RatioTriple(*LATTICE[best].tolist())
