"""Image I/O, normalization, padding and the pooling primitives used everywhere.

Pixels live in [-1, 1] as float32; all pooling sums accumulate in float64 so
results are deterministic across platforms. PSNR is reported on de-normalized
0-255 values with peak 255, cropped to the true (pre-padding) dimensions.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass

import numpy as np

BLOCK = 16

#: Sentinel returned by psnr() when the two images are identical.
LOSSLESS = math.inf


class ImageError(Exception):
    """Unreadable file, malformed header or unsupported sample format."""


@dataclass(frozen=True)
class ImagePlane:
    """An H x W x 3 grid of samples in [-1, 1], padded to multiples of 16.

    true_h / true_w are the pre-padding dimensions; samples inside that
    window are the real image, the rest is edge replication.
    """

    samples: np.ndarray  # (H, W, 3) float32
    true_h: int
    true_w: int

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]


def _ceil_to(n: int, multiple: int) -> int:
    return ((n + multiple - 1) // multiple) * multiple


def normalize(raw: np.ndarray) -> np.ndarray:
    """Map 8-bit samples 0..255 linearly onto [-1, 1]."""
    return (raw.astype(np.float64) / 255.0 * 2.0 - 1.0).astype(np.float32)


def denormalize(samples: np.ndarray) -> np.ndarray:
    """Inverse of normalize(): [-1, 1] back to rounded 0..255 bytes."""
    scaled = (samples.astype(np.float64) + 1.0) / 2.0 * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def pad_to_block(samples: np.ndarray, block: int = BLOCK) -> np.ndarray:
    """Edge-replicate pad so both spatial dims are multiples of `block`."""
    h, w = samples.shape[:2]
    ph, pw = _ceil_to(h, block), _ceil_to(w, block)
    if (ph, pw) == (h, w):
        return samples
    return np.pad(samples, ((0, ph - h), (0, pw - w), (0, 0)), mode="edge")


def from_raw(raw: np.ndarray) -> ImagePlane:
    """Build a padded ImagePlane from an (h, w, 3) uint8 array."""
    if raw.ndim != 3 or raw.shape[2] != 3:
        raise ImageError(f"expected (h, w, 3) samples, got shape {raw.shape}")
    h, w = raw.shape[:2]
    return ImagePlane(pad_to_block(normalize(raw)), true_h=h, true_w=w)


def _read_ppm_token(f) -> bytes:
    # Tokens are separated by whitespace; '#' starts a comment to end of line.
    token = b""
    while True:
        c = f.read(1)
        if not c:
            raise ImageError("truncated PPM header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
            continue
        if c.isspace():
            if token:
                return token
            continue
        token += c


def load_ppm(path) -> ImagePlane:
    """Read a binary (P6) PPM with maxval 255, normalized and padded."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P6":
            raise ImageError(f"{path}: not a binary PPM (magic {magic!r})")
        try:
            w = int(_read_ppm_token(f))
            h = int(_read_ppm_token(f))
            maxval = int(_read_ppm_token(f))
        except ValueError as exc:
            raise ImageError(f"{path}: malformed PPM header") from exc
        if w <= 0 or h <= 0:
            raise ImageError(f"{path}: bad dimensions {w}x{h}")
        if maxval != 255:
            raise ImageError(f"{path}: unsupported maxval {maxval} (only 255)")
        size = w * h * 3
        # checked before reading, so a hostile header cannot ask for more
        # memory than the file holds (a pipe has no size to check against)
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and size > st.st_size - f.tell():
            raise ImageError(f"{path}: truncated pixel data")
        data = f.read(size)
        if len(data) != size:
            raise ImageError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return from_raw(raw)


def save_ppm(img: ImagePlane, path) -> None:
    """Write the true-dimension window as a binary PPM, maxval 255."""
    raw = denormalize(img.samples[: img.true_h, : img.true_w])
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (img.true_w, img.true_h))
        f.write(raw.tobytes())


def avg_pool(grid: np.ndarray, factor: int) -> np.ndarray:
    """Mean over factor x factor cells, per channel. Exact for constants."""
    h, w = grid.shape[:2]
    if h % factor or w % factor:
        raise ValueError(f"dims {h}x{w} not divisible by {factor}")
    shaped = grid.reshape(h // factor, factor, w // factor, factor, -1)
    pooled = shaped.mean(axis=(1, 3), dtype=np.float64)
    if grid.ndim == 2:
        pooled = pooled[..., 0]
    return pooled.astype(grid.dtype)


def nn_upsample(grid: np.ndarray, factor: int) -> np.ndarray:
    """Duplicate each cell into a factor x factor block (nearest neighbor)."""
    return np.repeat(grid, factor, axis=1).repeat(factor, axis=0)


def psnr(a: ImagePlane, b: ImagePlane) -> float:
    """PSNR in dB on 0-255 values over true dims; LOSSLESS if identical."""
    if (a.true_h, a.true_w) != (b.true_h, b.true_w):
        raise ValueError("true dimensions differ")
    ra = denormalize(a.samples[: a.true_h, : a.true_w]).astype(np.float64)
    rb = denormalize(b.samples[: b.true_h, : b.true_w]).astype(np.float64)
    mse = np.mean((ra - rb) ** 2)
    if mse == 0.0:
        return LOSSLESS
    return 10.0 * math.log10(255.0 ** 2 / mse)
