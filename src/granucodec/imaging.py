"""Image I/O, normalization, padding, upsampling and PSNR.

An image is a padded plane of 8-bit RGB pixels, and the codec works in bytes.
Samples in [-1, 1] are left in `ImagePlane.samples`, the entropy map's levels
and the codebook file, which stores a code as the samples of its bytes:
`normalize` makes byte b the sample (b - 127.5) / 127.5 in float32, bit for
bit the float64 b / 255 * 2 - 1 rounded to float32, and `denormalize` maps
samples back to bytes with rounding and a clip, giving back every byte.
PSNR is reported on 0-255 values with peak 255, cropped to the true
(pre-padding) dimensions, from the exact integer squared error. It,
`save_ppm` and `load_ppm` take the true window 64 rows at a time, so none
makes a copy of the whole image: `load_ppm` copies each strip it reads into
the padded plane it allocates once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK = 16

#: Largest read `read_bounded` makes at once, 16 MiB: more than any codebook
#: or container section the codec reads whole.
_READ_CHUNK = 1 << 24

#: Longest PPM header token accepted; 2**64 has 20 digits.
_MAX_TOKEN = 20

#: Rows `load_ppm`, `save_ppm`, `psnr` and `pipeline.reconstruct` take at
#: once, so no copy spans the image.
STRIP_ROWS = 64

#: Sentinel returned by psnr() when the two images are identical.
LOSSLESS = math.inf


class ImageError(ValueError):
    """Unreadable file, malformed header or unsupported sample format."""


@dataclass(frozen=True, eq=False)
class ImagePlane:
    """An H x W x 3 plane of 8-bit RGB pixels, padded to multiples of 16.

    true_h / true_w are the pre-padding dimensions; pixels inside that
    window are the real image, the rest is edge replication. Construction
    checks the dtype, the shape and that each side pads its true size by
    less than one block, as a container header must; it reads no pixel.
    """

    pixels: np.ndarray  # (H, W, 3) uint8
    true_h: int
    true_w: int

    def __post_init__(self):
        if self.pixels.dtype != np.uint8:
            raise TypeError(f"an ImagePlane holds uint8 pixels, not {self.pixels.dtype}")
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) pixels, got shape {self.pixels.shape}")
        for side, true in ((self.height, self.true_h), (self.width, self.true_w)):
            if side % BLOCK or not 0 <= true <= side < true + BLOCK:
                raise ValueError(f"side {side} for true size {true}: a side must be a "
                                 f"multiple of {BLOCK} padding a true size >= 0 by less "
                                 f"than {BLOCK}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def samples(self) -> np.ndarray:
        """The pixels normalized to [-1, 1], as a new read-only float32 array."""
        samples = normalize(self.pixels)
        samples.flags.writeable = False
        return samples


def ceil_to(n: int, multiple: int) -> int:
    return ((n + multiple - 1) // multiple) * multiple


#: Half the byte range: byte b is the sample (b - HALF_RANGE) / HALF_RANGE.
HALF_RANGE = 127.5


def normalize(raw: np.ndarray) -> np.ndarray:
    """Map bytes 0..255, held in any numeric type, linearly onto [-1, 1] as
    float32, correctly rounded."""
    half = np.float32(HALF_RANGE)
    out = np.subtract(raw, half, dtype=np.float32)
    out /= half  # in place for an array; a scalar is rebound
    return out


def denormalize(samples: np.ndarray) -> np.ndarray:
    """Inverse of normalize(): [-1, 1] back to rounded 0..255 bytes."""
    scaled = (samples.astype(np.float64) + 1.0) / 2.0 * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def from_raw(raw: np.ndarray) -> ImagePlane:
    """Build a padded ImagePlane from an (h, w, 3) uint8 array: the bytes are
    copied into the true window and the padding replicates the last column
    and row."""
    if raw.dtype != np.uint8:
        raise ImageError(f"expected uint8 samples, got {raw.dtype}")
    if raw.ndim != 3 or raw.shape[2] != 3:
        raise ImageError(f"expected (h, w, 3) samples, got shape {raw.shape}")
    h, w = raw.shape[:2]
    pixels = np.empty((ceil_to(h, BLOCK), ceil_to(w, BLOCK), 3), dtype=np.uint8)
    pixels[:h, :w] = raw
    return _padded(pixels, h, w)


def _padded(pixels: np.ndarray, h: int, w: int) -> ImagePlane:
    """The plane whose true h x w window `pixels` holds, its padding filled in
    place by replicating the last column and row."""
    pixels[:h, w:] = pixels[:h, w - 1:w]
    pixels[h:] = pixels[h - 1:h]
    return ImagePlane(pixels, true_h=h, true_w=w)


def _read_ppm_token(f, path) -> bytes:
    # Tokens are separated by whitespace. As Netpbm's pm_getc reads it, '#'
    # starts a comment that ends at '\n' or '\r' and counts as a line end,
    # so a comment also ends the token before it.
    token = b""
    while True:
        c = f.read(1)
        if c == b"#":
            while c not in (b"\n", b"\r", b""):
                c = f.read(1)
        if not c:
            raise ImageError(f"{path}: truncated PPM header")
        if c.isspace():
            if token:
                return token
            continue
        if len(token) == _MAX_TOKEN:
            raise ImageError(f"{path}: PPM header token longer than {_MAX_TOKEN} bytes")
        token += c


def read_bounded(f, size: int) -> bytes:
    """The next `size` bytes of f, fewer at its end, read in bounded chunks so that a
    hostile header cannot make us allocate more memory than the input holds."""
    chunks = []
    while size and (chunk := f.read(min(size, _READ_CHUNK))):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def load_ppm(path) -> ImagePlane:
    """Read a binary (P6) PPM with maxval 255, padded. The padded plane is
    allocated once and filled `STRIP_ROWS` rows at a time through one strip;
    a header declaring more pixels than memory can hold is an ImageError."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P6":
            raise ImageError(f"{path}: not a binary PPM (magic {magic!r})")
        tokens = [_read_ppm_token(f, path) for _ in range(3)]
        # ASCII decimal digits only: int() would also take a sign and
        # underscores, which Netpbm refuses
        if not all(token.isdigit() for token in tokens):
            raise ImageError(f"{path}: malformed PPM header")
        w, h, maxval = map(int, tokens)
        if w <= 0 or h <= 0:
            raise ImageError(f"{path}: bad dimensions {w}x{h}")
        if maxval != 255:
            raise ImageError(f"{path}: unsupported maxval {maxval} (only 255)")
        try:
            # untouched pages take no memory: a short file fills few of them
            pixels = np.empty((ceil_to(h, BLOCK), ceil_to(w, BLOCK), 3), dtype=np.uint8)
            strip = np.empty((min(h, STRIP_ROWS), w, 3), dtype=np.uint8)
        except (MemoryError, ValueError):  # numpy's "maximum dimension exceeded"
            raise ImageError(f"{path}: a {w}x{h} image is too large to hold") from None
        for y in range(0, h, STRIP_ROWS):
            rows = pixels[y:min(y + STRIP_ROWS, h)]
            view = memoryview(strip[:len(rows)]).cast("B")
            while view and (n := f.readinto(view)):  # a pipe may give fewer bytes
                view = view[n:]
            if view:
                raise ImageError(f"{path}: truncated pixel data")
            rows[:, :w] = strip[:len(rows)]
    return _padded(pixels, h, w)


def save_ppm(img: ImagePlane, path) -> None:
    """Write the true-dimension window as a binary PPM, maxval 255, a strip
    of rows at a time."""
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (img.true_w, img.true_h))
        window = img.pixels[: img.true_h, : img.true_w]
        for y in range(0, img.true_h, STRIP_ROWS):
            f.write(window[y:y + STRIP_ROWS].tobytes())


def nn_upsample(grid: np.ndarray, factor: int) -> np.ndarray:
    """Duplicate each cell into a factor x factor block (nearest neighbor)."""
    return np.repeat(grid, factor, axis=1).repeat(factor, axis=0)


def psnr(a: ImagePlane, b: ImagePlane) -> float:
    """PSNR in dB on 0-255 values over true dims, from int16 errors taken a
    strip of rows at a time; LOSSLESS if identical."""
    h, w = a.true_h, a.true_w
    if (h, w) != (b.true_h, b.true_w) or not h * w:
        raise ValueError("true dimensions differ or are empty")
    d = np.empty((min(h, STRIP_ROWS), w, 3), dtype=np.int16)
    sse = 0  # exact: every squared error is an integer
    for y in range(0, h, STRIP_ROWS):
        rows = d[:min(h - y, STRIP_ROWS)]
        np.subtract(a.pixels[y:y + len(rows), :w], b.pixels[y:y + len(rows), :w],
                    out=rows, dtype=np.int16)
        sse += int(np.einsum("ijk,ijk->", rows, rows, dtype=np.int64))
    if sse == 0:
        return LOSSLESS
    return 10.0 * math.log10(255.0 ** 2 / (sse / (3 * h * w)))
