"""Shared fixtures: synthetic desk images and a trained codec session."""

import tracemalloc

import numpy as np
import pytest

from granucodec import imaging, pipeline, training


def make_raw(kind: str, h: int, w: int, seed: int) -> np.ndarray:
    """Deterministic synthetic test image, (h, w, 3) uint8."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        # noise with spatially varying mean and amplitude, not flat iid
        h4, w4 = -(-h // 4) * 4, -(-w // 4) * 4
        mean = np.repeat(np.repeat(rng.uniform(20, 235, (h4 // 4, w4 // 4, 3)), 4, 0), 4, 1)
        amp = np.repeat(np.repeat(rng.uniform(5, 70, (h4 // 4, w4 // 4, 1)), 4, 0), 4, 1)
        img = mean[:h, :w] + amp[:h, :w] * rng.normal(size=(h, w, 3))
        return np.clip(img, 0, 255).astype(np.uint8)
    if kind == "gradient":
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        img = np.stack([
            255 * ((a * xx / w + b * yy / h) % 1.0)
            for a, b in rng.uniform(-3, 3, size=(3, 2))
        ], axis=2)
        h16, w16 = -(-h // 16) * 16, -(-w // 16) * 16
        blobs = np.repeat(np.repeat(
            rng.normal(0, 60, (h16 // 16, w16 // 16, 3)), 16, 0), 16, 1)
        amp = 8 + 40 * rng.random(size=(h, w, 1))
        img += blobs[:h, :w] + amp * rng.normal(size=img.shape)
        return np.clip(img, 0, 255).astype(np.uint8)
    if kind == "blocky":
        cell = rng.integers(0, 256, size=(h // 16, w // 16, 3))
        img = np.repeat(np.repeat(cell, 16, 0), 16, 1).astype(np.float64)
        img += rng.normal(0, 8, size=img.shape)
        return np.clip(img, 0, 255).astype(np.uint8)
    if kind == "photo":
        # photographic texture stand-in: band-limited noise plus detail
        h8, w8 = -(-h // 8) * 8, -(-w // 8) * 8
        low = rng.normal(128, 55, size=(h8 // 8, w8 // 8, 3))
        img = np.repeat(np.repeat(low, 8, 0), 8, 1)
        mid = np.repeat(np.repeat(rng.normal(0, 25, size=(h8 // 2, w8 // 2, 3)), 2, 0), 2, 1)
        img = (img + mid)[:h, :w] + rng.normal(0, 10, size=(h, w, 3))
        return np.clip(img, 0, 255).astype(np.uint8)
    if kind == "waves":
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        f1, f2 = 0.05 + rng.random() * 0.2, 0.05 + rng.random() * 0.2
        img = np.stack([
            128 + 110 * np.sin(f1 * xx + f2 * yy),
            128 + 110 * np.cos(f2 * xx),
            128 + 110 * np.sin(f1 * yy),
        ], axis=2)
        img += rng.normal(0, 10, size=img.shape)
        return np.clip(img, 0, 255).astype(np.uint8)
    raise ValueError(kind)


def make_image(kind: str, h: int, w: int, seed: int) -> imaging.ImagePlane:
    return imaging.from_raw(make_raw(kind, h, w, seed))


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated (numpy buffers included) while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def desk_corpus(n: int = 20, size: int = 512) -> list:
    kinds = ["noise", "gradient", "blocky", "photo", "waves"]
    return [make_image(kinds[i % len(kinds)], size, size, seed=100 + i)
            for i in range(n)]


@pytest.fixture(scope="session")
def corpus():
    return desk_corpus(20, 512)


@pytest.fixture(scope="session")
def session(corpus):
    """Codec session trained on the desk corpus (k=1024, deterministic)."""
    cb, tbl = training.train_codebook(
        corpus, k=1024, seed=7, iters=10, max_samples=60_000)
    return pipeline.CodecSession(cb, tbl)


@pytest.fixture(scope="session")
def small_session():
    """Cheap session for unit tests: small codebook, small corpus."""
    images = [make_image(k, 64, 64, seed=s)
              for s, k in enumerate(["noise", "blocky", "photo", "waves"])]
    cb, tbl = training.train_codebook(images, k=32, seed=3, iters=8,
                                      max_samples=5000)
    return pipeline.CodecSession(cb, tbl)
