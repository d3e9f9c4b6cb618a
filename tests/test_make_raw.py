"""The synthetic test images: every kind at any size, and the bytes of the
dead-leaves generator and of the five kinds the benchmark draws pinned, so a
change in numpy's random streams or in the strip drawing shows."""

import hashlib

import numpy as np
import pytest

from conftest import STRIP_ROWS, make_raw, traced_peak

# make_raw("leaves", 512, 512, seed=0), taken with numpy 2.4.6
LEAVES_SHA256 = "1b8bfd65a6006575a2fec6536d2df131905196e07212c72476e2e124b94b8f77"

# make_raw(kind, h, w, seed=1), taken with numpy 2.4.6 from the whole-image
# draws that the strips replaced: 744 rows end in a partial strip, 1024 in a
# whole one
BENCH_SHA256 = {
    ("noise", 744, 1000): "ccbe15c3b9b99c67c09358f451fc56a41f08d43442cffdae2e7313c4555e959a",
    ("noise", 1024, 1024): "6c50b97e953a2d26a058039d2b9312e7626a486c3f529acd9fcb0b36f69044a2",
    ("gradient", 744, 1000): "4bb44659938a6b1d3a285a1242a89f64c95ecfbac5fe7c679e028a06a7bcea85",
    ("gradient", 1024, 1024): "1c21939511e4245175353ed4b412ede2bac55cc4b041e27d0b984d3270617864",
    ("blocky", 744, 1000): "ef4ee7f4c5979fc94bb22d80e844d8281dbd9516afa298411ba31211cdbff56f",
    ("blocky", 1024, 1024): "3c6427fc16f03719ba9d4a060ff5a2e4e6f954a0605cee03fb566ab0b1932141",
    ("photo", 744, 1000): "3583f24c7ae23fa67c309ca0791fe3b6f1f0eb681989fbebeff6568cbb769d48",
    ("photo", 1024, 1024): "0edcce45b9d6e5ef32bc7f215a03a15431657c99ab7b54912fe6d7497e2aeb12",
    ("waves", 744, 1000): "59e88dc1a922a4875f033447cf7cb4e36c566e664cc586d3d6c8b4ffa126dec4",
    ("waves", 1024, 1024): "e8d4887a34167c2f052ff6d142bc23e3ea01ab3d5ff7fb3cddc4e8e737e0bca7",
}
BENCH_KINDS = ("noise", "gradient", "blocky", "photo", "waves")


@pytest.mark.parametrize("kind", ["noise", "gradient", "blocky", "photo", "waves", "leaves"])
@pytest.mark.parametrize("h, w", [(13, 80), (100, 17), (1, 1), (120, 104)])
def test_every_kind_is_h_by_w(kind, h, w):
    raw = make_raw(kind, h, w, seed=4)
    assert raw.shape == (h, w, 3) and raw.dtype == np.uint8


def test_leaves_bytes_pinned():
    raw = make_raw("leaves", 512, 512, seed=0)
    assert hashlib.sha256(raw.tobytes()).hexdigest() == LEAVES_SHA256


@pytest.mark.parametrize("kind, h, w", sorted(BENCH_SHA256))
def test_bench_kind_bytes_pinned(kind, h, w):
    assert 744 % STRIP_ROWS and not 1024 % STRIP_ROWS
    raw = make_raw(kind, h, w, seed=1)
    assert hashlib.sha256(raw.tobytes()).hexdigest() == BENCH_SHA256[kind, h, w]


@pytest.mark.parametrize("kind", BENCH_KINDS)
def test_bench_kind_peak_memory_per_pixel(kind):
    # the 3 B/px output, the cell grids (gradient's amplitude plane, drawn
    # before its noise, takes 8 B/px) and one strip's float temporaries: no
    # float array spans the image
    assert traced_peak(make_raw, kind, 1024, 1024, 1) <= 24 * 1024 * 1024
