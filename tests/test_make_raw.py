"""The synthetic test images: every kind at any size, and the dead-leaves
generator's bytes pinned, so a change in numpy's random streams shows."""

import hashlib

import numpy as np
import pytest

from conftest import make_raw

# make_raw("leaves", 512, 512, seed=0), taken with numpy 2.4.6
LEAVES_SHA256 = "1b8bfd65a6006575a2fec6536d2df131905196e07212c72476e2e124b94b8f77"


@pytest.mark.parametrize("kind", ["noise", "gradient", "blocky", "photo", "waves", "leaves"])
@pytest.mark.parametrize("h, w", [(13, 80), (100, 17), (1, 1), (120, 104)])
def test_every_kind_is_h_by_w(kind, h, w):
    raw = make_raw(kind, h, w, seed=4)
    assert raw.shape == (h, w, 3) and raw.dtype == np.uint8


def test_leaves_bytes_pinned():
    raw = make_raw("leaves", 512, 512, seed=0)
    assert hashlib.sha256(raw.tobytes()).hexdigest() == LEAVES_SHA256
