"""Golden bytes: fixed encodes and decodes give the same output as before.

Every "bit-identical" claim about a codec change rests on this test. It pins
the `small_session` codebook, the serialized containers of fixed encodes and
the decoded pixels. The pins were taken with numpy 2.4.6 on a DYNAMIC_ARCH
OpenBLAS 0.3.31 running its Haswell kernel, with the three-feature (mean
colour) analysis transform, each feature its pixels' exact mean sample
rounded once to float32. The nearest-code search sums its distances
elementwise in a fixed order, so no BLAS decides an index or a codebook. The
one BLAS call left, `spatial_entropy.entropy_map`'s `counts @ table`, adds
whole numbers of 2**-43 units below 2**53, so every BLAS kernel gives the
same block masses.
"""

import hashlib

from granucodec import bitstream, pipeline
from granucodec.granularity import RatioTriple

from conftest import make_image

SMALL_SESSION_ID_HASH = 0x3BE028EEB00D0972
# container version 4, whose CRC covers the payload: the payloads are the
# version-3 ones, which the same encodes hashed to 4f44019d6234d098...
CONTAINERS_SHA256 = "c2dd3f5e41c2f0badb5462b966d011daaa0987cdccff70aec9a28e9824cf2ca6"
PIXELS_SHA256 = "9e4eab4e378fb2f8893f87dd0e6cf168bf58bc0c382ff97a942562ae0c271724"


def test_golden_bytes(small_session):
    assert small_session.codebook.id_hash == SMALL_SESSION_ID_HASH
    containers, pixels = hashlib.sha256(), hashlib.sha256()
    for i, kind in enumerate(["noise", "gradient", "blocky", "photo", "waves"]):
        img = make_image(kind, 120, 104, seed=70 + i)  # padded to 128x112
        for mode in ({"ratios": RatioTriple(0.37, 0.46, 0.17)}, {"target_bpp": 0.2}):
            c = pipeline.encode_image(small_session, img, **mode)
            containers.update(bitstream.serialize_container(c))
            pixels.update(pipeline.decode_image(small_session, c).pixels.tobytes())
    assert containers.hexdigest() == CONTAINERS_SHA256
    assert pixels.hexdigest() == PIXELS_SHA256
