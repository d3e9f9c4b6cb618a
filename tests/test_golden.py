"""Golden bytes: fixed encodes and decodes give the same output as before.

Every "bit-identical" claim about a codec change rests on this test. It pins
the `small_session` codebook, the serialized containers of fixed encodes and
the decoded pixels. The pins were taken with numpy 2.4.6 on a DYNAMIC_ARCH
OpenBLAS 0.3.31 running its Haswell kernel. Each cell is its pixels' exact
mean colour in byte units and each code the bytes the decoder paints, so
every squared distance the search and k-means compare is exact in float64,
added in any order: no BLAS and no summation order decides an index or a
codebook. The one BLAS call left, `spatial_entropy.entropy_map`'s
`counts @ table`, adds whole numbers of 2**-43 units below 2**53, so every
BLAS kernel gives the same block masses.
"""

import hashlib

from granucodec import bitstream, pipeline
from granucodec.granularity import RatioTriple

from conftest import make_image

SMALL_SESSION_ID_HASH = 0x273DAF92421FE372
# container version 4, with codes that are the colours the decoder paints,
# and a blocky image of the full 120x104 pixels
CONTAINERS_SHA256 = "9e89a4ca4dbae7c999a1b30fe18a879dee2dfa597aee9887057a73f5501624cd"
PIXELS_SHA256 = "70f02af5485cc6f4669a9bc3c92934c6be3503c6abf59cb9a674f5af7760c3cc"


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
