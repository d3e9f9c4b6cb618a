"""Golden bytes: fixed encodes and decodes give the same output as before.

Every "bit-identical" claim about a codec change rests on this test. It pins
the `small_session` codebook, the serialized containers of fixed encodes and
the decoded samples. The pins were taken with numpy 2.4.6 on a DYNAMIC_ARCH
OpenBLAS 0.3.31 running its Haswell kernel. The nearest-code search computes
distances with a BLAS GEMM, so a BLAS that rounds differently may flip a
near-tie and change them: the pins hold on that BLAS until the search stops
using it (ROADMAP item 2).
"""

import hashlib

from granucodec import bitstream, pipeline
from granucodec.granularity import RatioTriple

from conftest import make_image

SMALL_SESSION_ID_HASH = 0xC82578901C6A974A
CONTAINERS_SHA256 = "e4299aaa4e08e5beed4bcba8956c49fef8ba8b317889174e2c44075b5756dd45"
SAMPLES_SHA256 = "e57a96b36ffadcfb84e60a5ebe880c0791465d550fec89282aca3e653c83ce88"


def test_golden_bytes(small_session):
    assert small_session.codebook.id_hash == SMALL_SESSION_ID_HASH
    containers, samples = hashlib.sha256(), hashlib.sha256()
    for i, kind in enumerate(["noise", "gradient", "blocky", "photo", "waves"]):
        img = make_image(kind, 120, 104, seed=70 + i)  # padded to 128x112
        for mode in ({"ratios": RatioTriple(0.37, 0.46, 0.17)}, {"target_bpp": 0.2}):
            c = pipeline.encode_image(small_session, img, **mode)
            containers.update(bitstream.serialize_container(c))
            samples.update(pipeline.decode_image(small_session, c).samples.tobytes())
    assert containers.hexdigest() == CONTAINERS_SHA256
    assert samples.hexdigest() == SAMPLES_SHA256
