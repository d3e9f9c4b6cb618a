"""The session fixtures: the desk corpus and the codec sessions trained on
test images. `conftest` registers this module as a pytest plugin, so that
it can itself be imported without pytest."""

import pytest

from granucodec import pipeline, training

from conftest import desk_corpus, leaves_images, make_image

#: The training config of the k=1024 fixture sessions.
FIXTURE_TRAINING = dict(k=1024, seed=7, iters=10, max_samples=60_000)


@pytest.fixture(scope="session")
def corpus():
    return desk_corpus(20, 512)


@pytest.fixture(scope="session")
def session(corpus):
    """Codec session trained on the desk corpus (k=1024, deterministic)."""
    return pipeline.CodecSession(*training.train_codebook(corpus, **FIXTURE_TRAINING))


@pytest.fixture(scope="session")
def leaves_set():
    """Ten dead-leaves images, images with edges, to evaluate on."""
    return leaves_images(range(500, 510))


@pytest.fixture(scope="session")
def leaves_session():
    """Codec session at `session`'s config, trained on 20 dead-leaves images."""
    return pipeline.CodecSession(
        *training.train_codebook(leaves_images(range(100, 120)), **FIXTURE_TRAINING))


@pytest.fixture(scope="session")
def small_session():
    """Cheap session for unit tests: small codebook, small corpus."""
    images = [make_image(k, 64, 64, seed=s)
              for s, k in enumerate(["noise", "blocky", "photo", "waves"])]
    cb, tbl = training.train_codebook(images, k=32, seed=3, iters=8,
                                      max_samples=5000)
    return pipeline.CodecSession(cb, tbl)
