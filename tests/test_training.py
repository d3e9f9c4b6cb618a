import pytest

from granucodec import analysis, training

from conftest import make_image


@pytest.fixture
def images():
    return [make_image(k, 64, 64, seed=s)
            for s, k in enumerate(["noise", "blocky", "photo", "waves"])]


def test_pyramid_built_once_per_image(images, monkeypatch):
    calls = []
    real = analysis.pyramid

    def counting(img):
        calls.append(img)
        return real(img)

    monkeypatch.setattr(analysis, "pyramid", counting)
    training.train_codebook(images, k=16, seed=3, iters=2, max_samples=2000)
    assert len(calls) == len(images)
    assert all(a is b for a, b in zip(calls, images))


def test_k_above_codebook_format_limit_rejected(images):
    with pytest.raises(ValueError, match="65535"):
        training.train_codebook(images, k=65536)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(images, k):
    with pytest.raises(ValueError, match=r"outside 1\.\.65535"):
        training.train_codebook(images, k=k)
