import numpy as np
import pytest

from tunneldetect import model_store
from tunneldetect.datagen import LABEL_NORMAL, LABEL_TUNNELING, DomainSample
from tunneldetect.network import Hyperparams, init_params

TINY_HP = Hyperparams(nf=6, ks=3, sl=1, d=8, l=12, hn=4)

# conv configurations the packed network paths are checked on
CONV_HPS = [
    TINY_HP,
    Hyperparams(nf=64, ks=4, sl=1, d=32, l=45, hn=32),
    Hyperparams(nf=16, ks=3, sl=2, d=10, l=20, hn=8),
]
CONV_IDS = ["tiny", "small", "stride2"]


@pytest.fixture
def tiny_hp():
    return TINY_HP


@pytest.fixture
def tiny_model(tiny_hp):
    return init_params(tiny_hp, seed=5)


def loaded_float32(params, hp, path):
    """`params` saved to `path` and loaded back as float32, as evaluate
    and classify load a model."""
    model_store.save(params, hp, path)
    return model_store.load(path, np.float32)[0]


def make_separable_corpus(n_per_class=100, seed=0):
    """Trivially separable toy set: runs of 'a' vs runs of 'z'."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_per_class):
        samples.append(DomainSample("a" * int(rng.integers(4, 11)), LABEL_NORMAL))
        samples.append(
            DomainSample("z" * int(rng.integers(4, 11)), LABEL_TUNNELING, "iodine")
        )
    return samples


@pytest.fixture
def separable_corpus():
    return make_separable_corpus()
