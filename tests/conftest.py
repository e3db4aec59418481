from pathlib import Path

import numpy as np
import pytest

from adaptlm.encoder import EncoderConfig, init_weights
from adaptlm.vocab import Vocabulary, load_vocabulary_file

MINI_VOCAB_PATH = Path(__file__).resolve().parent.parent / "src/adaptlm/assets/vocab_cased_mini.txt"


@pytest.fixture(scope="session")
def mini_vocab():
    return load_vocabulary_file(MINI_VOCAB_PATH)


@pytest.fixture(scope="session")
def toy_vocab():
    """Small lowercase vocabulary for packing and masking tests."""
    entries = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
               "a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
               "ab", "abc", "##a", "##b", "##c", "##d", "##ab", "##bc", ".", ","]
    return Vocabulary(tuple(entries))


@pytest.fixture
def tiny_config(toy_vocab):
    return EncoderConfig(vocab_size=len(toy_vocab), hidden=8, layers=2, heads=2,
                         ff_dim=16, max_positions=12, dropout=0.0, seed=5)


@pytest.fixture
def tiny_weights(tiny_config):
    return init_weights(tiny_config)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
