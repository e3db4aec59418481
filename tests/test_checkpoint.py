import io

import numpy as np
import pytest

from adaptlm.checkpoint import (FORMAT_VERSION, _config_text, load_checkpoint,
                                load_checkpoint_file, roundtrip_bytes, save_checkpoint)
from adaptlm.encoder import EncoderConfig, init_head, init_weights
from adaptlm.errors import CorruptionError, FormatError


def _store(seed=0, metadata=None):
    cfg = EncoderConfig(vocab_size=11, hidden=8, layers=1, heads=2, ff_dim=12,
                        max_positions=6, seed=seed)
    store = init_weights(cfg)
    if metadata:
        store.metadata.update(metadata)
    return store


def test_config_text_keeps_its_on_disk_key_order():
    # the text follows the EncoderConfig field order; reordering the fields
    # would change every checkpoint's bytes
    assert _config_text(_store(metadata={"vocab_fingerprint": "ab12"})) == (
        "vocab_size=11\nhidden=8\nlayers=1\nheads=2\nff_dim=12\nmax_positions=6\nseed=0\n"
        "layernorm_epsilon=1e-12\ninit_std=0.02\ndropout=0.1\nmeta.vocab_fingerprint=ab12\n")


def test_roundtrip_bit_identical():
    store = _store(metadata={"vocab_fingerprint": "ab12", "note": "hello world"})
    data = roundtrip_bytes(store)
    loaded = load_checkpoint(io.BytesIO(data))
    assert loaded.config == store.config
    assert loaded.metadata == store.metadata
    assert set(loaded.tensors) == set(store.tensors)
    for name in store.tensors:
        assert loaded.tensors[name].dtype == np.float32
        assert np.array_equal(loaded.tensors[name], store.tensors[name]), name
    # serialization itself is stable
    assert roundtrip_bytes(loaded) == data


def test_roundtrip_head_tensors():
    store = _store()
    store.tensors.update(init_head(store.config, "ner", 5, seed=3))
    loaded = load_checkpoint(io.BytesIO(roundtrip_bytes(store)))
    assert loaded.tensors["head.ner.weight"].shape == (8, 5)


def test_float_config_fields_roundtrip_exactly():
    cfg = EncoderConfig(vocab_size=11, hidden=8, layers=1, heads=2, ff_dim=12,
                        max_positions=6, layernorm_epsilon=1e-12, init_std=0.02,
                        dropout=0.1)
    store = init_weights(cfg)
    loaded = load_checkpoint(io.BytesIO(roundtrip_bytes(store)))
    assert loaded.config.layernorm_epsilon == 1e-12
    assert loaded.config.init_std == 0.02
    assert loaded.config.dropout == 0.1


def test_wrong_magic_is_format_error():
    data = bytearray(roundtrip_bytes(_store()))
    data[:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(io.BytesIO(bytes(data)))


def test_wrong_version_is_format_error():
    data = bytearray(roundtrip_bytes(_store()))
    data[4:8] = (FORMAT_VERSION + 7).to_bytes(4, "little")
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(io.BytesIO(bytes(data)))


def test_truncated_stream_names_tensor():
    data = roundtrip_bytes(_store())
    with pytest.raises(CorruptionError, match=r"of tensor (embeddings|layer|mlm)"):
        load_checkpoint(io.BytesIO(data[:len(data) // 2]))


def test_truncated_header_is_corruption_error():
    data = roundtrip_bytes(_store())
    with pytest.raises(CorruptionError):
        load_checkpoint(io.BytesIO(data[:6]))


def test_shape_mismatch_against_config_is_corruption_error():
    store = _store()
    # write a truncated tensor under a core name by flipping one dim
    buf = io.BytesIO()
    save_checkpoint(store, buf)
    data = bytearray(buf.getvalue())
    name = b"embeddings.segment"
    pos = data.find(name)
    assert pos > 0
    dims_at = pos + len(name) + 4  # past name and rank
    data[dims_at:dims_at + 8] = (3).to_bytes(8, "little")  # true dim is 2
    with pytest.raises(CorruptionError, match="embeddings.segment"):
        load_checkpoint(io.BytesIO(bytes(data)))


def test_unknown_core_tensor_is_corruption_error():
    store = _store()
    store.tensors["mlm.bias2"] = np.zeros(3, dtype=np.float32)
    buf = io.BytesIO()
    with pytest.raises(Exception):
        save_checkpoint(store, buf)  # validate() rejects it on save already


def test_missing_tensor_is_corruption_error():
    store = _store()
    buf = io.BytesIO()
    save_checkpoint(store, buf)
    data = bytearray(buf.getvalue())
    # drop the last tensor by decrementing the count
    cfg_len = int.from_bytes(data[8:12], "little")
    count_at = 12 + cfg_len
    count = int.from_bytes(data[count_at:count_at + 4], "little")
    data[count_at:count_at + 4] = (count - 1).to_bytes(4, "little")
    with pytest.raises(CorruptionError, match="missing|truncated"):
        load_checkpoint(io.BytesIO(bytes(data)))


def _with_head_dims(dims):
    """Checkpoint bytes whose head.qa.weight declares the given dims."""
    store = _store()
    store.tensors.update(init_head(store.config, "qa", 2, seed=3))
    data = bytearray(roundtrip_bytes(store))
    name = b"head.qa.weight"
    at = data.find(name) + len(name) + 4  # skip the rank
    for k, dim in enumerate(dims):
        data[at + 8 * k:at + 8 * (k + 1)] = dim.to_bytes(8, "little")
    return bytes(data)


def test_overflowing_head_dims_are_corruption_error():
    with pytest.raises(CorruptionError, match="head.qa.weight"):
        load_checkpoint(io.BytesIO(_with_head_dims((2**40, 2**40))))


def test_oversized_head_payload_from_file_is_corruption_error(tmp_path):
    path = tmp_path / "big.ckpt"
    path.write_bytes(_with_head_dims((2**18, 2**18)))
    with pytest.raises(CorruptionError, match="head.qa.weight"):
        load_checkpoint_file(path)


class _Pipe(io.RawIOBase):
    """A readable stream that cannot seek."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buf):
        chunk = self._data.read(len(buf))
        buf[:len(chunk)] = chunk
        return len(chunk)


def test_oversized_head_payload_from_pipe_is_corruption_error():
    with pytest.raises(CorruptionError, match="head.qa.weight"):
        load_checkpoint(io.BufferedReader(_Pipe(_with_head_dims((2**18, 2**18)))))
    store = _store()
    loaded = load_checkpoint(io.BufferedReader(_Pipe(roundtrip_bytes(store))))
    assert roundtrip_bytes(loaded) == roundtrip_bytes(store)


def test_save_returns_byte_count():
    store = _store()
    buf = io.BytesIO()
    n = save_checkpoint(store, buf)
    assert n == len(buf.getvalue())


def test_random_stores_roundtrip(rng):
    for i in range(5):
        cfg = EncoderConfig(vocab_size=int(rng.integers(7, 30)),
                            hidden=8, layers=int(rng.integers(1, 3)), heads=2,
                            ff_dim=int(rng.integers(4, 20)), max_positions=7,
                            seed=int(rng.integers(1000)))
        store = init_weights(cfg)
        loaded = load_checkpoint(io.BytesIO(roundtrip_bytes(store)))
        for name in store.tensors:
            assert np.array_equal(loaded.tensors[name], store.tensors[name])
