import numpy as np
import pytest

from adaptlm.encoder import (EncoderConfig, expected_shapes, forward_arrays,
                             backward_arrays, init_weights, scaled_attention,
                             truncated_normal)
from adaptlm.errors import ConfigError, ContractViolation, InputError
from adaptlm.tokenizer import batch_arrays, encode_sequence


def test_config_validation():
    good = EncoderConfig(vocab_size=10, hidden=8, layers=1, heads=2, ff_dim=16,
                         max_positions=8)
    good.validate()
    with pytest.raises(ConfigError):
        EncoderConfig(vocab_size=10, hidden=9, layers=1, heads=2, ff_dim=16,
                      max_positions=8).validate()
    with pytest.raises(ConfigError):
        EncoderConfig(vocab_size=10, hidden=8, layers=1, heads=2, ff_dim=16,
                      max_positions=600).validate()


def test_init_same_seed_bit_identical(tiny_config):
    a = init_weights(tiny_config)
    b = init_weights(tiny_config)
    assert set(a.tensors) == set(b.tensors)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name]), name


def test_init_shapes_follow_config():
    cfg = EncoderConfig(vocab_size=10, hidden=8, layers=1, heads=2, ff_dim=16,
                        max_positions=8, seed=1)
    store = init_weights(cfg)
    assert store.tensors["layer.0.attention.query"].shape == (8, 8)
    assert store.tensors["embeddings.token"].shape == (10, 8)
    assert store.tensors["mlm.bias"].shape == (10,)
    assert set(store.tensors) == set(expected_shapes(cfg))


def test_init_sample_std_within_ten_percent():
    cfg = EncoderConfig(vocab_size=125, hidden=80, layers=1, heads=2, ff_dim=16,
                        max_positions=8, seed=9)
    store = init_weights(cfg)
    token = store.tensors["embeddings.token"]  # 125 * 80 = 10**4 entries
    assert token.size == 10_000
    sample_std = float(token.std())
    assert abs(sample_std - 0.02) <= 0.1 * 0.02
    assert float(np.abs(token).max()) <= 3.0 * 0.02 + 1e-7


def test_init_vectors():
    cfg = EncoderConfig(vocab_size=10, hidden=8, layers=1, heads=2, ff_dim=16,
                        max_positions=8)
    store = init_weights(cfg)
    assert np.all(store.tensors["layer.0.attention.norm.scale"] == 1.0)
    assert np.all(store.tensors["layer.0.attention.norm.shift"] == 0.0)
    assert np.all(store.tensors["layer.0.attention.query.bias"] == 0.0)


def test_truncated_normal_determinism(rng):
    a = truncated_normal(np.random.default_rng(4), (100, 100), 0.02)
    b = truncated_normal(np.random.default_rng(4), (100, 100), 0.02)
    assert np.array_equal(a, b)


def test_scaled_attention_identical_keys_uniform(rng):
    q = rng.standard_normal((3, 4))
    k = np.tile(rng.standard_normal(4), (5, 1))
    v = rng.standard_normal((5, 2))
    out, w = scaled_attention(q, k, v, np.ones(5), return_weights=True)
    np.testing.assert_allclose(w, 1.0 / 5.0, atol=1e-7)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-6)


def test_scaled_attention_single_position():
    q = np.array([[1.0, 2.0]])
    k = np.array([[0.5, -1.0]])
    v = np.array([[7.0, 8.0, 9.0]])
    out, w = scaled_attention(q, k, v, np.ones(1), return_weights=True)
    assert w[0, 0] == 1.0
    np.testing.assert_allclose(out[0], v[0])


def test_scaled_attention_masked_position(rng):
    q = rng.standard_normal((2, 4))
    k = rng.standard_normal((3, 4))
    v = rng.standard_normal((3, 4))
    out, w = scaled_attention(q, k, v, np.array([1, 0, 1]), return_weights=True)
    assert np.all(w[:, 1] == 0.0)
    np.testing.assert_allclose(w[:, 0] + w[:, 2], 1.0, atol=1e-6)


def test_scaled_attention_all_masked_is_error(rng):
    q = rng.standard_normal((2, 4))
    with pytest.raises(ContractViolation):
        scaled_attention(q, q, q, np.zeros(2))


def test_scaled_attention_rows_sum_to_one(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        q = rng.standard_normal((n, 6))
        k = rng.standard_normal((n, 6))
        v = rng.standard_normal((n, 3))
        mask = (rng.random(n) > 0.3).astype(int)
        if mask.sum() == 0:
            mask[0] = 1
        _, w = scaled_attention(q, k, v, mask, return_weights=True)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)


def test_forward_output_shapes(tiny_weights, toy_vocab):
    batch = [encode_sequence("a b c", None, toy_vocab, 10),
             encode_sequence("d e", None, toy_vocab, 10)]
    out = forward_arrays(tiny_weights, *batch_arrays(batch))
    assert out.hidden.shape == (2, 10, 8)
    assert out.pooled.shape == (2, 8)
    np.testing.assert_allclose(out.pooled, out.hidden[:, 0])


def test_forward_padding_does_not_leak(tiny_weights, toy_vocab):
    short = encode_sequence("a b c", None, toy_vocab, 6)
    long = encode_sequence("a b c", None, toy_vocab, 12)
    out_short = forward_arrays(tiny_weights, *batch_arrays([short]))
    out_long = forward_arrays(tiny_weights, *batch_arrays([long]))
    np.testing.assert_allclose(out_short.hidden[0, :5], out_long.hidden[0, :5],
                               atol=1e-5)


def test_forward_rejects_bad_inputs(tiny_weights):
    ids = np.zeros((1, 20), dtype=np.int64)  # longer than max_positions
    with pytest.raises(InputError):
        forward_arrays(tiny_weights, ids, np.zeros_like(ids), np.ones_like(ids))
    ids = np.full((1, 4), 999)
    with pytest.raises(InputError):
        forward_arrays(tiny_weights, ids, np.zeros_like(ids), np.ones_like(ids))


def test_forward_deterministic(tiny_weights, toy_vocab):
    batch = [encode_sequence("a b c d", None, toy_vocab, 8)]
    h1 = forward_arrays(tiny_weights, *batch_arrays(batch)).hidden
    h2 = forward_arrays(tiny_weights, *batch_arrays(batch)).hidden
    assert np.array_equal(h1, h2)


def test_forward_permutation_equivariance(tiny_config, rng):
    """With position embeddings zeroed, permuting positions permutes outputs."""
    store = init_weights(tiny_config)
    store.tensors["embeddings.position"][:] = 0.0
    b, l = 1, 7
    ids = rng.integers(0, tiny_config.vocab_size, (b, l))
    segments = np.zeros((b, l), dtype=np.int64)
    mask = np.ones((b, l), dtype=np.int64)
    perm = rng.permutation(l)
    out = forward_arrays(store, ids, segments, mask).hidden
    out_perm = forward_arrays(store, ids[:, perm], segments, mask).hidden
    np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-5)


def test_dropout_requires_rng_and_is_seeded(tiny_config, toy_vocab):
    cfg = EncoderConfig(**{**tiny_config.__dict__, "dropout": 0.2})
    store = init_weights(cfg)
    arrays = batch_arrays([encode_sequence("a b c d", None, toy_vocab, 8)])
    with pytest.raises(InputError):
        forward_arrays(store, *arrays, train=True)
    h1 = forward_arrays(store, *arrays, train=True, rng=np.random.default_rng(3)).hidden
    h2 = forward_arrays(store, *arrays, train=True, rng=np.random.default_rng(3)).hidden
    h3 = forward_arrays(store, *arrays, train=True, rng=np.random.default_rng(4)).hidden
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)


def test_gradients_match_finite_differences_quick(toy_vocab):
    """Fast gradcheck on one layer; the full sweep runs in the acceptance suite."""
    cfg = EncoderConfig(vocab_size=len(toy_vocab), hidden=6, layers=1, heads=2,
                        ff_dim=10, max_positions=8, dropout=0.0, init_std=0.5, seed=2)
    store = init_weights(cfg).astype(np.float64)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, cfg.vocab_size, (2, 5))
    segments = np.zeros((2, 5), dtype=np.int64)
    mask = np.ones((2, 5), dtype=np.int64)
    mask[1, 3:] = 0
    proj = rng.standard_normal((2, 5, 6))
    proj[mask == 0] = 0.0

    def loss(w):
        return float((forward_arrays(w, ids, segments, mask).hidden * proj).sum())

    out, cache = forward_arrays(store, ids, segments, mask, return_cache=True)
    grads = backward_arrays(store, cache, proj)
    h = 1e-4
    for name in ("layer.0.attention.value", "layer.0.ffn.intermediate",
                 "embeddings.token", "layer.0.attention.norm.scale"):
        arr = store.tensors[name]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss(store)
            arr[idx] = orig - h
            lm = loss(store)
            arr[idx] = orig
            fd[idx] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5, f"{name}: rel={rel}"
