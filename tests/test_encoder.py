import math

import numpy as np
import pytest

from adaptlm import encoder
from adaptlm.encoder import (IGNORE_LABEL, EncoderConfig, expected_shapes, forward_arrays,
                             backward_arrays, init_weights, train_step, truncated_normal)
from adaptlm.errors import ConfigError, ContractViolation, InputError
from adaptlm.pretrain import MaskedBatch, mlm_loss, mlm_step_grads
from adaptlm.tokenizer import batch_arrays, encode_sequence


def scaled_attention(queries, keys, values, mask, return_weights=False):
    """Reference scaled dot-product attention over one sequence, in plain
    numpy and independent of the kernels it checks.

    queries (Lq, d), keys (Lk, d), values (Lk, dv), mask (Lk,) with 0 marking
    padding. Masked keys receive weight exactly 0. Raises ContractViolation
    when every key is masked (the softmax would be undefined).
    """
    q, k, v, m = (np.asarray(a) for a in (queries, keys, values, mask))
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0] or m.shape[0] != k.shape[0]:
        raise InputError("mismatched attention shapes")
    if int(m.sum()) == 0:
        raise ContractViolation("all key positions are masked")
    scores = np.where(m > 0, q @ k.T / math.sqrt(q.shape[1]), -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    out = weights @ v
    return (out, weights) if return_weights else out


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


def test_forward_attention_matches_reference_per_row_and_head(toy_vocab):
    cfg = EncoderConfig(vocab_size=len(toy_vocab), hidden=8, layers=1, heads=2, ff_dim=16,
                        max_positions=12, dropout=0.0, init_std=0.5, seed=3)
    batch = [encode_sequence("a b c d e f", None, toy_vocab, 10),
             encode_sequence("a b", None, toy_vocab, 10),  # padded rows, which pack
             encode_sequence("c", None, toy_vocab, 10)]
    ids, segments, mask = batch_arrays(batch)
    _, cache = forward_arrays(init_weights(cfg), ids, segments, mask, return_cache=True)
    plan = cache["plan"]
    # layer 0's tensors over all packed rows, joining the row groups
    layer = {key: np.concatenate([layers[0][key] for _, layers in cache["groups"]])
             for key in ("qh", "kh", "vh", "probs")}
    assert plan.n_rows < len(batch)
    context = layer["probs"] @ layer["vh"]
    for row in range(len(batch)):
        # the row's span sits at columns offset:offset + n of its packed row
        r, n = plan.rows[row], plan.spans[row]
        cols = slice(plan.offsets[row], plan.offsets[row] + n)
        for head in range(cfg.heads):
            out, w = scaled_attention(layer["qh"][r, head, cols], layer["kh"][r, head, cols],
                                      layer["vh"][r, head, cols], mask[row, :n],
                                      return_weights=True)
            np.testing.assert_allclose(layer["probs"][r, head, cols, cols], w,
                                       rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(context[r, head, cols], out, rtol=1e-5, atol=1e-6)


def test_forward_output_shapes(tiny_weights, toy_vocab):
    batch = [encode_sequence("a b c", None, toy_vocab, 10),
             encode_sequence("d e", None, toy_vocab, 10)]
    # the states keep the encoding length, zero past each row's real span
    states = forward_arrays(tiny_weights, *batch_arrays(batch))
    assert states.shape == (2, 10, 8)
    assert (states[0, 5:] == 0).all() and (states[1, 4:] == 0).all()
    assert (states[0, :5] != 0).any(axis=1).all()


def test_forward_padding_does_not_leak(tiny_weights, toy_vocab):
    short = encode_sequence("a b c", None, toy_vocab, 6)
    long = encode_sequence("a b c", None, toy_vocab, 12)
    out_short = forward_arrays(tiny_weights, short.ids[None], short.segments[None],
                               short.mask[None])
    out_long = forward_arrays(tiny_weights, long.ids[None], long.segments[None],
                              long.mask[None])
    np.testing.assert_allclose(out_short[0, :5], out_long[0, :5],
                               atol=1e-5)


def test_forward_rejects_bad_inputs(tiny_weights):
    ids = np.zeros((1, 20), dtype=np.int64)  # longer than max_positions
    with pytest.raises(InputError):
        forward_arrays(tiny_weights, ids, np.zeros_like(ids), np.ones_like(ids))
    ids = np.full((1, 4), 999)
    with pytest.raises(InputError):
        forward_arrays(tiny_weights, ids, np.zeros_like(ids), np.ones_like(ids))
    ids = np.full((2, 4), 5)
    mask = np.ones_like(ids)
    mask[1] = 0  # a row with no real position has no attention softmax
    with pytest.raises(ContractViolation):
        forward_arrays(tiny_weights, ids, np.zeros_like(ids), mask)


def test_forward_deterministic(tiny_weights, toy_vocab):
    batch = [encode_sequence("a b c d", None, toy_vocab, 8)]
    h1 = forward_arrays(tiny_weights, *batch_arrays(batch))
    h2 = forward_arrays(tiny_weights, *batch_arrays(batch))
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
    out = forward_arrays(store, ids, segments, mask)
    out_perm = forward_arrays(store, ids[:, perm], segments, mask)
    np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-5)


def test_dropout_requires_rng_and_is_seeded(tiny_config, toy_vocab):
    cfg = EncoderConfig(**{**tiny_config.__dict__, "dropout": 0.2})
    store = init_weights(cfg)
    arrays = batch_arrays([encode_sequence("a b c d", None, toy_vocab, 8)])
    with pytest.raises(InputError):
        forward_arrays(store, *arrays, train=True)
    h1 = forward_arrays(store, *arrays, train=True, rng=np.random.default_rng(3))
    h2 = forward_arrays(store, *arrays, train=True, rng=np.random.default_rng(3))
    h3 = forward_arrays(store, *arrays, train=True, rng=np.random.default_rng(4))
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_gradients_match_finite_differences_quick(toy_vocab, dropout):
    """Fast gradcheck on one layer; the full sweep runs in the acceptance suite.
    With dropout on, every forward re-seeds its rng, so all calls draw the
    same masks and the backward's mask multiplies are checked too."""
    cfg = EncoderConfig(vocab_size=len(toy_vocab), hidden=6, layers=1, heads=2,
                        ff_dim=10, max_positions=8, dropout=dropout, init_std=0.5, seed=2)
    store = init_weights(cfg).astype(np.float64)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, cfg.vocab_size, (2, 5))
    segments = np.zeros((2, 5), dtype=np.int64)
    mask = np.ones((2, 5), dtype=np.int64)
    mask[1, 3:] = 0
    proj = rng.standard_normal((2, 5, 6))
    proj[mask == 0] = 0.0

    def forward(w, **kwargs):
        return forward_arrays(w, ids, segments, mask, train=True,
                              rng=np.random.default_rng(5), **kwargs)

    def loss(w):
        return float((forward(w) * proj).sum())

    _, cache = forward(store, return_cache=True)
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


def _read_batch(toy_vocab):
    """(ids, segments, mask) of three rows at max_len 10 whose spans pack
    into two rows: the longest alone, the other two together."""
    return batch_arrays([encode_sequence("a b c d e f", None, toy_vocab, 10),
                         encode_sequence("a b", None, toy_vocab, 10),
                         encode_sequence("c", None, toy_vocab, 10)])


def _every_column(read):
    """_read_columns as if every packed cell were read: the full last layer."""
    return np.broadcast_to(np.arange(read.shape[1]), read.shape), np.ones_like(read)


READS = {
    "random": lambda real: real & (np.random.default_rng(4).random(real.shape) < 0.15),
    "one_packed_row_only": lambda real: real & (np.arange(3) == 0)[:, None],
    "second_span_of_a_packed_row": lambda real: real & (np.arange(3) == 2)[:, None],
    "none": np.zeros_like,
    "every_real_cell": lambda real: real,
}


@pytest.mark.parametrize("case", READS)
def test_states_at_read_positions_equal_the_full_forward(case, toy_vocab, monkeypatch):
    cfg = EncoderConfig(vocab_size=len(toy_vocab), hidden=8, layers=2, heads=2, ff_dim=16,
                        max_positions=12, dropout=0.0, init_std=0.5, seed=3)
    weights = init_weights(cfg).astype(np.float64)
    ids, segments, mask = _read_batch(toy_vocab)
    real = mask == 1
    read = READS[case](real)
    states, cache = forward_arrays(weights, ids, segments, mask, read=read, return_cache=True)
    plan = cache["plan"]
    assert plan.n_rows == 2 and plan.rows[1] == plan.rows[2]
    # the last layer runs at the largest per-packed-row read count
    assert cache["keep"].shape == (2, max(read[0].sum(), read[1:].sum()))
    if case == "random":
        assert 0 < read.sum() < real.sum()
    if case == "one_packed_row_only":
        assert not cache["keep"][plan.rows[1]].any()

    monkeypatch.setattr(encoder, "_read_columns", _every_column)
    full = forward_arrays(weights, ids, segments, mask, read=read)
    assert (full[real] != 0).any(axis=1).all()
    np.testing.assert_allclose(states[read], full[read], rtol=1e-12, atol=1e-12)
    assert (states[~read] == 0).all()
    if case == "every_real_cell":
        assert np.array_equal(forward_arrays(weights, ids, segments, mask), states)


def test_an_mlm_batch_with_no_masked_position_scores_zero(toy_vocab):
    cfg = EncoderConfig(vocab_size=len(toy_vocab), hidden=8, layers=2, heads=2, ff_dim=16,
                        max_positions=12, dropout=0.1, seed=3)
    weights = init_weights(cfg)
    batch = [encode_sequence(text, None, toy_vocab, 10) for text in ("a b c d e f", "a b")]
    labels = np.full((2, 10), IGNORE_LABEL)
    masked = MaskedBatch(batch, labels, np.argwhere(labels != IGNORE_LABEL))
    loss, accuracy, grads = mlm_step_grads(masked, weights, train=True,
                                           rng=np.random.default_rng(1))
    assert (loss, accuracy) == (0.0, 0.0)
    for name, grad in grads.items():
        assert np.isfinite(grad).all() and not grad.any(), name
    assert mlm_loss(masked, weights)[0] == 0.0


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_train_step_with_a_read_mask_matches_finite_differences(toy_vocab, dropout):
    """Every tensor's gradient through train_step(read=...), two layers,
    reading a packed row's second span and leaving one packed row unread. The head's d_hidden is nonzero at unread
    positions too, where the states are 0 whatever the weights, so it must
    be ignored there. Each forward re-seeds its rng, as in the quick check."""
    cfg = EncoderConfig(vocab_size=len(toy_vocab), hidden=6, layers=2, heads=2, ff_dim=10,
                        max_positions=12, dropout=dropout, init_std=0.5, seed=2)
    weights = init_weights(cfg).astype(np.float64)
    # spans 8, 4, 3 and 5 pack as [0], [3, 2] and [1]
    batch = [encode_sequence(text, None, toy_vocab, 10)
             for text in ("a b c d e f", "a b", "c", "d e f")]
    arrays = batch_arrays(batch)
    read = np.zeros(arrays[0].shape, dtype=bool)
    read[0, [1, 4, 6]] = read[2, 1] = True
    proj = np.random.default_rng(1).standard_normal((*read.shape, cfg.hidden))

    def loss(w):
        return float((forward_arrays(w, *arrays, read=read, train=True,
                                     rng=np.random.default_rng(5)) * proj).sum())

    _, grads = train_step(weights, batch, lambda hidden: (float((hidden * proj).sum()), proj, {}),
                          read=read, rng=np.random.default_rng(5))
    h = 1e-4
    for name, analytic in grads.items():
        arr = weights.tensors[name]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss(weights)
            arr[idx] = orig - h
            lm = loss(weights)
            arr[idx] = orig
            fd[idx] = (lp - lm) / (2 * h)
        diff = float(np.linalg.norm(analytic - fd))
        ref = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
        # atol covers the key biases, whose gradient is 0 but for rounding
        assert diff <= 1e-8 + 1e-5 * ref, f"{name}: |d|={diff:.3e} ref={ref:.3e}"
