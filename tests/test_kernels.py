"""Kernel-level math, and float64 finite-difference oracles for the backward
kernels."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from adaptlm import kernels as K

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FD_STEP = 1e-6
FD_TOL = 1e-7


def _numeric_grad(loss, x):
    """Central-difference gradient of the scalar loss() with respect to x,
    perturbing x in place one element at a time."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + FD_STEP
        plus = loss()
        x[idx] = orig - FD_STEP
        minus = loss()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * FD_STEP)
    return grad


def _assert_grad(analytic, numeric):
    rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    assert rel < FD_TOL, f"relative error {rel:.3g}"


def test_gelu_backward_matches_finite_differences(rng):
    x = rng.standard_normal((6, 7)) * 2
    dy = rng.standard_normal(x.shape)
    numeric = _numeric_grad(lambda: float((dy * K.gelu_forward(x)).sum()), x)
    _assert_grad(K.gelu_backward(dy, x), numeric)


def test_layernorm_backward_matches_finite_differences(rng):
    x = rng.standard_normal((5, 8)) * 3 + 1
    gamma = rng.standard_normal(8)
    beta = rng.standard_normal(8)
    dy = rng.standard_normal(x.shape)
    eps = 1e-5

    def loss():
        return float((dy * K.layernorm_forward(x, gamma, beta, eps)[0]).sum())

    _, mean, rstd = K.layernorm_forward(x, gamma, beta, eps)
    dx, dgamma, dbeta = K.layernorm_backward(dy, x, gamma, mean, rstd)
    _assert_grad(dx, _numeric_grad(loss, x))
    _assert_grad(dgamma, _numeric_grad(loss, gamma))
    _assert_grad(dbeta, _numeric_grad(loss, beta))


def _key_mask(keys, n_queries):
    """A (batch, k) key set as the boolean (batch, q, k) mask every query shares."""
    return np.broadcast_to(keys[:, None, :], (keys.shape[0], n_queries, keys.shape[1]))


def test_attention_softmax_backward_matches_finite_differences(rng):
    scores = rng.standard_normal((2, 2, 3, 5))
    keys = np.ones((2, 5), dtype=bool)
    keys[0, 3] = False
    keys[1, 4] = False
    mask = _key_mask(keys, 3)
    dprobs = rng.standard_normal(scores.shape)
    numeric = _numeric_grad(lambda: float((dprobs * K.attention_softmax(scores, mask)).sum()),
                            scores)
    d_scores = K.attention_softmax_backward(dprobs, K.attention_softmax(scores, mask))
    assert d_scores[0, :, :, 3].max() == 0.0 and d_scores[1, :, :, 4].max() == 0.0
    _assert_grad(d_scores, numeric)


def test_softmax_xent_gradient_matches_finite_differences(rng):
    logits = rng.standard_normal((6, 9))
    targets = rng.integers(0, 9, 6)
    row_weights = rng.standard_normal(6)
    numeric = _numeric_grad(lambda: float((row_weights * K.softmax_xent(logits, targets)[0]).sum()),
                            logits)
    _, d = K.softmax_xent(logits, targets)
    _assert_grad(row_weights[:, None] * d, numeric)


def test_adamw_matches_hand_rolled_reference(rng):
    p = rng.standard_normal(8).astype(np.float64)
    g = rng.standard_normal(8).astype(np.float64)
    m = np.zeros(8); v = np.zeros(8)
    lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-6, 0.05
    t = 3
    bc1, bc2 = 1 - b1**t, 1 - b2**t
    expected = p.copy()
    m_ref = b1 * 0 + (1 - b1) * g
    v_ref = (1 - b2) * g * g
    expected -= lr * ((m_ref / bc1) / (np.sqrt(v_ref / bc2) + eps) + wd * expected)
    K.adamw_update(p, g, m, v, lr, b1, b2, eps, wd, bc1, bc2)
    np.testing.assert_allclose(p, expected, rtol=1e-12)


def test_layernorm_normalizes_pre_scale_shift(rng):
    x = rng.standard_normal((64, 32)).astype(np.float64) * 3 + 1.5
    ones = np.ones(32)
    zeros = np.zeros(32)
    y, mean, rstd = K.layernorm_forward(x, ones, zeros, 1e-12)
    assert np.abs(y.mean(axis=1)).max() < 1e-5
    assert np.abs(y.var(axis=1) - 1.0).max() < 1e-3


def test_softmax_rows_sum_to_one_under_mask(rng):
    scores = rng.standard_normal((2, 3, 6, 6))
    keys = np.ones((2, 6), dtype=bool)
    keys[1, 4:] = False
    probs = K.attention_softmax(scores, _key_mask(keys, 6))
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
    assert probs[1, :, :, 4:].max() == 0.0


def test_uniform_logits_cross_entropy_is_log_v():
    v = 23
    logits = np.zeros((5, v))
    losses, _ = K.softmax_xent(logits, np.arange(5))
    np.testing.assert_allclose(losses, math.log(v), atol=1e-5)


def test_confident_logits_cross_entropy_near_zero():
    logits = np.full((4, 11), -30.0)
    targets = np.array([1, 5, 2, 9])
    logits[np.arange(4), targets] = 30.0
    losses, _ = K.softmax_xent(logits, targets)
    assert losses.max() < 1e-8


def _tiny_kernel_args(rng):
    """Small arguments for every kernel, in the shapes the encoder, the
    heads and the optimizer pass them."""
    x = rng.standard_normal((6, 4))
    scores = rng.standard_normal((2, 2, 3, 3))
    probs = K.attention_softmax(scores, np.ones((2, 3, 3), dtype=bool))
    _, mean, rstd = K.layernorm_forward(x, np.ones(4), np.zeros(4), 1e-12)
    flat = rng.standard_normal(5)
    return {
        "gelu_forward": (x,),
        "gelu_backward": (x, x),
        "layernorm_forward": (x, np.ones(4), np.zeros(4), 1e-12),
        "layernorm_backward": (x, x, np.ones(4), mean, rstd),
        "attention_softmax": (scores, np.ones((2, 3, 3), dtype=bool)),
        "attention_softmax_backward": (scores, probs),
        "softmax_xent": (rng.standard_normal((3, 5)), np.array([0, 4, 2])),
        "adamw_update": (flat, flat.copy(), np.zeros(5), np.zeros(5),
                         1e-3, 0.9, 0.999, 1e-6, 0.01, 0.1, 0.001),
        "embedding_grad": (np.array([2, 0, 2, 1, 0, 3]), x, np.zeros((4, 4))),
    }


def test_every_traced_kernel_runs_under_the_benchmark_cost_model(rng, monkeypatch):
    """perfbench --trace 1 calls each kernel it wraps with the arguments it
    recorded, then prices them with microbench.kernel_cost: both must keep
    accepting the kernels' arguments."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    microbench = importlib.import_module("microbench")
    args = _tiny_kernel_args(rng)
    assert set(args) == set(tracing.KERNELS)
    for name in tracing.KERNELS:
        getattr(K, name)(*args[name])
        ops, moved = microbench.kernel_cost(name, args[name])
        assert ops > 0 and moved > 0, name


def test_embedding_grad_sums_repeated_ids(rng):
    ids = np.array([3, 0, 3, 3, 1])
    dout = rng.standard_normal((5, 2))
    table = np.ones((4, 2))
    K.embedding_grad(ids, dout, table)
    expected = np.ones((4, 2))
    np.add.at(expected, ids, dout)
    np.testing.assert_allclose(table, expected, rtol=1e-12)
    assert (table[2] == 1.0).all()


@pytest.mark.parametrize("width", [1, 2, 5, 8, 31])
def test_attention_softmax_per_query_mask(rng, width):
    scores = rng.standard_normal((2, 3, width, width)) * 20
    keep = rng.random((2, width, width)) > 0.4
    keep[..., 0] = True
    probs = K.attention_softmax(scores, keep)
    expected = np.where(keep[:, None], np.exp(scores - np.where(keep[:, None], scores,
                                                                -np.inf).max(-1, keepdims=True)),
                        0.0)
    expected /= expected.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=1e-15)
    assert (probs[np.broadcast_to(~keep[:, None], probs.shape)] == 0.0).all()
