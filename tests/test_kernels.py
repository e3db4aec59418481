"""Kernel-level math, and float64 finite-difference oracles for the backward
kernels."""

import math

import numpy as np

from adaptlm import kernels as K

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


def test_attention_softmax_backward_matches_finite_differences(rng):
    scores = rng.standard_normal((2, 2, 3, 5))
    mask = np.ones((2, 5))
    mask[0, 3] = 0
    mask[1, 4] = 0
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
    mask = np.ones((2, 6))
    mask[1, 4:] = 0
    probs = K.attention_softmax(scores, mask)
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
