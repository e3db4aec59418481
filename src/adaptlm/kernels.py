"""Hot numeric kernels, vectorized in numpy.

Everything here is elementwise / reduction work that dominates the non-BLAS
part of a training step: layer norm, GELU, masked attention softmax, fused
softmax cross-entropy, the AdamW update and embedding-gradient scatter-adds.
Matrix products stay on numpy (BLAS) and are not wrapped.

Kernels are dtype-generic: float32 in production, float64 for the
finite-difference gradient oracle.
"""

from __future__ import annotations

import ctypes
import importlib.util

import numpy as np

# perfbench/run.py records these two as machine facts.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def backend() -> str:
    return "numpy"


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory in the process instead of returning it.

    A training step allocates and frees the same multi-MB temporaries every
    time. By default glibc serves blocks that large with fresh mmaps and
    trims the heap top when they are freed, so each step faults its pages in
    again: one forward + backward at 16 x 32, hidden 64, took about 1,900
    minor page faults, and 19.6k at 16 x 128, hidden 128; with these two
    settings both took none, and the step ran about 1.3x faster. Blocks up to
    glibc's 32 MiB maximum come from the heap, and up to 256 MiB of free heap
    top stays mapped. Where the C library has no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()


_SQRT_2_OVER_PI = 0.7978845608028654
_GELU_CUBIC = 0.044715


def gelu_forward(x):
    """tanh-approximation GELU."""
    u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_backward(dy, x):
    u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x * x * x)
    t = np.tanh(u)
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def layernorm_forward(x, gamma, beta, eps):
    """Normalize rows of a (rows, hidden) array. Returns (y, mean, rstd)."""
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    var = np.mean(centered * centered, axis=1)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = centered * rstd[:, None]
    return xhat * gamma + beta, mean, rstd


def layernorm_backward(dy, x, gamma, mean, rstd):
    xhat = (x - mean[:, None]) * rstd[:, None]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * rstd[:, None]
    return dx, dgamma, dbeta


def attention_softmax(scores, key_mask):
    """Row softmax of (batch, heads, q, k) scores; masked keys get exact weight 0.

    key_mask is (batch, k) with 1.0 for real positions. Rows must have at
    least one unmasked key; encoder.forward_arrays enforces that.
    """
    neg = np.array(-1e9, dtype=scores.dtype)
    bias = np.where(key_mask[:, None, None, :] > 0, scores.dtype.type(0), neg)
    z = scores + bias
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    e = e * key_mask[:, None, None, :]
    return e / e.sum(axis=-1, keepdims=True)


def attention_softmax_backward(dprobs, probs):
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return (dprobs - inner) * probs


def softmax_xent(logits, targets):
    """Per-row cross-entropy and its logit gradient (softmax - onehot)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    losses = np.log(s[:, 0]) - z[rows, targets]
    d = e / s
    d[rows, targets] -= 1.0
    return losses, d


def adamw_update(param, grad, m, v, lr, beta1, beta2, eps, weight_decay, bc1, bc2):
    """Decoupled-weight-decay Adam step, in place on 1-d arrays; weight_decay
    is a scalar or one rate per element."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    param -= lr * ((m / bc1) / (np.sqrt(v / bc2) + eps) + weight_decay * param)


def embedding_grad(ids, dout, table):
    """Accumulate dout rows into table rows selected by ids (scatter-add)."""
    np.add.at(table, ids, dout)
