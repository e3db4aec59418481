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
from pathlib import Path

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


def _one_blas_thread() -> None:
    """Have numpy's bundled OpenBLAS compute every product on the calling thread.

    A large batch already runs on two threads of its own (encoder._in_groups),
    and a BLAS thread spinning between products only takes the core from the
    other group; two processes on two cores each fought their own BLAS
    threads. The bytes of a product also depend on how BLAS splits it, so
    with the count fixed at one, whatever OPENBLAS_NUM_THREADS or the CPU
    count says, a run writes the same bytes everywhere. Where numpy has no
    bundled scipy-openblas library this does nothing, and the thread count
    (and with it, at large shapes, the low bits) follows that BLAS's own
    settings.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = (ctypes.c_int,)
        set_threads.restype = None
        set_threads(1)


_one_blas_thread()


_SQRT_2_OVER_PI = 0.7978845608028654
_GELU_CUBIC = 0.044715


def gelu_forward(x):
    """tanh-approximation GELU."""
    y = x * x
    y *= _GELU_CUBIC
    y += 1.0
    y *= x
    y *= _SQRT_2_OVER_PI
    np.tanh(y, out=y)
    y += 1.0
    y *= x
    y *= 0.5
    return y


def gelu_backward(dy, x):
    x2 = x * x
    t = x2 * _GELU_CUBIC
    t += 1.0
    t *= x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    # d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) du/dx, u the tanh argument
    d = x2
    d *= 3.0 * _GELU_CUBIC
    d += 1.0
    d *= 0.5 * _SQRT_2_OVER_PI
    d *= x
    d *= 1.0 - t * t
    t += 1.0
    t *= 0.5
    d += t
    d *= dy
    return d


def _row_max(x):
    """Max over the last axis by halving: exact, one np.maximum per halving."""
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        top = np.maximum(x[..., :half], x[..., half:2 * half])
        if x.shape[-1] % 2:
            np.maximum(top[..., :1], x[..., -1:], out=top[..., :1])
        x = top
    return x


def layernorm_forward(x, gamma, beta, eps):
    """Normalize rows of a (rows, hidden) array. Returns (y, mean, rstd)."""
    mean = x.mean(axis=1)
    y = x - mean[:, None]
    rstd = (y * y).mean(axis=1)
    rstd += eps
    np.sqrt(rstd, out=rstd)
    np.reciprocal(rstd, out=rstd)
    y *= rstd[:, None]
    y *= gamma
    y += beta
    return y, mean, rstd


def layernorm_backward(dy, x, gamma, mean, rstd):
    xhat = x - mean[:, None]
    xhat *= rstd[:, None]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = dy * gamma
    m1 = dx.mean(axis=1)
    m2 = (dx * xhat).mean(axis=1)
    xhat *= m2[:, None]
    dx -= m1[:, None]
    dx -= xhat
    dx *= rstd[:, None]
    return dx, dgamma, dbeta


def attention_softmax(scores, key_mask):
    """Row softmax of (batch, heads, q, k) scores; masked keys get exact weight 0.

    key_mask is a boolean (batch, q, k) array, True at the keys each query
    may see. Every query needs at least one; encoder.forward_arrays ensures
    that.
    """
    probs = np.where(key_mask[:, None], scores, -np.inf)
    probs -= _row_max(probs)
    np.exp(probs, out=probs)  # exp(-inf) is exactly 0
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def attention_softmax_backward(dprobs, probs):
    d = dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)
    d *= probs
    return d


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
    """Accumulate dout rows into table rows selected by ids (scatter-add):
    rows sorted by id (stably), then one sum per run of equal ids."""
    if ids.size == 0:
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    table[sorted_ids[starts]] += np.add.reduceat(dout[order], starts, axis=0)
