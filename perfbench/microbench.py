"""Reference rates the traced run sets the encoder and kernels against.

sgemm_reference times the matmuls of one encoder layer (x @ W at the
projection and FFN shapes, plus the batched attention products) at a given
(batch, length) shape. kernel_microbench times each kernel dispatcher on a
copy of the arguments the traced run recorded, and derives the operation
count and the bytes the call must move (each input read once, each output
written once) from those arguments.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import arith


def _time_per_call(fn, budget_s: float, min_calls: int = 5) -> float:
    """Median seconds per call over repeated batches filling budget_s."""
    fn()  # warm-up
    t = perf_counter()
    fn()
    once = max(perf_counter() - t, 1e-7)
    per_batch = max(1, int(budget_s / 7 / once))
    samples = []
    deadline = perf_counter() + budget_s
    while len(samples) < min_calls or perf_counter() < deadline:
        t = perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((perf_counter() - t) / per_batch)
    return arith.median(samples)


def sgemm_reference(batch: int, length: int, hidden: int, ff_dim: int, heads: int,
                    budget_s: float = 0.4, seed: int = 0) -> float:
    """GFLOP/s of one layer's matmuls at this shape, in float32."""
    rng = np.random.default_rng(seed)
    rows = batch * length
    dh = hidden // heads

    def arr(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    x, w_hh, w_hf, w_fh = arr(rows, hidden), arr(hidden, hidden), arr(hidden, ff_dim), arr(ff_dim, hidden)
    a = arr(rows, ff_dim)
    q, kt, v = arr(batch, heads, length, dh), arr(batch, heads, dh, length), arr(batch, heads, length, dh)
    p = arr(batch, heads, length, length)

    def layer():
        for _ in range(4):
            x @ w_hh
        x @ w_hf
        a @ w_fh
        q @ kt
        p @ v

    flops = arith.encoder_forward_flops(batch, length, hidden, ff_dim, 1)
    return flops / _time_per_call(layer, budget_s) / 1e9


def _n(a) -> int:
    return int(np.asarray(a).size)


def _bytes(*arrays) -> int:
    return sum(int(np.asarray(a).nbytes) for a in arrays)


def kernel_cost(name: str, args) -> tuple[int, int]:
    """(operations, bytes moved) of one call. Operation counts follow the
    numpy reference formulas in adaptlm.kernels, one per arithmetic or
    transcendental elementwise operation and per reduction add."""
    if name == "gelu_forward":
        (x,) = args
        return 9 * _n(x), 2 * _bytes(x)
    if name == "gelu_backward":
        dy, x = args
        return 18 * _n(x), _bytes(dy, x) + _bytes(x)
    if name == "layernorm_forward":
        x, gamma, beta, _ = args
        rows = x.shape[0]
        return 7 * _n(x), 2 * _bytes(x) + _bytes(gamma, beta) + 2 * rows * x.itemsize
    if name == "layernorm_backward":
        dy, x, gamma, mean, rstd = args
        return 13 * _n(x), _bytes(dy, x, gamma, mean, rstd) + _bytes(x) + 2 * _bytes(gamma)
    if name == "attention_softmax":
        scores, key_mask = args
        return 8 * _n(scores), 2 * _bytes(scores) + _bytes(key_mask)
    if name == "attention_softmax_backward":
        dprobs, probs = args
        return 4 * _n(probs), _bytes(dprobs, probs) + _bytes(probs)
    if name == "softmax_xent":
        logits, targets = args
        return 5 * _n(logits), 2 * _bytes(logits) + _bytes(targets) + logits.shape[0] * logits.itemsize
    if name == "adamw_update":
        param, grad, m, v = args[:4]
        return 16 * _n(param), _bytes(param, grad, m, v) + _bytes(param, m, v)
    if name == "embedding_grad":
        ids, dout, _ = args
        return _n(dout), _bytes(ids, dout) + 2 * _bytes(dout)
    raise ValueError(f"unknown kernel {name}")


def kernel_microbench(kernels_module, kernel_time: dict, kernel_args: dict,
                      budget_s: float = 0.1) -> dict:
    """Per kernel, at the argument signature that took the most traced time:
    microseconds per call, operations, bytes moved and the implied rates."""
    out = {}
    for name, by_sig in kernel_time.items():
        if not by_sig:
            continue
        sig = by_sig.most_common(1)[0][0]
        args = [a.copy() if isinstance(a, np.ndarray) else a for a in kernel_args[name][sig]]
        fn = getattr(kernels_module, name)
        seconds = _time_per_call(lambda: fn(*args), budget_s)
        ops, moved = kernel_cost(name, args)
        out[name] = {
            "shapes": [list(a.shape) for a in args if isinstance(a, np.ndarray)],
            "us": seconds * 1e6,
            "ops": ops,
            "bytes": moved,
            "gop_per_s": ops / seconds / 1e9,
            "gb_per_s": moved / seconds / 1e9,
        }
    return out
