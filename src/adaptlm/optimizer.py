"""AdamW with a linear warmup / linear decay schedule.

Bias, layer-norm scale/shift and the output bias are exempt from weight
decay, the usual transformer convention.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ContractViolation


def linear_schedule(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Learning rate for 1-based step; ramps to base_lr, then decays linearly.

    The final step keeps a small positive rate (the decay hits zero one step
    past the end), so no step is a no-op.
    """
    warmup = int(round(warmup_fraction * total_steps))
    s = step - 1
    if warmup > 0 and s < warmup:
        return base_lr * (s + 1) / warmup
    denom = max(total_steps - warmup, 1)
    return base_lr * max(total_steps - s, 0) / denom


def _decay_exempt(name: str) -> bool:
    return name.endswith((".bias", ".scale", ".shift"))


BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-6


class AdamW:
    """AdamW over one contiguous arena of the tensors it trains.

    Construction copies the named tensors of a WeightStore, in sorted-name
    order, into one flat array of the store's dtype and rebinds each
    weights.tensors[name] to its view; names, shapes and values do not
    change. The grads, both moments and the per-element weight-decay rates
    share that layout, so zeroing the grads is one fill and a step is one
    kernel call. Tensors left out (another task's head) get no update.
    """

    def __init__(self, weights, names, *, weight_decay=0.01):
        t = weights.tensors
        self.params = np.empty(sum(t[n].size for n in names), dtype=weights.dtype)
        self.grad = np.zeros_like(self.params)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.decay = np.empty_like(self.params)
        self.grads: dict[str, np.ndarray] = {}
        span = slice(0, 0)
        for name in sorted(names):
            span = slice(span.stop, span.stop + t[name].size)
            self.params[span] = t[name].reshape(-1)
            t[name] = self.params[span].reshape(t[name].shape)
            self.grads[name] = self.grad[span].reshape(t[name].shape)
            self.decay[span] = 0.0 if _decay_exempt(name) else weight_decay
        self.step_count = 0

    def zero_grads(self) -> dict[str, np.ndarray]:
        """The grad views, zero-filled, for train_step to accumulate into."""
        self.grad.fill(0)
        return self.grads

    def checked_grad_norm(self, step: int, loss: float) -> float:
        """The global L2 norm of the grads, after checking that the step's loss
        and every gradient are finite; ContractViolation names the step and
        the first non-finite tensor.

        The norm is one float32 reduction over the arena. That can overflow
        while every gradient is finite, so a non-finite result is redone in
        float64, which cannot overflow, before the tensors are scanned.
        """
        if not math.isfinite(loss):
            raise ContractViolation(f"step {step}: the loss is {loss}")
        with np.errstate(over="ignore"):
            norm = float(np.sqrt(np.dot(self.grad, self.grad)))
        if not math.isfinite(norm):
            norm = float(np.linalg.norm(self.grad.astype(np.float64)))
        if not math.isfinite(norm):
            name = next(n for n, g in self.grads.items() if not np.isfinite(g).all())
            raise ContractViolation(f"step {step}: the gradient of {name} is not finite")
        return norm

    def step(self, lr: float) -> None:
        """One update from the grads train_step accumulated."""
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        kernels.adamw_update(self.params, self.grad, self.m, self.v,
                             lr, BETA1, BETA2, EPSILON, self.decay, bc1, bc2)
