"""AdamW with a linear warmup / linear decay schedule.

Bias, layer-norm scale/shift and the output bias are exempt from weight
decay, the usual transformer convention.
"""

from __future__ import annotations

import numpy as np

from . import kernels


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
    """Holds first/second moments per named tensor; updates in place."""

    def __init__(self, names, shapes_like, *, weight_decay=0.01):
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(shapes_like[n]) for n in names}
        self.v = {n: np.zeros_like(shapes_like[n]) for n in names}

    def step(self, tensors, grads, lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for name in sorted(grads):
            wd = 0.0 if _decay_exempt(name) else self.weight_decay
            kernels.adamw_update(
                tensors[name].reshape(-1), grads[name].reshape(-1),
                self.m[name].reshape(-1), self.v[name].reshape(-1),
                lr, BETA1, BETA2, EPSILON, wd, bc1, bc2)
