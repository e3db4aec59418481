"""Pure arithmetic the benchmark reports with: percentiles, span self time,
padding share, repeat ratio and matmul FLOP counts.

Nothing here imports adaptlm, so the unit tests in perfbench/tests can check
these formulas without the program under test.
"""

from __future__ import annotations

import math
from collections import Counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. q lies in (0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-percentile
    position; a percentile is worth reporting when this is at least 10."""
    return n - math.ceil(q / 100.0 * n)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end)
    intervals; overlapping and out-of-range parts count once."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Per-span self time: its duration minus the part of its interval that
    its direct children cover. parents[i] is the index of span i's parent
    span, or -1 for a root."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    return [ends[i] - starts[i] - covered_length(children.get(i, ()), starts[i], ends[i])
            for i in range(len(starts))]


def padding_share(real_tokens: int, slots: int) -> float:
    """Share of encoder positions that are padding."""
    if slots <= 0:
        raise ValueError("no positions")
    return 1.0 - real_tokens / slots


def repeat_ratio(keys: Counter) -> float:
    """Calls per distinct input; 1.0 means nothing was encoded twice."""
    distinct = len(keys)
    return sum(keys.values()) / distinct if distinct else 0.0


def encoder_forward_flops(batch: int, length: int, hidden: int, ff_dim: int,
                          layers: int) -> int:
    """Matmul FLOPs (2 per multiply-add) of one encoder forward over a padded
    (batch, length) block. Per layer: Q, K, V and output projections
    (4 x N x H x H), the two FFN matmuls (2 x N x H x F), and the attention
    scores and context products (2 x B x L x L x H), with N = B x L rows."""
    rows = batch * length
    per_layer = (2 * rows * (4 * hidden * hidden + 2 * hidden * ff_dim)
                 + 4 * batch * length * length * hidden)
    return layers * per_layer


def encoder_backward_flops(batch: int, length: int, hidden: int, ff_dim: int,
                           layers: int) -> int:
    """Each forward matmul has two backward matmuls (input and weight
    gradients) of the same size."""
    return 2 * encoder_forward_flops(batch, length, hidden, ff_dim, layers)


def mlm_head_flops(masked: int, hidden: int, vocab: int) -> int:
    """Tied-embedding projection of the masked rows (forward), plus the
    token-table gradient and the hidden-row gradient (backward)."""
    return 3 * 2 * masked * hidden * vocab


def mlm_step_flops(batch: int, length: int, hidden: int, ff_dim: int, layers: int,
                   masked: int, vocab: int) -> dict:
    fwd = encoder_forward_flops(batch, length, hidden, ff_dim, layers)
    bwd = encoder_backward_flops(batch, length, hidden, ff_dim, layers)
    head = mlm_head_flops(masked, hidden, vocab)
    return {"forward": fwd, "backward": bwd, "mlm_head": head, "total": fwd + bwd + head}


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the median
    (statistics.quantiles' default method), the spread the bounds are set
    against."""
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
