"""Unit tests for the benchmark's own arithmetic and tracer plumbing.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import arith  # noqa: E402


# ------------------------------------------------------------------ self time

def test_self_time_of_leaf_is_its_duration():
    assert arith.self_times([0.0], [2.5], [-1]) == [2.5]


def test_self_time_subtracts_nested_children_once():
    # root [0, 10] has children [1, 3] and [4, 8]; [4, 8] has a child [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    own = arith.self_times(starts, ends, parents)
    assert own == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert sum(own) == pytest.approx(10.0)  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] overlap on [3, 5]: together they cover 6
    own = arith.self_times([0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0])
    assert own[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    # a child that starts before or ends after its parent only covers the overlap
    own = arith.self_times([2.0, 0.0, 7.0], [8.0, 3.0, 12.0], [-1, 0, 0])
    assert own[0] == pytest.approx(6.0 - 1.0 - 1.0)


def test_covered_length_of_touching_and_disjoint_intervals():
    assert arith.covered_length([(0, 1), (1, 2), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert arith.covered_length([], 0, 10) == 0.0


# ---------------------------------------------------------------- percentiles

def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert arith.percentile(values, 50) == 50
    assert arith.percentile(values, 90) == 90
    assert arith.percentile(values, 100) == 100
    assert arith.percentile([7.0], 90) == 7.0
    assert arith.percentile([3, 1, 2], 50) == 2  # order of input does not matter


def test_samples_beyond_percentile():
    assert arith.samples_beyond(100, 90) == 10
    assert arith.samples_beyond(99, 90) == 9   # too few for a p90 worth reporting
    assert arith.samples_beyond(200, 50) == 100
    assert arith.samples_beyond(1, 90) == 0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        arith.percentile([], 50)
    with pytest.raises(ValueError):
        arith.percentile([1.0], 0)


def test_median_and_iqr_share():
    assert arith.median([3, 1, 2]) == 2
    assert arith.median([4, 1, 2, 3]) == 2.5
    values = [10.0] * 5 + [11.0] * 5
    assert arith.iqr_share(values) == pytest.approx(1.0 / 10.5)


# ---------------------------------------------------- padding and repetition

def test_padding_share():
    assert arith.padding_share(real_tokens=320, slots=512) == pytest.approx(0.375)
    assert arith.padding_share(real_tokens=512, slots=512) == 0.0
    with pytest.raises(ValueError):
        arith.padding_share(0, 0)


def test_repeat_ratio():
    assert arith.repeat_ratio(Counter({"a": 1, "b": 1})) == 1.0
    # 32 dev sentences encoded before training and after each of 8 epochs
    assert arith.repeat_ratio(Counter({f"s{i}": 9 for i in range(32)})) == 9.0
    assert arith.repeat_ratio(Counter()) == 0.0


# ----------------------------------------------------------------------- FLOPs

def _matmul(m, k, n):
    return 2 * m * k * n


def test_forward_flops_match_a_hand_count():
    # batch 1, length 2, hidden 4, ff 8, 2 heads of dim 2, one layer
    b, l, h, f, heads = 1, 2, 4, 8, 2
    rows, dh = b * l, h // heads
    hand = (3 * _matmul(rows, h, h)            # query, key, value projections
            + heads * _matmul(l, dh, l)        # scores, one per head
            + heads * _matmul(l, l, dh)        # context, one per head
            + _matmul(rows, h, h)              # attention output projection
            + _matmul(rows, h, f)              # FFN intermediate
            + _matmul(rows, f, h))             # FFN output
    assert hand == 576
    assert arith.encoder_forward_flops(b, l, h, f, layers=1) == hand
    assert arith.encoder_forward_flops(b, l, h, f, layers=3) == 3 * hand


def test_backward_and_mlm_head_flops_match_a_hand_count():
    b, l, h, f = 1, 2, 4, 8
    # every forward matmul x @ W has dx = dy @ W.T and dW = x.T @ dy
    assert arith.encoder_backward_flops(b, l, h, f, 1) == 2 * 576
    # one masked row over a 10-token vocabulary: logits, then the
    # token-table gradient and the hidden-row gradient
    hand_head = _matmul(1, h, 10) + _matmul(10, 1, h) + _matmul(1, 10, h)
    assert arith.mlm_head_flops(masked=1, hidden=h, vocab=10) == hand_head == 240
    step = arith.mlm_step_flops(b, l, h, f, 1, masked=1, vocab=10)
    assert step == {"forward": 576, "backward": 1152, "mlm_head": 240, "total": 1968}


def test_reference_step_is_about_a_quarter_gflop():
    # batch 16 x 32, hidden 64, ff 128, 2 layers; ~42 masked rows, vocab 84
    step = arith.mlm_step_flops(16, 32, 64, 128, 2, masked=42, vocab=84)
    assert 0.22e9 < step["total"] < 0.24e9


# -------------------------------------------------------------------- tracer

def test_tracer_wraps_every_lookup_site_and_restores_them():
    import adaptlm
    from adaptlm import encoder, heads, kernels, optimizer, pretrain
    from tracing import Tracer

    original_forward = encoder.forward_arrays
    original_gelu = kernels.gelu_forward
    original_step = optimizer.AdamW.step
    tracer = Tracer("adaptlm")
    tracer.install()
    try:
        # pretrain and heads import forward_arrays by name; each copy is wrapped
        for mod in (encoder, pretrain, heads, adaptlm):
            assert mod.forward_arrays is not original_forward
        assert kernels.gelu_forward is not original_gelu
        assert optimizer.AdamW.step is not original_step

        cfg = encoder.EncoderConfig(vocab_size=12, hidden=8, layers=1, heads=2, ff_dim=16,
                                    max_positions=6, dropout=0.0)
        weights = encoder.init_weights(cfg)
        ids = np.array([[2, 5, 6, 3, 0, 0]])
        mask = (ids > 0).astype(np.int32)
        pretrain.forward_arrays(weights, ids, np.zeros_like(ids), mask)
    finally:
        tracer.uninstall()
    for mod in (encoder, pretrain, heads, adaptlm):
        assert mod.forward_arrays is original_forward
    assert kernels.gelu_forward is original_gelu
    assert optimizer.AdamW.step is original_step

    names = tracer.names
    assert names[0] == "encoder.forward"
    assert tracer.attrs[0][:3] == (1, 6, 4)  # batch, length, real tokens
    kernel_spans = [i for i, n in enumerate(names) if n.startswith("kernels.")]
    assert kernel_spans and all(tracer.parents[i] == 0 for i in kernel_spans)
