"""Row groups: the encoder runs a large batch's packed rows as two groups, each
with its own layer stack, side by side on two threads. Results match a
one-group run up to float32 rounding, and the bytes depend on the shape
alone: not on pool or serial execution, nor on the BLAS thread setting. The
MLM steps below pass their masked positions as the read mask, so the last
layer computes at those columns only, chosen before the rows are split."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adaptlm import encoder
from adaptlm.encoder import (IGNORE_LABEL, EncoderConfig, expected_shapes, forward_arrays,
                             init_weights)
from adaptlm.optimizer import AdamW
from adaptlm.pretrain import MaskedBatch, mlm_step_grads
from adaptlm.tokenizer import EncodedInput, batch_arrays

SRC = Path(__file__).resolve().parents[1] / "src"
VOCAB = 300


def bench_weights(dropout):
    """Fresh weights at the bench shape: hidden 128, ff 512, 2 layers, 4 heads."""
    return init_weights(EncoderConfig(vocab_size=VOCAB, hidden=128, layers=2, heads=4,
                                      ff_dim=512, max_positions=128, dropout=dropout, seed=3))


def bench_batch(seed, rows=16, width=128):
    """A MaskedBatch of rows random inputs of 64 to width real tokens,
    padded to width, with labels at about 15% of the real positions."""
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(rows):
        n = int(rng.integers(width // 2, width + 1))
        ids = np.zeros(width, dtype=np.int32)
        ids[:n] = rng.integers(5, VOCAB, n)
        mask = (np.arange(width) < n).astype(np.int32)
        word_index = np.where(mask == 1, np.arange(width), -1).astype(np.int32)
        items.append(EncodedInput(ids, np.zeros(width, dtype=np.int32), mask, word_index,
                                  ((0, 0),) * width))
    real = np.stack([item.mask for item in items]) == 1
    labels = np.where(real & (rng.random(real.shape) < 0.15),
                      rng.integers(5, VOCAB, real.shape), IGNORE_LABEL)
    return MaskedBatch(items, labels, np.argwhere(labels != IGNORE_LABEL))


def bench_weights_hash(steps=2):
    """sha256 of the weights after steps AdamW steps at the bench shape,
    dropout 0.1, each reading the masked positions only; the subprocess test
    prints it."""
    weights = bench_weights(0.1)
    opt = AdamW(weights, expected_shapes(weights.config))
    rng = np.random.default_rng(7)
    for step in range(steps):
        mlm_step_grads(bench_batch(step), weights, rng=rng, grads=opt.zero_grads())
        opt.step(1e-3)
    digest = hashlib.sha256()
    for name in sorted(weights.tensors):
        digest.update(weights.tensors[name].tobytes())
    return digest.hexdigest()


def mlm_step(weights, masked, rng=None):
    """(loss, grads) of one training-mode MLM step, with fresh grads."""
    loss, _, grads = mlm_step_grads(masked, weights, rng=rng)
    return loss, grads


def test_groups_form_at_the_bench_shape_and_never_at_the_reference_shape():
    weights = bench_weights(0.0)
    _, cache = forward_arrays(weights, *batch_arrays(bench_batch(0).inputs), return_cache=True)
    n_rows = cache["plan"].n_rows
    assert [rows for rows, _ in cache["groups"]] == [(0, (n_rows + 1) // 2),
                                                     ((n_rows + 1) // 2, n_rows)]
    # the largest reference-shape batch: 16 x 32, hidden 64, nothing packed
    assert encoder._row_groups(16, 32, 64) == [(0, 16)]
    assert encoder._row_groups(1, 128, 1024) == [(0, 1)]


def test_the_last_layer_runs_at_the_masked_columns_of_both_groups():
    weights = bench_weights(0.0)
    masked = bench_batch(0)
    read = masked.labels != IGNORE_LABEL
    states, cache = forward_arrays(weights, *batch_arrays(masked.inputs), read=read,
                                   return_cache=True)
    keep, plan = cache["keep"], cache["plan"]
    assert len(cache["groups"]) == 2
    # one column count for every packed row, set by the row with most reads
    assert keep.shape == (plan.n_rows, keep.sum(axis=1).max())
    assert keep.sum() == read.sum() and keep.shape[1] < plan.width // 2
    assert (states[~read] == 0).all() and (states[read] != 0).any(axis=1).all()


def test_two_groups_equal_one_group_up_to_rounding(monkeypatch):
    weights = bench_weights(0.0)
    masked = bench_batch(1)
    arrays = batch_arrays(masked.inputs)
    states, cache = forward_arrays(weights, *arrays, return_cache=True)
    assert len(cache["groups"]) == 2
    loss, grads = mlm_step(weights, masked)

    monkeypatch.setattr(encoder, "GROUP_MIN_CELLS", 1 << 40)
    one_states, one_cache = forward_arrays(weights, *arrays, return_cache=True)
    assert len(one_cache["groups"]) == 1
    one_loss, one_grads = mlm_step(weights, masked)

    np.testing.assert_allclose(states, one_states, rtol=1e-5, atol=1e-5)
    assert loss == pytest.approx(one_loss, rel=1e-6)
    assert grads.keys() == one_grads.keys()
    for name, grad in grads.items():
        # the key-bias grads are zero but for rounding (softmax ignores a
        # per-query shift), so an absolute floor covers them
        np.testing.assert_allclose(grad, one_grads[name], rtol=1e-5, atol=1e-7, err_msg=name)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_pool_and_serial_runs_write_the_same_bytes(monkeypatch):
    weights = bench_weights(0.1)
    masked = bench_batch(2)
    monkeypatch.setattr(encoder, "_pool", None)
    pooled = mlm_step(weights, masked, np.random.default_rng(11))
    assert encoder._pool is not None  # the second group ran on the pool

    monkeypatch.setattr(encoder.os, "sched_getaffinity", lambda pid: {0})
    serial = mlm_step(weights, masked, np.random.default_rng(11))
    assert pooled[0] == serial[0]
    for name, grad in pooled[1].items():
        assert grad.tobytes() == serial[1][name].tobytes(), name


def test_restoring_the_callers_rng_replays_a_grouped_dropout_step():
    weights = bench_weights(0.1)
    masked = bench_batch(3)
    rng = np.random.default_rng(5)
    rng.random(3)  # a stream part-way through, as in a training run
    state = rng.bit_generator.state
    loss, grads = mlm_step(weights, masked, rng)
    after = rng.bit_generator.state
    assert after != state

    rng.bit_generator.state = state
    again_loss, again_grads = mlm_step(weights, masked, rng)
    assert rng.bit_generator.state == after
    assert loss == again_loss
    for name, grad in grads.items():
        assert grad.tobytes() == again_grads[name].tobytes(), name


@pytest.fixture(scope="module")
def in_process_hash():
    return bench_weights_hash()


@pytest.mark.parametrize("threads", ["1", "2", None], ids=["one", "two", "unset"])
def test_bench_shape_bytes_do_not_depend_on_the_blas_thread_setting(threads, in_process_hash):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = str(SRC)
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import test_groups; print(test_groups.bench_weights_hash())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout.strip()
    assert out == in_process_hash


def _child_states(conn, weights, arrays):
    conn.send(forward_arrays(weights, *arrays).tobytes())
    conn.close()


def test_a_forked_child_runs_groups_without_the_parents_pool_threads():
    weights = bench_weights(0.0)
    arrays = batch_arrays(bench_batch(4).inputs)
    states = forward_arrays(weights, *arrays)  # builds the pool where two CPUs are usable
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_states, args=(send, weights, arrays))
    child.start()
    try:
        assert receive.poll(120), "the forked child did not finish its grouped forward"
        assert receive.recv() == states.tobytes()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
