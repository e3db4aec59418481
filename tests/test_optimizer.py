import ctypes

import numpy as np
import pytest

from adaptlm import kernels
from adaptlm.encoder import EncoderConfig, expected_shapes, init_head, init_weights
from adaptlm.errors import ContractViolation
from adaptlm.optimizer import BETA1, BETA2, EPSILON, AdamW, _decay_exempt
from adaptlm.pretrain import MaskingPolicy, apply_masking, mlm_step_grads, pack_documents


def _store(dtype=np.float32):
    cfg = EncoderConfig(vocab_size=30, hidden=8, layers=2, heads=2, ff_dim=16,
                        max_positions=12, seed=3)
    store = init_weights(cfg)
    store.tensors.update(init_head(cfg, "ner", 5, seed=1))
    store.tensors.update(init_head(cfg, "re", 2, seed=2))
    return store.astype(dtype)


def _trained(store):
    return [*expected_shapes(store.config), "head.ner.weight", "head.ner.bias"]


def test_arena_views_share_memory_and_keep_names_shapes_values():
    store = _store()
    before = store.clone()
    opt = AdamW(store, _trained(store))
    for name in _trained(store):
        assert np.shares_memory(store.tensors[name], opt.params), name
        assert np.shares_memory(opt.grads[name], opt.grad), name
        assert store.tensors[name].shape == before.tensors[name].shape
        assert store.tensors[name].tobytes() == before.tensors[name].tobytes(), name
    # the arena is in sorted-name order
    offsets = [store.tensors[n].__array_interface__["data"][0] for n in sorted(_trained(store))]
    assert offsets == sorted(offsets)
    assert opt.params.size == sum(store.tensors[n].size for n in _trained(store))
    for name in ("head.re.weight", "head.re.bias"):
        assert name not in opt.grads
        assert not np.shares_memory(store.tensors[name], opt.params)


def test_untrained_head_gets_no_update_or_decay():
    store = _store()
    untouched = {n: store.tensors[n].tobytes() for n in ("head.re.weight", "head.re.bias")}
    opt = AdamW(store, _trained(store), weight_decay=0.5)
    opt.zero_grads()
    opt.grad += 1.0
    opt.step(0.1)
    for name, raw in untouched.items():
        assert store.tensors[name].tobytes() == raw, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arena_step_matches_per_tensor_loop_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    store = _store(dtype)
    names = sorted(_trained(store))
    reference = {n: store.tensors[n].copy() for n in names}
    m = {n: np.zeros_like(reference[n]) for n in names}
    v = {n: np.zeros_like(reference[n]) for n in names}
    opt = AdamW(store, names, weight_decay=0.01)
    for step in range(1, 4):
        grads = opt.zero_grads()
        for n in names:
            grads[n] += rng.standard_normal(grads[n].shape).astype(dtype)
        lr = 1e-3 * step
        opt.step(lr)
        bc1, bc2 = 1.0 - BETA1 ** step, 1.0 - BETA2 ** step
        for n in names:
            kernels.adamw_update(reference[n].reshape(-1), grads[n].reshape(-1),
                                 m[n].reshape(-1), v[n].reshape(-1), lr, BETA1, BETA2,
                                 EPSILON, 0.0 if _decay_exempt(n) else 0.01, bc1, bc2)
    for n in names:
        assert store.tensors[n].tobytes() == reference[n].tobytes(), n


def test_checked_grad_norm_is_the_global_norm():
    store = _store()
    opt = AdamW(store, _trained(store))
    grads = opt.zero_grads()
    grads["layer.0.ffn.output"][0, 0] = 3.0
    grads["mlm.bias"][1] = 4.0
    assert opt.checked_grad_norm(1, 0.5) == pytest.approx(5.0)


def test_checked_grad_norm_names_step_and_tensor():
    store = _store()
    opt = AdamW(store, _trained(store))
    with pytest.raises(ContractViolation, match="step 3: the loss is nan"):
        opt.checked_grad_norm(3, float("nan"))
    grads = opt.zero_grads()
    grads["layer.1.attention.key"][2, 1] = np.inf
    with pytest.raises(ContractViolation, match="step 9: .*layer.1.attention.key"):
        opt.checked_grad_norm(9, 1.0)


def test_checked_grad_norm_survives_float32_overflow_of_finite_grads():
    store = _store()
    opt = AdamW(store, _trained(store))
    opt.zero_grads()
    opt.grad += np.float32(1e30)  # finite, but their squares overflow float32
    norm = opt.checked_grad_norm(1, 1.0)
    assert np.isfinite(norm)
    assert norm == pytest.approx(1e30 * np.sqrt(opt.grad.size), rel=1e-5)


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_reference_shape_step_faults_in_no_pages_after_warm_up(mini_vocab):
    """One MLM step at 16 x 32, hidden 64, ff 128 reuses the heap blocks of
    the step before it. Without the malloc settings in kernels.py each step
    faulted in about 1,900 pages."""
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(0)
    words = [w for w in mini_vocab.entries if w.isalpha()]
    docs = [[" ".join(rng.choice(words, 12)) for _ in range(6)] for _ in range(40)]
    segments = pack_documents(docs, mini_vocab, 32)
    cfg = EncoderConfig(vocab_size=len(mini_vocab), hidden=64, layers=2, heads=4,
                        ff_dim=128, max_positions=40, dropout=0.1, seed=0)
    store = init_weights(cfg)
    opt = AdamW(store, expected_shapes(cfg))
    policy = MaskingPolicy(seed=1)
    dropout_rng = np.random.default_rng(2)

    def step(i):
        batch = [segments[(16 * i + k) % len(segments)] for k in range(16)]
        masked = apply_masking(batch, policy, mini_vocab, rng=rng)
        loss, _, _ = mlm_step_grads(masked, store, train=True, rng=dropout_rng,
                                    grads=opt.zero_grads())
        opt.checked_grad_norm(i, loss)
        opt.step(1e-4)

    for i in range(5):
        step(i)
    faults = []
    for i in range(5, 15):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step(i)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert np.median(faults) < 100, faults
