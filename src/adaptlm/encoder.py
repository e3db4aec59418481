"""Bidirectional transformer encoder: config, named weights, forward and backward.

Architecture: learned token/position/segment embeddings feeding a stack of
post-layer-norm blocks (multi-head self-attention, then a GELU feed-forward),
with the token-prediction projection tied to the token embedding matrix.
All arithmetic follows the dtype of the weight tensors: float32 in production,
float64 when a test harness upcasts a store for finite-difference checks.

The backward pass is hand-derived and returns one gradient array per named
tensor; correctness is pinned by finite-difference oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, InputError, TransferError
from .tokenizer import EncodedInput, batch_arrays

MAX_POSITIONS_CEILING = 512
N_SEGMENTS = 2


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden: int = 48
    layers: int = 2
    heads: int = 4
    ff_dim: int = 96
    max_positions: int = 64
    seed: int = 0
    layernorm_epsilon: float = 1e-12
    init_std: float = 0.02
    dropout: float = 0.1

    def validate(self) -> "EncoderConfig":
        if min(self.vocab_size, self.hidden, self.layers, self.heads, self.ff_dim) < 1:
            raise ConfigError("all size fields must be >= 1")
        if self.vocab_size < 6:
            raise ConfigError("vocab_size must exceed the five special tokens")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if not 3 <= self.max_positions <= MAX_POSITIONS_CEILING:
            raise ConfigError(f"max_positions must be in [3, {MAX_POSITIONS_CEILING}]")
        if self.layernorm_epsilon <= 0 or self.init_std <= 0:
            raise ConfigError("layernorm_epsilon and init_std must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        return self

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


def expected_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The exact tensor name -> shape map dictated by a config."""
    h, f = config.hidden, config.ff_dim
    shapes: dict[str, tuple[int, ...]] = {
        "embeddings.token": (config.vocab_size, h),
        "embeddings.position": (config.max_positions, h),
        "embeddings.segment": (N_SEGMENTS, h),
    }
    for i in range(config.layers):
        p = f"layer.{i}"
        for proj in ("query", "key", "value", "output"):
            shapes[f"{p}.attention.{proj}"] = (h, h)
            shapes[f"{p}.attention.{proj}.bias"] = (h,)
        shapes[f"{p}.attention.norm.scale"] = (h,)
        shapes[f"{p}.attention.norm.shift"] = (h,)
        shapes[f"{p}.ffn.intermediate"] = (h, f)
        shapes[f"{p}.ffn.intermediate.bias"] = (f,)
        shapes[f"{p}.ffn.output"] = (f, h)
        shapes[f"{p}.ffn.output.bias"] = (h,)
        shapes[f"{p}.ffn.norm.scale"] = (h,)
        shapes[f"{p}.ffn.norm.shift"] = (h,)
    shapes["mlm.bias"] = (config.vocab_size,)
    return shapes


HEAD_PREFIX = "head."
IGNORE_LABEL = -100  # target of a position that no loss scores


@dataclass
class WeightStore:
    """Named-tensor container plus the config it was built for.

    Core tensor names and shapes are exactly those of expected_shapes();
    fine-tuned checkpoints may append task tensors under "head.*". metadata
    carries string pairs (notably the vocabulary fingerprint) that travel
    with checkpoints.
    """

    config: EncoderConfig
    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self) -> "WeightStore":
        self.config.validate()
        want = expected_shapes(self.config)
        for name, shape in want.items():
            if name not in self.tensors:
                raise ConfigError(f"missing tensor {name}")
            got = self.tensors[name].shape
            if tuple(got) != shape:
                raise ConfigError(f"tensor {name} has shape {tuple(got)}, expected {shape}")
        for name in self.tensors:
            if name not in want and not name.startswith(HEAD_PREFIX):
                raise ConfigError(f"unexpected tensor {name}")
        return self

    def check_compatible(self, vocab, max_len: int) -> None:
        """Raise unless a run over `vocab` at `max_len` can start from these
        weights: TransferError for another vocabulary, ConfigError for a
        max_len beyond max_positions."""
        cfg, fingerprint = self.config, vocab.fingerprint()
        if cfg.vocab_size != len(vocab):
            raise TransferError(f"checkpoint vocab_size {cfg.vocab_size} != vocabulary size {len(vocab)}")
        stored = self.metadata.get("vocab_fingerprint")
        if stored is not None and stored != fingerprint:
            raise TransferError("checkpoint was trained with a different vocabulary "
                                f"(fingerprint {stored[:12]}... != {fingerprint[:12]}...)")
        if max_len > cfg.max_positions:
            raise ConfigError(f"max_len {max_len} exceeds encoder max_positions {cfg.max_positions}")

    @property
    def dtype(self):
        return self.tensors["embeddings.token"].dtype

    def clone(self) -> "WeightStore":
        return WeightStore(self.config, {k: v.copy() for k, v in self.tensors.items()},
                           dict(self.metadata))

    def astype(self, dtype) -> "WeightStore":
        return WeightStore(self.config, {k: v.astype(dtype) for k, v in self.tensors.items()},
                           dict(self.metadata))


def truncated_normal(rng: np.random.Generator, shape, std: float,
                     dtype=np.float32) -> np.ndarray:
    """Normal(0, std) with resampling outside +-3 std, so the realized
    standard deviation stays within ~1.5% of std."""
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 3.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 3.0
    return (x * std).astype(dtype)


def init_weights(config: EncoderConfig) -> WeightStore:
    """Fresh weights, fully determined by config.seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        if len(shape) >= 2:
            tensors[name] = truncated_normal(rng, shape, config.init_std)
        elif name.endswith(".scale"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:
            tensors[name] = np.zeros(shape, dtype=np.float32)
    return WeightStore(config, tensors).validate()


def init_head(config: EncoderConfig, task: str, out_dim: int, seed: int) -> dict[str, np.ndarray]:
    """Affine task head tensors under head.<task>.*, seeded independently."""
    rng = np.random.default_rng(seed)
    return {
        f"{HEAD_PREFIX}{task}.weight": truncated_normal(rng, (config.hidden, out_dim), config.init_std),
        f"{HEAD_PREFIX}{task}.bias": np.zeros(out_dim, dtype=np.float32),
    }


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

class EncoderOutput(NamedTuple):
    hidden: np.ndarray  # (batch, length, hidden), last layer
    pooled: np.ndarray  # (batch, hidden), position-0 vector


def _split_heads(x, n_heads):
    b, l, h = x.shape
    return x.reshape(b, l, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, nh, l, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, l, nh * dh)


def _dropout_mask(rng, shape, p, dtype):
    return (rng.random(shape) >= p).astype(dtype) * (1.0 / (1.0 - p))


def forward_arrays(weights: WeightStore, ids, segments, mask, *,
                   train: bool = False, rng: np.random.Generator | None = None,
                   return_cache: bool = False):
    """Run the encoder over (B, L) int arrays. Returns EncoderOutput, plus the
    backprop cache when return_cache is set.

    train=True applies inverted dropout (embeddings, attention probabilities,
    both sublayer outputs) using draws from rng.
    """
    cfg = weights.config
    ids = np.asarray(ids, dtype=np.int64)
    segments = np.asarray(segments, dtype=np.int64)
    b, l = ids.shape
    if l > cfg.max_positions:
        raise InputError(f"sequence length {l} exceeds max_positions {cfg.max_positions}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError("token id out of vocabulary range")
    if segments.min() < 0 or segments.max() >= N_SEGMENTS:
        raise InputError("segment id out of range")

    dtype = weights.dtype
    t = weights.tensors
    p_drop = cfg.dropout if train else 0.0
    if p_drop > 0.0 and rng is None:
        raise InputError("training-mode forward with dropout requires an rng")

    key_mask = np.asarray(mask, dtype=dtype)
    scale = dtype.type(1.0 / math.sqrt(cfg.head_dim))

    x = t["embeddings.token"][ids] + t["embeddings.position"][:l][None] + t["embeddings.segment"][segments]
    emb_drop = None
    if p_drop > 0.0:
        emb_drop = _dropout_mask(rng, x.shape, p_drop, dtype)
        x = x * emb_drop

    cache = {"ids": ids, "segments": segments, "key_mask": key_mask,
             "emb_drop": emb_drop, "layers": []}

    for i in range(cfg.layers):
        p = f"layer.{i}"
        lc = {"x_in": x}
        q = x @ t[f"{p}.attention.query"] + t[f"{p}.attention.query.bias"]
        k = x @ t[f"{p}.attention.key"] + t[f"{p}.attention.key.bias"]
        v = x @ t[f"{p}.attention.value"] + t[f"{p}.attention.value.bias"]
        qh = _split_heads(q, cfg.heads)
        kh = _split_heads(k, cfg.heads)
        vh = _split_heads(v, cfg.heads)
        scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
        probs = kernels.attention_softmax(scores, key_mask)
        probs_used = probs
        attn_drop = None
        if p_drop > 0.0:
            attn_drop = _dropout_mask(rng, probs.shape, p_drop, dtype)
            probs_used = probs * attn_drop
        ctx = _merge_heads(probs_used @ vh)
        attn = ctx @ t[f"{p}.attention.output"] + t[f"{p}.attention.output.bias"]
        attn_out_drop = None
        if p_drop > 0.0:
            attn_out_drop = _dropout_mask(rng, attn.shape, p_drop, dtype)
            attn = attn * attn_out_drop
        res1 = x + attn
        x1_flat, mean1, rstd1 = kernels.layernorm_forward(
            res1.reshape(b * l, cfg.hidden),
            t[f"{p}.attention.norm.scale"], t[f"{p}.attention.norm.shift"],
            cfg.layernorm_epsilon)
        x1 = x1_flat.reshape(b, l, cfg.hidden)

        h1 = x1 @ t[f"{p}.ffn.intermediate"] + t[f"{p}.ffn.intermediate.bias"]
        a = kernels.gelu_forward(h1)
        h2 = a @ t[f"{p}.ffn.output"] + t[f"{p}.ffn.output.bias"]
        ffn_drop = None
        if p_drop > 0.0:
            ffn_drop = _dropout_mask(rng, h2.shape, p_drop, dtype)
            h2 = h2 * ffn_drop
        res2 = x1 + h2
        x2_flat, mean2, rstd2 = kernels.layernorm_forward(
            res2.reshape(b * l, cfg.hidden),
            t[f"{p}.ffn.norm.scale"], t[f"{p}.ffn.norm.shift"],
            cfg.layernorm_epsilon)
        x = x2_flat.reshape(b, l, cfg.hidden)

        lc.update(qh=qh, kh=kh, vh=vh, probs=probs, probs_used=probs_used,
                  attn_drop=attn_drop, attn_out_drop=attn_out_drop, ctx=ctx,
                  res1=res1, mean1=mean1, rstd1=rstd1, x1=x1, h1=h1, a=a,
                  ffn_drop=ffn_drop, res2=res2, mean2=mean2, rstd2=rstd2)
        cache["layers"].append(lc)

    out = EncoderOutput(hidden=x, pooled=x[:, 0].copy())
    return (out, cache) if return_cache else out


def zero_grads(weights: WeightStore) -> dict[str, np.ndarray]:
    """Zero-filled gradients for every core tensor (head tensors excluded)."""
    return {name: np.zeros_like(arr) for name, arr in weights.tensors.items()
            if not name.startswith(HEAD_PREFIX)}


def backward_arrays(weights: WeightStore, cache, d_hidden,
                    grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(hidden states) through the whole encoder.

    Accumulates into (and returns) a name -> gradient dict covering every
    core tensor, matching the layout of the forward cache.
    """
    cfg = weights.config
    t = weights.tensors
    if grads is None:
        grads = zero_grads(weights)

    b, l, h = d_hidden.shape
    scale = weights.dtype.type(1.0 / math.sqrt(cfg.head_dim))
    d = d_hidden

    for i in reversed(range(cfg.layers)):
        p = f"layer.{i}"
        lc = cache["layers"][i]

        d_res2_flat, dg2, db2 = kernels.layernorm_backward(
            d.reshape(b * l, h), lc["res2"].reshape(b * l, h),
            t[f"{p}.ffn.norm.scale"], lc["mean2"], lc["rstd2"])
        grads[f"{p}.ffn.norm.scale"] += dg2
        grads[f"{p}.ffn.norm.shift"] += db2
        d_res2 = d_res2_flat.reshape(b, l, h)

        d_h2 = d_res2 if lc["ffn_drop"] is None else d_res2 * lc["ffn_drop"]
        a2 = lc["a"].reshape(b * l, cfg.ff_dim)
        grads[f"{p}.ffn.output"] += a2.T @ d_h2.reshape(b * l, h)
        grads[f"{p}.ffn.output.bias"] += d_h2.sum(axis=(0, 1))
        d_a = d_h2 @ t[f"{p}.ffn.output"].T
        d_h1 = kernels.gelu_backward(d_a, lc["h1"])
        x1_2 = lc["x1"].reshape(b * l, h)
        grads[f"{p}.ffn.intermediate"] += x1_2.T @ d_h1.reshape(b * l, cfg.ff_dim)
        grads[f"{p}.ffn.intermediate.bias"] += d_h1.sum(axis=(0, 1))
        d_x1 = d_res2 + d_h1 @ t[f"{p}.ffn.intermediate"].T

        d_res1_flat, dg1, db1 = kernels.layernorm_backward(
            d_x1.reshape(b * l, h), lc["res1"].reshape(b * l, h),
            t[f"{p}.attention.norm.scale"], lc["mean1"], lc["rstd1"])
        grads[f"{p}.attention.norm.scale"] += dg1
        grads[f"{p}.attention.norm.shift"] += db1
        d_res1 = d_res1_flat.reshape(b, l, h)

        d_attn = d_res1 if lc["attn_out_drop"] is None else d_res1 * lc["attn_out_drop"]
        ctx2 = lc["ctx"].reshape(b * l, h)
        grads[f"{p}.attention.output"] += ctx2.T @ d_attn.reshape(b * l, h)
        grads[f"{p}.attention.output.bias"] += d_attn.sum(axis=(0, 1))
        d_ctx = _split_heads(d_attn @ t[f"{p}.attention.output"].T, cfg.heads)

        d_probs_used = d_ctx @ lc["vh"].transpose(0, 1, 3, 2)
        d_vh = lc["probs_used"].transpose(0, 1, 3, 2) @ d_ctx
        d_probs = d_probs_used if lc["attn_drop"] is None else d_probs_used * lc["attn_drop"]
        d_scores = kernels.attention_softmax_backward(d_probs, lc["probs"]) * scale
        d_qh = d_scores @ lc["kh"]
        d_kh = d_scores.transpose(0, 1, 3, 2) @ lc["qh"]

        x_in = lc["x_in"]
        x_in2 = x_in.reshape(b * l, h)
        d_x = d_res1.copy()
        for proj, d_ph in (("query", d_qh), ("key", d_kh), ("value", d_vh)):
            d_p = _merge_heads(d_ph)
            grads[f"{p}.attention.{proj}"] += x_in2.T @ d_p.reshape(b * l, h)
            grads[f"{p}.attention.{proj}.bias"] += d_p.sum(axis=(0, 1))
            d_x += d_p @ t[f"{p}.attention.{proj}"].T
        d = d_x

    if cache["emb_drop"] is not None:
        d = d * cache["emb_drop"]
    d2 = d.reshape(b * l, h)
    kernels.embedding_grad(cache["ids"].reshape(-1), d2, grads["embeddings.token"])
    grads["embeddings.position"][:l] += d.sum(axis=0)
    kernels.embedding_grad(cache["segments"].reshape(-1), d2, grads["embeddings.segment"])
    return grads


# ---------------------------------------------------------------------------
# training step
# ---------------------------------------------------------------------------

def affine_xent(hidden, labels, weight, bias):
    """Mean softmax cross-entropy of hidden @ weight + bias at the positions
    where the (B, L) labels are not IGNORE_LABEL, taken in row-major order.

    Returns (loss, logits, d_hidden, d_weight, d_bias); loss is 0 when no
    position is labelled.
    """
    b, l, h = hidden.shape
    flat_labels = labels.reshape(-1)
    sel = flat_labels != IGNORE_LABEL
    flat_hidden = hidden.reshape(b * l, h)
    rows = flat_hidden[sel]
    logits = rows @ weight + bias
    losses, d_logits = kernels.softmax_xent(logits, flat_labels[sel])
    n = rows.shape[0]
    d_logits /= max(n, 1)
    d_hidden = np.zeros_like(flat_hidden)
    d_hidden[sel] = d_logits @ weight.T
    loss = float(losses.mean()) if n else 0.0
    return loss, logits, d_hidden.reshape(b, l, h), rows.T @ d_logits, d_logits.sum(axis=0)


def train_step(weights: WeightStore, inputs: list[EncodedInput], head, *,
               train: bool = True, rng: np.random.Generator | None = None):
    """Loss and gradients of one batch: forward, task head, backward.

    head(hidden) returns (loss, d_hidden, head_grads), where head_grads maps
    the tensors the head reads (its own head.<task>.* tensors, or core ones
    such as the tied token embeddings) to their gradients. Returns
    (loss, grads), loss as the head returned it: grads covers every core
    tensor plus those the head named, so other tasks' head tensors get no
    gradient and no update.
    """
    out, cache = forward_arrays(weights, *batch_arrays(inputs),
                                train=train, rng=rng, return_cache=True)
    loss, d_hidden, head_grads = head(out.hidden)
    grads = zero_grads(weights)
    for name, grad in head_grads.items():
        grads.setdefault(name, np.zeros_like(grad))
        grads[name] += grad
    backward_arrays(weights, cache, d_hidden, grads)
    return loss, grads
