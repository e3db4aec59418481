"""Bidirectional transformer encoder: config, named weights, forward and backward.

Architecture: learned token/position/segment embeddings feeding a stack of
post-layer-norm blocks (multi-head self-attention, then a GELU feed-forward),
with the token-prediction projection tied to the token embedding matrix.
All arithmetic follows the dtype of the weight tensors: float32 in production,
float64 when a test harness upcasts a store for finite-difference checks.

Each block is a composition of private sublayer pairs (_affine, _dropout and
_layernorm, each with its _backward), so every operation and its gradient is
written once. The hand-derived backward is pinned by finite-difference
oracles in the test suite.

A forward packs its batch first. A row's span runs to its last real column,
and the batch's real width W is its longest span, so columns that are
padding in every row are never computed on. _packing_plan places each span
into as few rows of width W as first-fit-decreasing finds, with position ids
restarting at 0 per span and a block-diagonal attention mask (Krell et al.,
arXiv 2107.02027). Callers pass and get back the (B, L) layout at the
encoding length; the packed one lives only inside forward and backward.

The caller also says which positions it reads (read: the MLM targets, a
label head's labelled positions, a span head's passage positions, position
0 for relation inference), and the last layer computes its outputs only
there: keys and values at every packed cell, but queries, attention, the
output projection, both layer norms and the feed-forward block only at
each packed row's read columns, padded to the batch's largest per-row
count with that row's unread columns (_read_columns). This is sparse token
prediction (Izsak et al., arXiv 2104.07705) one layer deeper: the MLM loss
scores about 15% of the tokens, so most of the last layer's work was never
read. The returned states are zero outside the read positions.

An rng turns dropout on: a forward or training step given one draws its
dropout masks from it, and one without runs as inference.

A large batch splits its R packed rows into two groups, [0, ceil(R/2))
and the rest, and runs the layer stack of each on its own thread
(_row_groups, _in_groups); attention never crosses a packed row, so the
groups are independent, and numpy releases the GIL inside BLAS calls and
large ufuncs, so they overlap. A small batch runs the same layer stack once,
as one group. Importing kernels pins numpy's bundled OpenBLAS to one thread,
since the second core now runs the second group. The group bounds depend on
the shape alone, the second group's layer grads are added to the first's in
a fixed order, and each group draws dropout from its own generator seeded
from the caller's rng. So a run's bytes do not depend on the CPU count, on
pool or serial execution, or on OPENBLAS_NUM_THREADS (where numpy has no
bundled OpenBLAS to pin, large products follow that BLAS's own threads).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, ContractViolation, InputError, TransferError
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

@dataclass(frozen=True)
class _Packing:
    """Where the rows of a (B, L) batch sit in the R packed rows of width W.

    Row b's span, its first spans[b] columns (one past its last real
    column), occupies columns offsets[b] onwards of packed row rows[b]; W is
    the longest span. cells lists the flat (B·L) index of every span cell,
    in order, and slots the flat (R·W) packed index of each.
    """

    spans: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray
    n_rows: int
    width: int
    cells: np.ndarray
    slots: np.ndarray

    def pack(self, values, fill=0):
        """A (B, L, ...) array laid out as (R, W, ...) packed rows, fill
        outside every span."""
        b, l, *rest = values.shape
        out = np.full((self.n_rows * self.width, *rest), fill, dtype=values.dtype)
        out[self.slots] = values.reshape(b * l, *rest)[self.cells]
        return out.reshape(self.n_rows, self.width, *rest)

    def unpack(self, x, b, l):
        """(R·W, H) packed states -> (B, L, H), zero outside every span."""
        out = np.zeros((b * l, x.shape[1]), dtype=x.dtype)
        out[self.cells] = x[self.slots]
        return out.reshape(b, l, -1)


def _packing_plan(real) -> _Packing:
    """First-fit-decreasing placement of each row's span into rows as wide
    as the longest span: longest span first (ties by row), each into the
    first packed row with room for it. Deterministic in the (B, L) real
    mask."""
    b, l = real.shape
    spans = l - np.argmax(real[:, ::-1], axis=1)
    w = int(spans.max())
    rows = np.empty(b, dtype=np.int64)
    offsets = np.empty(b, dtype=np.int64)
    used: list[int] = []
    for i in np.argsort(-spans, kind="stable"):
        n = int(spans[i])
        r = next((r for r, u in enumerate(used) if u + n <= w), len(used))
        if r == len(used):
            used.append(0)
        rows[i], offsets[i] = r, used[r]
        used[r] += n
    in_span = np.arange(l) < spans[:, None]
    slots = ((rows * w + offsets)[:, None] + np.arange(l))[in_span]
    return _Packing(spans, rows, offsets, len(used), w, np.flatnonzero(in_span), slots)


def _split_heads(x, b, n_heads):
    """(B·L, H) rows -> (B, heads, L, H / heads)."""
    rows, h = x.shape
    return x.reshape(b, rows // b, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """(B, heads, L, head_dim) -> (B·L, H) rows."""
    b, nh, l, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b * l, nh * dh)


def _affine(x, t, name):
    return x @ t[name] + t[f"{name}.bias"]


def _affine_backward(d_y, x, t, name, grads):
    """Accumulate the weight and bias grads of _affine(x, t, name); return d(x)."""
    grads[name] += x.T @ d_y
    grads[f"{name}.bias"] += d_y.sum(axis=0)
    return d_y @ t[name].T


def _dropout(x, p, rng):
    """Inverted dropout: (x * mask, mask), or (x, None) when p is 0."""
    if p == 0.0:
        return x, None
    keep = rng.random(x.shape, dtype=np.float32) >= p
    mask = keep * x.dtype.type(1.0 / (1.0 - p))
    return x * mask, mask


def _dropout_backward(d_y, mask):
    return d_y if mask is None else d_y * mask


def _layernorm(x, t, name, eps):
    """Layer norm of (B·L, H) rows; returns (y, saved), saved holding the
    rows with their mean and rstd."""
    y, mean, rstd = kernels.layernorm_forward(x, t[f"{name}.scale"], t[f"{name}.shift"], eps)
    return y, (x, mean, rstd)


def _layernorm_backward(d_y, saved, t, name, grads):
    """Accumulate the scale and shift grads of _layernorm; return d(x)."""
    rows, mean, rstd = saved
    d_x, d_scale, d_shift = kernels.layernorm_backward(
        d_y, rows, t[f"{name}.scale"], mean, rstd)
    grads[f"{name}.scale"] += d_scale
    grads[f"{name}.shift"] += d_shift
    return d_x


# A batch splits into two groups of packed rows once its (R·W, hidden)
# states hold this many cells. Timed on two cores (2 layers, 4 heads,
# dropout 0.1, 16-row batches), a training step with two groups took 1.19x
# as long as with one at 26.6k cells, the same at 32.8k, 0.74-0.84x at
# 41k-57k and 0.54-0.69x from 61k to 262k. The constant keeps a margin
# above the break-even and above every reference-shape batch (at most
# 16 x 32 x 64 = 32,768 cells).
GROUP_MIN_CELLS = 1 << 16


def _row_groups(n_rows, width, hidden):
    """The [lo, hi) packed-row ranges whose layer stacks run side by side:
    two halves for a large batch, else all rows as one group. Attention never
    crosses a packed row, so the groups are independent. A function of the
    shape alone, so the bytes do not depend on the CPUs a run gets."""
    if n_rows >= 2 and n_rows * width * hidden >= GROUP_MIN_CELLS:
        half = (n_rows + 1) // 2
        return [(0, half), (half, n_rows)]
    return [(0, n_rows)]


_pool: ThreadPoolExecutor | None = None


def _forget_pool() -> None:
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)  # a forked child has no pool threads


def _in_groups(fn, n):
    """[fn(0), ..., fn(n - 1)]: fn(0) on this thread and the rest on a pool
    thread when the process may use two CPUs, else all here in order. numpy
    releases the GIL inside BLAS calls and large ufuncs, so the groups
    overlap."""
    global _pool
    if n == 1 or len(os.sched_getaffinity(0)) < 2:
        return [fn(g) for g in range(n)]
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=n - 1, thread_name_prefix="adaptlm-group")
    futures = [_pool.submit(fn, g) for g in range(1, n)]
    try:
        first = fn(0)
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _read_columns(read):
    """(cols, keep) for an (R, W) mask of the packed cells a caller reads:
    cols holds each packed row's read columns, ascending, then its unread
    ones, cut to the largest per-row read count m; keep marks which of those
    m are read. Every row's columns are distinct, so the last layer's
    backward can scatter its query rows back with one assignment, and every
    one is a cell of the row, so each query still sees some key."""
    m = int(read.sum(axis=1).max())
    cols = np.argsort(~read, axis=1, kind="stable")[:, :m]
    return cols, np.take_along_axis(read, cols, axis=1)


def _layers_forward(t, cfg, x, attn_mask, cols, keep, out, p_drop, rng, keep_cache):
    """The layer stack over one group of packed rows: x holds their (rows·W,
    hidden) embeddings, attn_mask their (rows, W, W) mask, and cols and keep
    their (rows, m) read columns (_read_columns). Every layer but the last
    computes at every cell; the last computes keys and values at every cell
    and everything else at the read columns only. Writes the last-layer
    states at the read cells into out, their zero-filled (rows·W, hidden)
    rows, and returns the per-layer backprop cache (empty without
    keep_cache)."""
    r, w = attn_mask.shape[:2]
    scale = t["embeddings.token"].dtype.type(1.0 / math.sqrt(cfg.head_dim))
    read = (np.arange(r)[:, None] * w + cols).reshape(-1)
    # (query rows, their key mask) of each layer
    queries = [(slice(None), attn_mask)] * (cfg.layers - 1)
    queries.append((read, attn_mask.reshape(r * w, w)[read].reshape(r, -1, w)))
    layers = []
    for i, (q, q_mask) in enumerate(queries):
        p = f"layer.{i}"
        x_in, x_q = x, x[q]
        qh = _split_heads(_affine(x_q, t, f"{p}.attention.query"), r, cfg.heads)
        kh, vh = (_split_heads(_affine(x, t, f"{p}.attention.{proj}"), r, cfg.heads)
                  for proj in ("key", "value"))
        scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
        probs = kernels.attention_softmax(scores, q_mask)
        probs_used, attn_drop = _dropout(probs, p_drop, rng)
        ctx = _merge_heads(probs_used @ vh)
        attn, attn_out_drop = _dropout(_affine(ctx, t, f"{p}.attention.output"), p_drop, rng)
        x1, norm1 = _layernorm(x_q + attn, t, f"{p}.attention.norm", cfg.layernorm_epsilon)

        h1 = _affine(x1, t, f"{p}.ffn.intermediate")
        a = kernels.gelu_forward(h1)
        h2, ffn_drop = _dropout(_affine(a, t, f"{p}.ffn.output"), p_drop, rng)
        x, norm2 = _layernorm(x1 + h2, t, f"{p}.ffn.norm", cfg.layernorm_epsilon)

        if keep_cache:
            layers.append(dict(x_in=x_in, q=q, x_q=x_q, qh=qh, kh=kh, vh=vh, probs=probs,
                               probs_used=probs_used, attn_drop=attn_drop, ctx=ctx,
                               attn_out_drop=attn_out_drop, norm1=norm1, x1=x1, h1=h1,
                               a=a, ffn_drop=ffn_drop, norm2=norm2))
    out[read] = x * keep.reshape(-1, 1)
    return layers


def forward_arrays(weights: WeightStore, ids, segments, mask, *, read=None,
                   rng: np.random.Generator | None = None, return_cache: bool = False):
    """Run the encoder over (B, L) int arrays. Returns the (B, L, hidden)
    last-layer states at the positions of the (B, L) bool array read, zero
    elsewhere, or (states, backprop cache) when return_cache is set. read
    names the positions whose states the caller uses; None means every real
    position, and a read position past its row's last real column reads 0.

    Rows are packed first: each row's span (up to its last real column) is
    placed by _packing_plan into R <= B rows of width W, the longest span,
    its position ids restart at 0, and a query attends only to the real keys
    of its own span. So every span cell gets the state the row would get
    alone, up to float32 rounding, and no column past W is computed on.
    Between the embeddings and the output the states are (R·W, hidden) rows,
    so each affine map is one matrix product; only attention splits them by
    packed row and head. The last layer computes its queries, attention,
    output projection, layer norms and feed-forward block only at each
    packed row's read columns (_read_columns), chosen over all packed rows
    before they are split. A large batch then runs the layer stack in two
    groups of packed rows, side by side (_row_groups).

    An rng turns dropout on: inverted dropout (embeddings, attention
    probabilities, both sublayer outputs) using draws from rng; with two
    groups, each group draws from its own generator, seeded from rng. At
    dropout 0 an rng draws nothing. Every mask row needs at
    least one real position, and no span may be longer than max_positions.
    """
    cfg = weights.config
    ids = np.asarray(ids, dtype=np.int64)
    segments = np.asarray(segments, dtype=np.int64)
    b, l = ids.shape
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError("token id out of vocabulary range")
    if segments.min() < 0 or segments.max() >= N_SEGMENTS:
        raise InputError("segment id out of range")

    t = weights.tensors
    p_drop = 0.0 if rng is None else cfg.dropout

    real = np.asarray(mask) > 0
    if not real.any(axis=1).all():
        raise ContractViolation("a mask row has no real position, so its attention is undefined")
    plan = _packing_plan(real)
    r, w = plan.n_rows, plan.width
    if w > cfg.max_positions:
        raise InputError(f"sequence length {w} exceeds max_positions {cfg.max_positions}")
    ids, segments = plan.pack(ids), plan.pack(segments)
    positions = plan.pack(np.broadcast_to(np.arange(l), (b, l)))
    # a query sees the real keys of its own span; the padding cells of a
    # packed row form one more group, so every query sees some key
    group = plan.pack(np.broadcast_to(np.arange(b)[:, None], (b, l)), fill=-1)
    packed_real = plan.pack(real, fill=False)
    keys = packed_real | (group < 0)
    attn_mask = (group[:, :, None] == group[:, None, :]) & keys[:, None, :]
    cols, keep = _read_columns(packed_real if read is None
                               else plan.pack(np.asarray(read, dtype=bool), fill=False))

    x, emb_drop = _dropout((t["embeddings.token"][ids] + t["embeddings.position"][positions]
                            + t["embeddings.segment"][segments]).reshape(r * w, cfg.hidden),
                           p_drop, rng)
    groups = _row_groups(r, w, cfg.hidden)
    rngs = [rng] * len(groups)
    if len(groups) > 1 and p_drop > 0.0:
        rngs = [np.random.default_rng(seed) for seed in rng.integers(1 << 63, size=len(groups))]
    out = np.zeros_like(x)

    def run(g):
        lo, hi = groups[g]
        rows = slice(lo * w, hi * w)
        return _layers_forward(t, cfg, x[rows], attn_mask[lo:hi], cols[lo:hi], keep[lo:hi],
                               out[rows], p_drop, rngs[g], return_cache)

    layers = _in_groups(run, len(groups))
    hidden = plan.unpack(out, b, l)
    if not return_cache:
        return hidden
    return hidden, {"plan": plan, "ids": ids, "segments": segments, "positions": positions,
                    "emb_drop": emb_drop, "keep": keep, "groups": list(zip(groups, layers))}


def zero_grads(weights: WeightStore) -> dict[str, np.ndarray]:
    """Zero-filled gradients for every core tensor (head tensors excluded)."""
    return {name: np.zeros_like(arr) for name, arr in weights.tensors.items()
            if not name.startswith(HEAD_PREFIX)}


def _layers_backward(t, cfg, d, keep, layers, grads):
    """Backpropagate d(loss)/d(last-layer rows) of one group through the layer
    stack, reading d at the group's read cells only (keep as the forward took
    it); accumulate the layer grads into grads and return d(embedding rows)."""
    scale = t["embeddings.token"].dtype.type(1.0 / math.sqrt(cfg.head_dim))
    r = layers[0]["qh"].shape[0]
    d = d[layers[-1]["q"]] * keep.reshape(-1, 1)
    for i in reversed(range(cfg.layers)):
        p = f"layer.{i}"
        lc = layers[i]

        d_res2 = _layernorm_backward(d, lc["norm2"], t, f"{p}.ffn.norm", grads)
        d_a = _affine_backward(_dropout_backward(d_res2, lc["ffn_drop"]), lc["a"], t,
                               f"{p}.ffn.output", grads)
        d_h1 = kernels.gelu_backward(d_a, lc["h1"])
        d_x1 = d_res2 + _affine_backward(d_h1, lc["x1"], t, f"{p}.ffn.intermediate", grads)

        d_res1 = _layernorm_backward(d_x1, lc["norm1"], t, f"{p}.attention.norm", grads)
        d_ctx = _split_heads(_affine_backward(_dropout_backward(d_res1, lc["attn_out_drop"]),
                                              lc["ctx"], t, f"{p}.attention.output", grads),
                             r, cfg.heads)
        d_probs = _dropout_backward(d_ctx @ lc["vh"].transpose(0, 1, 3, 2), lc["attn_drop"])
        d_vh = lc["probs_used"].transpose(0, 1, 3, 2) @ d_ctx
        d_scores = kernels.attention_softmax_backward(d_probs, lc["probs"]) * scale
        d_qh = d_scores @ lc["kh"]
        d_kh = d_scores.transpose(0, 1, 3, 2) @ lc["qh"]

        d_x_q = d_res1 + _affine_backward(_merge_heads(d_qh), lc["x_q"], t,
                                          f"{p}.attention.query", grads)
        # the query rows are distinct, so one assignment scatters them back
        d = np.zeros_like(lc["x_in"])
        d[lc["q"]] = d_x_q
        for proj, d_ph in (("key", d_kh), ("value", d_vh)):
            d = d + _affine_backward(_merge_heads(d_ph), lc["x_in"], t,
                                     f"{p}.attention.{proj}", grads)
    return d


def backward_arrays(weights: WeightStore, cache, d_hidden,
                    grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(hidden states) through the whole encoder.

    Accumulates into (and returns) a name -> gradient dict covering every
    core tensor, matching the layout of the forward cache. The first group
    of packed rows accumulates its layer grads into grads directly, a second
    one into scratch arrays that are then added, so the sums do not depend on
    which group finishes first.
    """
    cfg = weights.config
    t = weights.tensors
    grads = zero_grads(weights) if grads is None else grads

    plan = cache["plan"]
    w = plan.width
    d = plan.pack(d_hidden).reshape(plan.n_rows * w, -1)
    groups = cache["groups"]
    targets = [grads] + [{name: np.zeros_like(g) for name, g in grads.items()
                          if name.startswith("layer.")} for _ in groups[1:]]

    def run(g):
        (lo, hi), layers = groups[g]
        rows = slice(lo * w, hi * w)
        # each group reads, then overwrites, only its own rows of d
        d[rows] = _layers_backward(t, cfg, d[rows], cache["keep"][lo:hi], layers, targets[g])

    _in_groups(run, len(groups))
    for extra in targets[1:]:
        for name, grad in extra.items():
            grads[name] += grad

    d = _dropout_backward(d, cache["emb_drop"])
    for name, table in (("ids", "token"), ("positions", "position"), ("segments", "segment")):
        kernels.embedding_grad(cache[name].reshape(-1), d, grads[f"embeddings.{table}"])
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


def train_step(weights: WeightStore, inputs: list[EncodedInput], head,
               grads: dict[str, np.ndarray] | None = None, *, read=None,
               rng: np.random.Generator | None = None):
    """Loss and gradients of one batch: forward, task head, backward.

    read is the (B, L) bool array of the positions head reads, as
    forward_arrays takes it (None: every real position); the states head
    gets are zero elsewhere, and its d_hidden there is ignored. head(hidden)
    returns (loss, d_hidden, head_grads), where head_grads maps
    the tensors the head reads (its own head.<task>.* tensors, or core ones
    such as the tied token embeddings) to their gradients. The gradients
    accumulate into grads, zero-filled by the caller (AdamW.zero_grads), or
    into fresh arrays for every core tensor plus those the head names.
    An rng turns dropout on, as in forward_arrays. Returns (loss, grads),
    loss as the head returned it.
    """
    hidden, cache = forward_arrays(weights, *batch_arrays(inputs), read=read, rng=rng,
                                   return_cache=True)
    loss, d_hidden, head_grads = head(hidden)
    grads = zero_grads(weights) if grads is None else grads
    for name, grad in head_grads.items():
        grads.setdefault(name, np.zeros_like(grad))
        grads[name] += grad
    backward_arrays(weights, cache, d_hidden, grads)
    return loss, grads
