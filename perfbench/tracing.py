"""Span tracing installed from outside the program.

The tracer wraps public adaptlm functions at each layer boundary. A function
is replaced under every name that refers to it in a loaded adaptlm module,
because modules look their callees up differently: pretrain and heads import
forward_arrays by name, while the encoder calls kernels.<name> through the
module. AdamW.step is wrapped on its class. uninstall() puts every original
back, so an untraced phase runs the program exactly as shipped.

Spans live in parallel lists (name, start, end, parent, round, and unit: the
pretraining step or QA example they belong to) and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import arith

SETUP = -1  # round index of spans recorded during set-up

# span name -> (module, attribute) of the function it wraps
WRAPPED = {
    "encoder.forward": ("encoder", "forward_arrays"),
    "encoder.backward": ("encoder", "backward_arrays"),
    "pretrain.loop": ("pretrain", "train_mlm"),
    "pretrain.masking": ("pretrain", "apply_masking"),
    "pretrain.step_grads": ("pretrain", "mlm_step_grads"),
    "pretrain.pack": ("pretrain", "pack_documents"),
    "pretrain.read_corpus": ("pretrain", "read_corpus"),
    "checkpoint.save": ("checkpoint", "save_checkpoint_file"),
    "checkpoint.load": ("checkpoint", "load_checkpoint_file"),
    "tokenizer.encode_sequence": ("tokenizer", "encode_sequence"),
    "tokenizer.encode_pieces": ("tokenizer", "encode_pieces"),
    "heads.finetune": ("heads", "finetune"),
    "heads.predict_ner": ("heads", "predict_ner"),
    "heads.predict_re": ("heads", "predict_re"),
    "heads.predict_qa": ("heads", "predict_qa"),
    "heads.extract_span": ("heads", "extract_span"),
    "heads.encode_windows": ("heads", "encode_windows"),
    "heads.ner_decode": ("heads", "ner_decode"),
    "metrics.entity_prf": ("metrics", "entity_prf"),
    "metrics.classification_prf": ("metrics", "classification_prf"),
    "metrics.qa_metrics": ("metrics", "qa_metrics"),
    "metrics.spans_from_tags": ("metrics", "spans_from_tags"),
    "data.vocab": ("vocab", "load_vocabulary_file"),
    "data.ner": ("data", "load_ner_dataset"),
    "data.re": ("data", "parse_re_tsv"),
    "data.qa": ("data", "parse_qa_json"),
    "fixtures.generate": ("fixtures", "generate_fixtures"),
}

KERNELS = ("gelu_forward", "gelu_backward", "layernorm_forward", "layernorm_backward",
           "attention_softmax", "attention_softmax_backward", "softmax_xent",
           "adamw_update", "embedding_grad")


def _forward_attrs(args, kwargs):
    weights, ids, mask = args[0], args[1], args[3]
    b, l = np.shape(ids)
    cfg = weights.config
    return (b, l, int(np.sum(mask)), cfg.hidden, cfg.ff_dim, cfg.layers, cfg.heads)


def _backward_attrs(args, kwargs):
    weights, d_hidden = args[0], args[2]
    b, l, _ = d_hidden.shape
    cfg = weights.config
    return (b, l, cfg.hidden, cfg.ff_dim, cfg.layers)


def _step_grads_attrs(args, kwargs):
    masked, weights = args[0], args[1]
    return (int(masked.mask_positions.shape[0]), weights.config.hidden,
            weights.config.vocab_size)


def _encode_sequence_key(args, kwargs):
    return ("seq", args[0], args[1], args[3])


def _encode_pieces_key(args, kwargs):
    return ("pieces", tuple(args[0]), args[2])


ATTRS = {
    "encoder.forward": _forward_attrs,
    "encoder.backward": _backward_attrs,
    "pretrain.step_grads": _step_grads_attrs,
    "tokenizer.encode_sequence": _encode_sequence_key,
    "tokenizer.encode_pieces": _encode_pieces_key,
}


def _signature(args):
    return tuple((a.shape, a.dtype.str) if isinstance(a, np.ndarray) else type(a).__name__
                 for a in args)


class Tracer:
    """Records spans while installed; one per run, single-threaded."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.units: list[int] = []
        self.attrs: dict[int, object] = {}
        self.results: dict[int, object] = {}
        self.stack: list[int] = []
        self.round = SETUP
        self.unit = 0
        # kernel name -> seconds spent per argument signature, and one copy
        # of the arguments per signature for the micro-benchmarks
        self.kernel_time: dict[str, Counter] = {k: Counter() for k in KERNELS}
        self.kernel_args: dict[str, dict] = {k: {} for k in KERNELS}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    def _wrap(self, name, fn, attrs_fn=None, keep_result=False, kernel=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.rounds.append(tracer.round)
            if name in ("pretrain.masking", "heads.predict_qa"):
                # a masking call opens a pretraining step; the benchmark
                # calls predict_qa once per QA example
                tracer.unit += 1
            tracer.units.append(tracer.unit)
            if attrs_fn is not None:
                tracer.attrs[idx] = attrs_fn(args, kwargs)
            if kernel is not None:
                sig = _signature(args)
                if sig not in tracer.kernel_args[kernel]:
                    tracer.kernel_args[kernel][sig] = [
                        a.copy() if isinstance(a, np.ndarray) else a for a in args]
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if kernel is not None:
                tracer.kernel_time[kernel][sig] += t1 - t0
            if keep_result:
                tracer.results[idx] = result
            return result

        return traced

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        root = sys.modules[self.package]
        for name, (mod_name, attr) in WRAPPED.items():
            original = getattr(getattr(root, mod_name), attr)
            keep = name in ("pretrain.loop", "checkpoint.save")
            self._replace_everywhere(original, self._wrap(name, original, ATTRS.get(name), keep))
        kernels = root.kernels
        for k in KERNELS:
            original = getattr(kernels, k)
            self._replace_everywhere(original, self._wrap(f"kernels.{k}", original, kernel=k))
        adamw = root.optimizer.AdamW
        original_step = adamw.step
        adamw.step = self._wrap("optimizer.step", original_step)
        self._patches.append((adamw, "step", original_step))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ output

    def write(self, path) -> None:
        """Spans as tab-separated lines, times in microseconds from the first."""
        origin = min(self.starts) if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart_us\tend_us\tparent\tround\tunit\n")
            for i, name in enumerate(self.names):
                f.write(f"{i}\t{name}\t{(self.starts[i] - origin) * 1e6:.1f}\t"
                        f"{(self.ends[i] - origin) * 1e6:.1f}\t{self.parents[i]}\t"
                        f"{self.rounds[i]}\t{self.units[i]}\n")

    def layer_metrics(self, n_rounds: int) -> dict:
        """Per-layer figures from the spans (see perfbench/README.md).

        Round-phase figures are per round; set-up figures (fixtures,
        data.parse, checkpoint.load) are per set-up."""
        names, rounds, parents, attrs = self.names, self.rounds, self.parents, self.attrs
        own = arith.self_times(self.starts, self.ends, parents)
        # inclusive seconds, self seconds and calls per span name, by phase
        incl, self_s, calls, setup = Counter(), Counter(), Counter(), Counter()
        real = slots = flops = 0
        enc_time = 0.0
        for i, n in enumerate(names):
            d = self.ends[i] - self.starts[i]
            if rounds[i] < 0:
                setup[n] += d
                continue
            incl[n] += d
            self_s[n] += own[i]
            calls[n] += 1
            if n == "encoder.forward":
                b, l, r, h, f, layers, _ = attrs[i]
                real += r
                slots += b * l
                flops += arith.encoder_forward_flops(b, l, h, f, layers)
                enc_time += d
            elif n == "encoder.backward":
                b, l, h, f, layers = attrs[i]
                flops += arith.encoder_backward_flops(b, l, h, f, layers)
                enc_time += d
        per_round = 1.0 / max(n_rounds, 1)

        def ms(counter, *span_names):
            return 1e3 * per_round * sum(counter[n] for n in span_names)

        def per_call(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        m: dict[str, float] = {
            "encoder.forward.self_ms": ms(self_s, "encoder.forward"),
            "encoder.backward.self_ms": ms(self_s, "encoder.backward"),
            "encoder.forward.calls": per_round * calls["encoder.forward"],
            "encoder.padding_share": arith.padding_share(real, slots) if slots else 0.0,
            "encoder.gflop_per_s": per_call(flops, enc_time) / 1e9,
        }
        for k in KERNELS:
            m[f"kernels.{k}.ms"] = ms(incl, f"kernels.{k}")
            m[f"kernels.{k}.calls"] = per_round * calls[f"kernels.{k}"]

        m["optimizer.step.ms"] = ms(incl, "optimizer.step")
        opt_steps = {i for i, n in enumerate(names) if rounds[i] >= 0 and n == "optimizer.step"}
        opt_kernels = sum(1 for i, p in enumerate(parents) if p in opt_steps)
        m["optimizer.kernel_calls_per_step"] = per_call(opt_kernels, len(opt_steps))

        m["pretrain.masking.ms"] = ms(incl, "pretrain.masking")
        m["pretrain.step_grads.self_ms"] = ms(self_s, "pretrain.step_grads")
        m["pretrain.loop.self_ms"] = ms(self_s, "pretrain.loop")
        m["pretrain.pack.ms"] = ms(incl, "pretrain.pack", "pretrain.read_corpus")

        saved = [self.results[i] for i, n in enumerate(names)
                 if rounds[i] >= 0 and n == "checkpoint.save"]
        m["checkpoint.save.ms"] = ms(incl, "checkpoint.save")
        m["checkpoint.save.calls"] = per_round * calls["checkpoint.save"]
        m["checkpoint.bytes"] = per_call(sum(saved), len(saved))
        m["checkpoint.load.ms"] = 1e3 * setup["checkpoint.load"]

        m["tokenizer.encode_sequence.ms"] = ms(incl, "tokenizer.encode_sequence")
        m["tokenizer.encode_sequence.calls"] = per_round * calls["tokenizer.encode_sequence"]
        keys_by_round: dict[int, Counter] = {}
        for i, n in enumerate(names):
            if rounds[i] >= 0 and n in ("tokenizer.encode_sequence", "tokenizer.encode_pieces"):
                keys_by_round.setdefault(rounds[i], Counter())[attrs[i]] += 1
        ratios = [arith.repeat_ratio(keys) for keys in keys_by_round.values()]
        m["tokenizer.encode.repeat_ratio"] = per_call(sum(ratios), len(ratios))

        m["heads.extract_span.ms"] = ms(incl, "heads.extract_span")
        m["heads.extract_span.calls"] = per_round * calls["heads.extract_span"]
        m["heads.encode_windows.ms"] = ms(incl, "heads.encode_windows")
        qa_rows = [attrs[i][0] for i, n in enumerate(names)
                   if rounds[i] >= 0 and n == "encoder.forward" and parents[i] >= 0
                   and names[parents[i]] == "heads.predict_qa"]
        m["heads.qa_rows_per_forward"] = per_call(sum(qa_rows), len(qa_rows))
        m["heads.ner_decode.ms"] = ms(incl, "heads.ner_decode")

        # the metrics, data and fixtures functions never call one another,
        # so their spans do not nest and their durations add
        m["metrics.ms"] = ms(incl, *(n for n in incl if n.startswith("metrics.")))
        m["data.parse.ms"] = 1e3 * sum(t for n, t in setup.items()
                                       if n.startswith("data.") or n == "pretrain.read_corpus")
        m["fixtures.generate.ms"] = 1e3 * setup["fixtures.generate"]

        breakdown = self.step_breakdown(own)
        m["trace.step_coverage"] = per_call(sum(breakdown["self_ms"].values()),
                                            breakdown["recorded_ms"])
        return m

    def step_breakdown(self, own=None) -> dict:
        """Self time per pretraining step, by span name, over the round-phase
        steps: everything under the masking, step-gradient and optimizer spans
        that train_mlm opens. recorded_ms is the mean step time train_mlm
        itself records for those steps; the self times should add up to it."""
        names, parents = self.names, self.parents
        if own is None:
            own = arith.self_times(self.starts, self.ends, parents)
        step_parts = ("pretrain.masking", "pretrain.step_grads", "optimizer.step")
        in_step = [False] * len(names)
        by_name: Counter = Counter()
        steps = 0
        for i, n in enumerate(names):
            p = parents[i]
            if p < 0 or self.rounds[i] < 0:
                continue
            in_step[i] = in_step[p] or (n in step_parts and names[p] == "pretrain.loop")
            if in_step[i]:
                by_name[n] += own[i]
                steps += n == "pretrain.masking"
        recorded = sum(r["wall_ms"] for i, n in enumerate(names)
                       if n == "pretrain.loop" and self.rounds[i] >= 0
                       for r in self.results[i][1])
        per_step = 1e3 / steps if steps else 0.0
        return {"steps": steps, "recorded_ms": recorded / steps if steps else 0.0,
                "self_ms": {n: t * per_step for n, t in by_name.most_common()}}

    def dominant_encoder_shape(self):
        """(batch, length, hidden, ff_dim, heads) of the round-phase encoder
        forward calls that carry the most FLOPs."""
        weight: Counter = Counter()
        for i, n in enumerate(self.names):
            if self.rounds[i] >= 0 and n == "encoder.forward":
                b, l, _, h, f, layers, heads = self.attrs[i]
                weight[(b, l, h, f, heads)] += arith.encoder_forward_flops(b, l, h, f, layers)
        return weight.most_common(1)[0][0] if weight else None

    def step_flops(self):
        """Mean per-step FLOPs (forward, backward, MLM head) over the
        round-phase pretraining steps, or None when no step ran."""
        names, parents = self.names, self.parents
        rows = []
        for i, n in enumerate(names):
            if self.rounds[i] < 0 or n != "pretrain.step_grads":
                continue
            masked, hidden, vocab = self.attrs[i]
            fwd = next(j for j in range(i + 1, len(names))
                       if names[j] == "encoder.forward" and parents[j] == i)
            b, l, _, h, f, layers, _ = self.attrs[fwd]
            rows.append(arith.mlm_step_flops(b, l, h, f, layers, masked, vocab))
        if not rows:
            return None
        return {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}
