"""The benchmark's three workloads.

Each workload has a set-up, which builds every input from the seed
(fixtures, corpus splits, long QA passages, start checkpoints), and a round,
a fixed unit of work that calls the entry points the CLI uses. A run repeats
identical rounds in a closed loop with one caller, so every round after the
first is also a determinism check against the first.

Program functions are always looked up through their module at call time
(pretrain.train_mlm, not a local name), so the tracer's wrappers see them.
The correctness checks use by-name imports, which the tracer never touches.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from adaptlm import (checkpoint, data, encoder, fixtures, heads, metrics, pretrain,
                     tokenizer, vocab)
from adaptlm.checkpoint import load_checkpoint_file as load_untraced
from adaptlm.checkpoint import roundtrip_bytes
from adaptlm.data import QAExample, RelationLabelSet
from adaptlm.encoder import EncoderConfig
from adaptlm.fixtures import FixtureRecipe
from adaptlm.heads import FinetuneConfig, admissible_positions
from adaptlm.pretrain import MaskingPolicy, PretrainConfig
from adaptlm.tags import TagScheme

BATCH = 16
LEARNING_RATE = 2e-3
WARMUP = 0.05
GENERAL_STEPS = 40     # general-corpus MLM steps that make a set-up start checkpoint
HOLDOUT_EVERY = 10     # every 10th domain document is held out for MLM scoring
SPLITS = ("train", "dev", "test")


class Tally:
    """Operations attempted and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class RoundResult:
    """What one round measured. train and evals hold (kind, items, seconds)
    per timed call, in the workload's units (real tokens for pretraining,
    examples or sentences for fine-tuning); latencies are per MLM step or per
    long-passage QA example."""

    wall_s: float
    train: list[tuple[str, int, float]]
    evals: list[tuple[str, int, float]]
    latencies_ms: list[float]
    figures: dict = field(default_factory=dict)


def _mean(values) -> float:
    return sum(values) / len(values)


def _write_corpus(path: Path, docs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n\n".join("\n".join(doc) for doc in docs) + "\n")


def _check_checkpoint(tally: Tally, path: Path, expected: dict | None = None) -> None:
    """The file reloads and re-serializes to the same bytes; with expected,
    its tensors equal those arrays bit for bit."""
    raw = path.read_bytes()
    loaded = load_untraced(path)
    tally.check(roundtrip_bytes(loaded) == raw, f"{path.name} does not reload bit-exactly")
    if expected is not None:
        same = (loaded.tensors.keys() == expected.keys()
                and all(np.array_equal(loaded.tensors[k], v) for k, v in expected.items()))
        tally.check(same, f"{path.name} differs from the weights the run returned")


def _general_checkpoint(fx: Path, work: Path, vocab_, seed: int, enc: EncoderConfig):
    """Short general-corpus pretraining, saved and loaded back: the start
    checkpoint of pretrain-ref and finetune-eval."""
    cfg = PretrainConfig(steps=GENERAL_STEPS, batch_size=BATCH, max_len=32,
                         learning_rate=LEARNING_RATE, warmup_fraction=WARMUP,
                         masking=MaskingPolicy(seed=seed), seed=seed, encoder=enc)
    weights, _ = pretrain.train_mlm(fx / "general_corpus.txt", cfg, vocab_)
    checkpoint.save_checkpoint_file(weights, work / "general.ckpt")
    return checkpoint.load_checkpoint_file(work / "general.ckpt")


def reference_encoder(vocab_size: int, seed: int) -> EncoderConfig:
    """The acceptance reference encoder: hidden 64, 2 layers, 4 heads, ff 128."""
    return EncoderConfig(vocab_size=vocab_size, hidden=64, layers=2, heads=4, ff_dim=128,
                         max_positions=40, dropout=0.0, seed=seed)


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PretrainShape:
    recipe: FixtureRecipe
    hidden: int
    heads: int
    ff_dim: int
    max_positions: int
    dropout: float
    max_len: int
    steps: int                # MLM steps per round
    checkpoint_interval: int
    from_general: bool        # continue from a general checkpoint, else from scratch
    heldout_draws: int        # mask draws per held-out batch when scoring
    loss_ceiling: float       # mlm_loss_end bound, above every seed-program value


@dataclass
class PretrainContext:
    work: Path
    vocab: object
    train_file: Path
    config: PretrainConfig
    start: object             # WeightStore or None (from scratch)
    heldout: list
    heldout_tokens: list[int]
    heldout_loss_start: float
    tokens_per_round: int
    reference_records: list | None = None


class Pretrain:
    # end-to-end metric (or latency_ms.p50, reported beside them)
    # -> (name in this workload's units, unit)
    names = {"train_items_per_s": ("mlm_tokens_per_s", "tokens/s"),
             "eval_items_per_s": ("mlm_heldout_tokens_per_s", "tokens/s"),
             "latency_ms.mean": ("mlm_step_ms.mean", "ms"),
             "latency_ms.p50": ("mlm_step_ms.p50", "ms"),
             "latency_ms.p90": ("mlm_step_ms.p90", "ms")}
    extra_figures = {"mlm_loss_end": "nats", "heldout_loss": "nats"}

    def __init__(self, name: str, shape: PretrainShape):
        self.name = name
        self.shape = shape

    def setup(self, work: Path, seed: int, tally: Tally) -> PretrainContext:
        s = self.shape
        fx = work / "fixtures"
        fixtures.generate_fixtures(s.recipe, seed, fx)
        vocab_ = vocab.load_vocabulary_file(fx / "vocab.txt")
        docs = pretrain.read_corpus(fx / "domain_corpus.txt")
        held_docs = docs[HOLDOUT_EVERY - 1::HOLDOUT_EVERY]
        train_docs = [d for i, d in enumerate(docs) if i % HOLDOUT_EVERY != HOLDOUT_EVERY - 1]
        train_file = work / "domain_train.txt"
        _write_corpus(train_file, train_docs)

        enc = EncoderConfig(vocab_size=len(vocab_), hidden=s.hidden, layers=2, heads=s.heads,
                            ff_dim=s.ff_dim, max_positions=s.max_positions, dropout=s.dropout,
                            seed=seed)
        start = _general_checkpoint(fx, work, vocab_, seed, enc) if s.from_general else None
        config = PretrainConfig(steps=s.steps, batch_size=BATCH, max_len=s.max_len,
                                learning_rate=LEARNING_RATE, warmup_fraction=WARMUP,
                                masking=MaskingPolicy(seed=seed + 1), seed=seed + 5000,
                                checkpoint_interval=s.checkpoint_interval,
                                encoder=None if s.from_general else enc)
        scored = start if s.from_general else encoder.init_weights(enc)

        # full batches only: a short last batch (one 9-token segment, say)
        # can draw no masked position, and then scores nothing
        segments = pretrain.pack_documents(held_docs, vocab_, s.max_len)
        heldout = []
        for draw in range(s.heldout_draws):
            for lo in range(0, len(segments) - BATCH + 1, BATCH):
                policy = MaskingPolicy(seed=seed * 10_000 + draw * 100 + lo // BATCH)
                heldout.append(pretrain.apply_masking(segments[lo:lo + BATCH], policy, vocab_))
        tally.check(bool(heldout) and all(m.mask_positions.shape[0] > 0 for m in heldout),
                    "no full held-out batch, or one with no masked position")
        heldout_tokens = [sum(seg.real_length for seg in m.inputs) for m in heldout]
        heldout_loss = _mean([pretrain.mlm_loss(m, scored)[0] for m in heldout])

        return PretrainContext(work, vocab_, train_file, config, start, heldout, heldout_tokens,
                               heldout_loss, self._tokens_per_round(train_docs, vocab_, config))

    @staticmethod
    def _tokens_per_round(train_docs, vocab_, config: PretrainConfig) -> int:
        """Real (non-pad) tokens in the batches train_mlm draws: the same
        packing and the same reshuffle-and-carry batch order."""
        lengths = [seg.real_length for seg in
                   pretrain.pack_documents(train_docs, vocab_, config.max_len)]
        order = pretrain.seed_stream(config.seed, "pretrain.order")
        pending: list[int] = []
        tokens = 0
        for _ in range(config.steps):
            while len(pending) < config.batch_size:
                pending.extend(order.permutation(len(lengths)).tolist())
            tokens += sum(lengths[i] for i in pending[:config.batch_size])
            pending = pending[config.batch_size:]
        return tokens

    def warm_up(self, ctx: PretrainContext) -> None:
        """Two steps at the round's shapes, so the first round is not cold."""
        cfg = replace(ctx.config, steps=2, checkpoint_interval=0)
        pretrain.train_mlm(ctx.train_file, cfg, ctx.vocab, init=ctx.start)

    def run_round(self, ctx: PretrainContext, index: int, tally: Tally) -> RoundResult:
        out = ctx.work / ("round0" if index == 0 else "round")
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        weights, records = pretrain.train_mlm(ctx.train_file, ctx.config, ctx.vocab,
                                              init=ctx.start, out_dir=out)
        train_s = perf_counter() - t0
        tally.ops(len(records))

        losses = [r["loss"] for r in records]
        n = len(losses)
        first = _mean(losses[:max(1, n // 10)])
        loss_end = _mean(losses[-max(1, n // 5):])
        tally.check(all(math.isfinite(x) for x in losses), "MLM loss is not finite")
        tally.check(loss_end < first, f"MLM loss did not fall ({first:.4f} -> {loss_end:.4f})")
        tally.check(loss_end <= self.shape.loss_ceiling,
                    f"mlm_loss_end {loss_end:.4f} above ceiling {self.shape.loss_ceiling}")
        trajectory = [(r["loss"], r["accuracy"]) for r in records]
        if ctx.reference_records is None:
            ctx.reference_records = trajectory
        else:
            tally.check(trajectory == ctx.reference_records,
                        "same-seed rerun gave different loss records")

        saved = sorted(out.glob("*.ckpt"))
        tally.ops(len(saved))
        expected_files = ctx.config.steps // ctx.config.checkpoint_interval + 1
        tally.check(len(saved) == expected_files,
                    f"{len(saved)} checkpoints written, expected {expected_files}")
        for path in saved:
            _check_checkpoint(tally, path, weights.tensors if path.name == "final.ckpt" else None)
            if index > 0:
                tally.check(path.read_bytes() == (ctx.work / "round0" / path.name).read_bytes(),
                            f"{path.name} differs from the first round's")

        scores, evals = [], []
        for i, (masked, tokens) in enumerate(zip(ctx.heldout, ctx.heldout_tokens)):
            t0 = perf_counter()
            scores.append(pretrain.mlm_loss(masked, weights)[0])
            evals.append((f"heldout{i}", tokens, perf_counter() - t0))
        tally.ops(len(scores))
        heldout_loss = _mean(scores)
        tally.check(math.isfinite(heldout_loss) and heldout_loss < ctx.heldout_loss_start,
                    f"held-out MLM loss did not fall ({ctx.heldout_loss_start:.4f} -> "
                    f"{heldout_loss:.4f})")
        return RoundResult(
            wall_s=train_s + sum(e[2] for e in evals),
            train=[("train_mlm", ctx.tokens_per_round, train_s)], evals=evals,
            latencies_ms=[r["wall_ms"] for r in records],
            figures={"mlm_loss_end": loss_end, "heldout_loss": heldout_loss,
                     "checkpoints": len(saved)})


PRETRAIN_REF = Pretrain("pretrain-ref", PretrainShape(
    recipe=FixtureRecipe(), hidden=64, heads=4, ff_dim=128, max_positions=40, dropout=0.0,
    max_len=32, steps=200, checkpoint_interval=50, from_general=True, heldout_draws=48,
    loss_ceiling=3.8))

PRETRAIN_WIDE = Pretrain("pretrain-wide", PretrainShape(
    recipe=FixtureRecipe(general_words=400, sentences_per_document=40), hidden=128, heads=4,
    ff_dim=512, max_positions=128, dropout=0.1, max_len=128, steps=20, checkpoint_interval=10,
    from_general=False, heldout_draws=10, loss_ceiling=5.1))


# ---------------------------------------------------------------------------
# fine-tuning and evaluation
# ---------------------------------------------------------------------------

MAX_LEN = 40
DOC_STRIDE = 16
# (epochs, learning rate) per task. At 3e-3, RE fine-tuning stalls near
# ln 2 on some seeds whatever the epoch count (seed 755301789 at 8 epochs,
# seed 8 at 16), predicting one class only; at 1e-3 for 24 epochs its loss
# fell from >= 0.638 to <= 0.253 on each of 150 seeds tried.
SCHEDULES = {"ner": (8, 3e-3), "re": (24, 1e-3), "qa": (8, 3e-3)}
QA_WINDOWS = 8         # doc_stride windows per long QA passage
# Below every value of the seed program seen (NER dev F1 >= 0.889 and QA
# lenient accuracy >= 0.944 over 112 seeds, RE dev F1 >= 0.667 over 150).
QUALITY_FLOORS = {"ner_dev_f1": 0.75, "re_dev_f1": 0.1, "qa_lenient": 0.8}


@dataclass
class FinetuneContext:
    work: Path
    vocab: object
    start: object
    ner: dict
    re: dict
    qa: dict                  # train (long), dev_short, eval (long dev + test)
    scheme: TagScheme
    labels: RelationLabelSet
    config: FinetuneConfig
    qa_train_windows: int
    reference: tuple | None = None


class LongPassages:
    """Builds QA examples whose work does not depend on the seed: a fixed
    question of three domain markers, and each fixture passage embedded in
    general-corpus words so the passage is exactly QA_WINDOWS full windows
    long and its one-piece answer sits where exactly two windows hold it."""

    def __init__(self, question: str, filler_words: list[str], vocab_, rng):
        self.question = question
        self.vocab = vocab_
        self.rng = rng
        self.cap = MAX_LEN - 3 - len(tokenizer.split_with_offsets(question, vocab_)[0])
        self.total = self.cap + (QA_WINDOWS - 1) * DOC_STRIDE
        self.words = [(w, len(tokenizer.wordpiece_split(w, vocab_))) for w in filler_words]

    def _filler(self, pieces: int) -> str:
        out = []
        while pieces > 0:
            word, n = self.words[int(self.rng.integers(len(self.words)))]
            if n > pieces:
                word, n = ".", 1
            out.append(word)
            pieces -= n
        return " ".join(out)

    def short(self, ex: QAExample) -> QAExample:
        return QAExample(ex.id, self.question, ex.passage, answers=ex.answers,
                         gold_answers=ex.gold_answers)

    def long(self, ex: QAExample) -> QAExample:
        (text, start), = ex.answers
        pieces, _, offsets = tokenizer.split_with_offsets(ex.passage, self.vocab)
        at = next(i for i, (s, _) in enumerate(offsets) if s == start)
        # answer piece index g: at least one window from either end, and not
        # on a multiple of the stride, where three windows would hold it
        slots = [g for g in range(self.cap, self.total - self.cap)
                 if g % DOC_STRIDE and g >= at and g - at + len(pieces) <= self.total]
        g = slots[int(self.rng.integers(len(slots)))]
        before = self._filler(g - at)
        after = self._filler(self.total - (g - at) - len(pieces))
        prefix = before + " " if before else ""
        passage = prefix + ex.passage + (" " + after if after else "")
        return QAExample(ex.id, self.question, passage, answers=((text, start + len(prefix)),),
                         gold_answers=ex.gold_answers)


def windows_with_answer(ex: QAExample, vocab_) -> tuple[int, int]:
    """(windows, windows that fully contain some located answer)."""
    windows = heads.encode_windows(ex.question, ex.passage, vocab_, MAX_LEN, DOC_STRIDE)
    hits = 0
    for w in windows:
        spans = [w.offsets[p] for p in np.flatnonzero(admissible_positions(w))]
        for text, start in ex.answers:
            end = start + len(text)
            if any(s <= start < e for s, e in spans) and any(s < end <= e for s, e in spans):
                hits += 1
                break
    return len(windows), hits


class FinetuneEval:
    name = "finetune-eval"
    names = {"train_items_per_s": ("finetune_examples_per_s", "examples/s"),
             "eval_items_per_s": ("eval_sentences_per_s", "sentences/s"),
             "latency_ms.mean": ("qa_example_ms.mean", "ms"),
             "latency_ms.p50": ("qa_example_ms.p50", "ms"),
             "latency_ms.p90": ("qa_example_ms.p90", "ms")}
    extra_figures = {"qa_windows_per_s": "windows/s", "ner_dev_metric": "F1",
                     "re_dev_metric": "F1", "qa_lenient": "accuracy"}

    def setup(self, work: Path, seed: int, tally: Tally) -> FinetuneContext:
        fx = work / "fixtures"
        # RE test set 9x the default, so evaluation is long enough to time
        # steadily; it is drawn after the NER and RE train and dev sets,
        # which stay as in the default recipe
        manifest = fixtures.generate_fixtures(FixtureRecipe(re_test=432), seed, fx)
        vocab_ = vocab.load_vocabulary_file(fx / "vocab.txt")
        labels = RelationLabelSet(("negative", "positive"))
        ner = {s: data.load_ner_dataset(fx / f"ner_{s}.conll") for s in SPLITS}
        re_ = {s: data.parse_re_tsv(fx / f"re_{s}.tsv", labels) for s in SPLITS}
        qa_fixture = {s: data.parse_qa_json(fx / f"qa_{s}.json") for s in SPLITS}

        words = [w for doc in pretrain.read_corpus(fx / "general_corpus.txt")
                 for line in doc for w in line.split()]
        build = LongPassages(" ".join(manifest["markers"]["domain"]) + " ?", words, vocab_,
                             np.random.default_rng(seed))
        built = {"train": [build.long(ex) for ex in qa_fixture["train"]],
                 "dev_short": [build.short(ex) for ex in qa_fixture["dev"]],
                 "eval": [build.long(ex) for ex in qa_fixture["dev"] + qa_fixture["test"]]}
        qa = {}
        for name, examples in built.items():
            data.write_qa_json(examples, fx / f"qa_{name}.json")
            qa[name] = data.parse_qa_json(fx / f"qa_{name}.json")
        for name in ("train", "eval"):
            for ex in qa[name]:
                n, hits = windows_with_answer(ex, vocab_)
                tally.check(n == QA_WINDOWS and hits == 2,
                            f"long QA example {ex.id}: {n} windows, {hits} hold the answer")

        start = _general_checkpoint(fx, work, vocab_, seed, reference_encoder(len(vocab_), seed))
        config = FinetuneConfig(batch_size=8, seed=seed, max_len=MAX_LEN, doc_stride=DOC_STRIDE,
                                allow_nonstandard=True)
        return FinetuneContext(work, vocab_, start, ner, re_, qa, TagScheme(("GENE",)), labels,
                               config, 2 * len(qa["train"]))

    def warm_up(self, ctx: FinetuneContext) -> None:
        """Nothing to do: set-up already ran the encoder at these shapes."""

    def run_round(self, ctx: FinetuneContext, index: int, tally: Tally) -> RoundResult:
        cfg = ctx.config
        out = ctx.work / "finetune"
        out.mkdir(exist_ok=True)
        round_t0 = perf_counter()
        train, evals, outcome, figures = [], [], [], {}

        jobs = (
            ("ner", ctx.ner, len(ctx.ner["train"]), dict(scheme=ctx.scheme),
             lambda w, d: heads.evaluate_ner(w, d, ctx.vocab, ctx.scheme, cfg.max_len)),
            ("re", ctx.re, len(ctx.re["train"]), dict(labels=ctx.labels),
             lambda w, d: heads.evaluate_re(w, d, ctx.vocab, ctx.labels, cfg.max_len)),
            ("qa", {"train": ctx.qa["train"], "dev": ctx.qa["dev_short"]},
             ctx.qa_train_windows, {},
             lambda w, d: heads.evaluate_qa(w, d, ctx.vocab, cfg)),
        )
        for task, sets, items, kwargs, evaluate in jobs:
            epochs, learning_rate = SCHEDULES[task]
            t0 = perf_counter()
            result = heads.finetune(task, sets["train"], sets["dev"], ctx.start,
                                    replace(cfg, epochs=epochs, learning_rate=learning_rate),
                                    ctx.vocab, **kwargs)
            finetune_s = perf_counter() - t0
            path = out / f"{task}_best.ckpt"
            checkpoint.save_checkpoint_file(result.weights, path)
            tally.ops(2)
            _check_checkpoint(tally, path, result.weights.tensors)

            # finetune() evaluates dev once before training and after every
            # epoch; timing that evaluation here leaves the training time
            t0 = perf_counter()
            dev_report = evaluate(result.weights, sets["dev"])
            dev_s = perf_counter() - t0
            train.append((task, items * epochs, finetune_s - (epochs + 1) * dev_s))
            dev_metric = result.report.primary_metric()
            tally.check(dev_report.primary_metric() == dev_metric,
                        f"{task} dev metric changed on re-evaluation")
            figures[f"{task}_dev_metric"] = dev_metric
            losses = [r["train_loss"] for r in result.log if "train_loss" in r]
            tally.check(losses[-1] < losses[0],
                        f"{task} training loss did not fall ({losses[0]} -> {losses[-1]})")
            outcome.append((task, dev_metric, tuple(losses)))
            if task == "qa":
                qa_weights = result.weights
                continue
            evals.append((f"{task}-dev", len(sets["dev"]), dev_s))
            t0 = perf_counter()
            test_report = evaluate(result.weights, sets["test"])
            evals.append((f"{task}-test", len(sets["test"]), perf_counter() - t0))
            figures[f"{task}_test_f1"] = test_report.micro["f1"]
            outcome.append((task, "test", test_report.micro["f1"]))

        tally.check(figures["ner_dev_metric"] >= QUALITY_FLOORS["ner_dev_f1"],
                    f"NER dev F1 {figures['ner_dev_metric']:.3f} below floor")
        tally.check(figures["re_dev_metric"] >= QUALITY_FLOORS["re_dev_f1"],
                    f"RE dev F1 {figures['re_dev_metric']:.3f} below floor")

        latencies, ranked = [], []
        for ex in ctx.qa["eval"]:
            t0 = perf_counter()
            ranked.extend(heads.predict_qa(qa_weights, [ex], ctx.vocab, cfg))
            latencies.append((perf_counter() - t0) * 1e3)
        tally.ops(len(ctx.qa["eval"]))
        strict, lenient, mrr, _ = metrics.qa_metrics(
            ranked, [list(ex.gold_answers) for ex in ctx.qa["eval"]], n_best=cfg.n_best)
        tally.check(lenient >= QUALITY_FLOORS["qa_lenient"],
                    f"QA lenient accuracy {lenient:.3f} below floor")
        figures.update(qa_strict=strict, qa_lenient=lenient, qa_mrr=mrr,
                       qa_windows_per_s=QA_WINDOWS * len(latencies) / (sum(latencies) / 1e3))
        outcome.append(("qa", tuple(tuple(r) for r in ranked)))

        if ctx.reference is None:
            ctx.reference = tuple(outcome)
        else:
            tally.check(tuple(outcome) == ctx.reference,
                        "same-seed rerun gave different fine-tune or evaluation results")
        return RoundResult(wall_s=perf_counter() - round_t0, train=train, evals=evals,
                           latencies_ms=latencies, figures=figures)


FINETUNE_EVAL = FinetuneEval()

WORKLOADS = {w.name: w for w in (PRETRAIN_REF, PRETRAIN_WIDE, FINETUNE_EVAL)}
