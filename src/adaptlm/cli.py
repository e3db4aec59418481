"""Command-line orchestration: pretrain, finetune, evaluate, convert,
corpus-stats, sweep, fixtures.

Every subcommand is config-driven (--config, overridable with repeated
--set section.key=value; the command line wins), deterministic under
--seed, and idempotent on its output artifacts: reruns with the same
config and seed produce byte-identical checkpoints, reports and CSVs
(the step log carries wall-clock times and is exempt).

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 compute error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .config import (OUTPUT_ROOT_ENV, Section, apply_overrides, load_config,
                     resolve_out, resolve_seed)
from .data import (LabeledSentence, RelationLabelSet, bioasq_to_extractive,
                   load_json, load_ner_dataset, open_text, parse_conll, parse_qa_json,
                   parse_re_tsv, read_bioasq_questions, write_conll, write_qa_json)
from .encoder import EncoderConfig
from .errors import ConfigError, FormatError, InputError, ToolkitError
from .fixtures import FixtureRecipe, generate_fixtures, parse_recipe
from .heads import FinetuneConfig, evaluate_ner, evaluate_qa, evaluate_re, finetune
from .metrics import (EvalReport, classification_prf, config_fingerprint,
                      entity_prf, qa_metrics, spans_from_tags)
from .pretrain import (MaskingPolicy, PretrainConfig, read_corpus,
                       subsample_documents, train_mlm)
from .tags import TagScheme, bio_to_bioes, bioes_to_bio, parse_tag
from .tokenizer import basic_tokenize, wordpiece_split
from .vocab import UNK, load_vocabulary_file


def _say(msg: str) -> None:
    print(msg)


# ---------------------------------------------------------------------------
# shared loaders
# ---------------------------------------------------------------------------

def _load_vocab(cfg):
    return load_vocabulary_file(Section(cfg, "global").path("vocab"))


def _encoder_config(section: Section, vocab_size: int, seed: int) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=vocab_size,
        hidden=section.int("hidden", 48),
        layers=section.int("layers", 2),
        heads=section.int("heads", 4),
        ff_dim=section.int("ff_dim", 96),
        max_positions=section.int("max_positions", 64),
        layernorm_epsilon=section.float("layernorm_epsilon", 1e-12),
        init_std=section.float("init_std", 0.02),
        dropout=section.float("dropout", 0.1),
        seed=seed,
    ).validate()


def _pretrain_config(section: Section, seed: int,
                     encoder: EncoderConfig | None) -> PretrainConfig:
    return PretrainConfig(
        steps=section.int("steps"),
        batch_size=section.int("batch_size", 16),
        max_len=section.int("max_len", 32),
        learning_rate=section.float("learning_rate", 1e-4),
        warmup_fraction=section.float("warmup_fraction", 0.01),
        weight_decay=section.float("weight_decay", 0.01),
        masking=MaskingPolicy(mask_fraction=section.float("mask_fraction", 0.15), seed=seed),
        seed=seed,
        checkpoint_interval=section.int("checkpoint_interval", 0),
        encoder=encoder,
    ).validate()


def _finetune_config(section: Section, seed: int) -> FinetuneConfig:
    return FinetuneConfig(
        batch_size=section.int("batch_size", 16),
        learning_rate=section.float("learning_rate", 3e-5),
        epochs=section.int("epochs", 3),
        seed=seed,
        max_len=section.int("max_len", 48),
        warmup_fraction=section.float("warmup_fraction", 0.1),
        weight_decay=section.float("weight_decay", 0.01),
        max_answer_subtokens=section.int("max_answer_subtokens", 30),
        doc_stride=section.int("doc_stride", 128),
        n_best=section.int("n_best", 5),
        allow_nonstandard=section.bool("allow_nonstandard", False),
    ).validate()


def _task_data(task: str, section: Section, key: str, labels: RelationLabelSet | None):
    path = section.path(key)
    if task == "ner":
        return load_ner_dataset(path, scheme=section.str("scheme", "bioes"),
                                lenient=section.bool("lenient", False))
    if task == "re":
        return parse_re_tsv(path, labels)
    return parse_qa_json(path)


def _relation_labels(section: Section) -> RelationLabelSet:
    names = tuple(x.strip() for x in section.str("labels", "negative,positive").split(","))
    return RelationLabelSet(names)


def _tag_scheme_from(datasets) -> TagScheme:
    types = set()
    for sentences in datasets:
        for s in sentences:
            for tag in s.tags:
                kind, typ = parse_tag(tag)
                if typ:
                    types.add(typ)
    if not types:
        types = {"ENT"}
    return TagScheme(tuple(sorted(types)))


def _fingerprint(cfg) -> str:
    return config_fingerprint(json.dumps(cfg, sort_keys=True))


def _write_report(report: EvalReport, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json() + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pretrain(args, cfg) -> int:
    section = Section(cfg, "pretrain")
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "pretrain"
    vocab = _load_vocab(cfg)
    corpus_path = section.path("corpus")

    init = None
    mode = "from-scratch"
    if section.has("init"):
        init = load_checkpoint_file(section.path("init"))
        mode = "continued"
    encoder = None if init is not None else _encoder_config(section, len(vocab), seed)
    pcfg = _pretrain_config(section, seed, encoder)

    if args.dry_run:
        _say(f"pretrain plan: mode={mode} steps={pcfg.steps} batch={pcfg.batch_size} "
             f"max_len={pcfg.max_len} lr={pcfg.learning_rate} seed={seed}")
        _say(f"would write: {out}/final.ckpt, {out}/metrics.jsonl")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    _say(f"pretraining ({mode}) on {corpus_path} for {pcfg.steps} steps, seed {seed}")
    with open(out / "metrics.jsonl", "w", encoding="utf-8", newline="\n") as log:
        weights, records = train_mlm(corpus_path, pcfg, vocab, init,
                                     out_dir=out, log_sink=log)
    _say(f"final loss {records[-1]['loss']:.4f}, accuracy {records[-1]['accuracy']:.4f}")
    _say(f"wrote {out}/final.ckpt")
    return 0


def _finetune_once(task, cfg, seed, init_path, out_dir, provenance):
    section = Section(cfg, "finetune")
    vocab = _load_vocab(cfg)
    fcfg = _finetune_config(section, seed)
    init = load_checkpoint_file(init_path)
    labels = _relation_labels(section) if task == "re" else None
    train = _task_data(task, section, "train", labels)
    dev = _task_data(task, section, "dev", labels)
    scheme = _tag_scheme_from([train, dev]) if task == "ner" else None
    intermediate = None
    if task == "qa" and section.has("intermediate"):
        intermediate = parse_qa_json(section.path("intermediate"))
    result = finetune(task, train, dev, init, fcfg, vocab, scheme=scheme,
                      labels=labels, intermediate=intermediate, provenance=provenance)
    result.report.config_fingerprint = _fingerprint(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint_file(result.weights, out_dir / "best.ckpt")
    _write_report(result.report, out_dir / "report.json")
    with open(out_dir / "log.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for record in result.log:
            f.write(json.dumps(record) + "\n")
    return result


def cmd_finetune(args, cfg) -> int:
    section = Section(cfg, "finetune")
    task = section.str("task")
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "finetune"
    provenance = section.str("provenance", "unspecified")
    init_path = section.path("init")

    if args.dry_run:
        fcfg = _finetune_config(section, seed)
        _say(f"finetune plan: task={task} epochs={fcfg.epochs} batch={fcfg.batch_size} "
             f"lr={fcfg.learning_rate} seed={seed} init={init_path}")
        _say(f"would write: {out}/best.ckpt, {out}/report.json, {out}/log.jsonl")
        return 0

    if not args.grid:
        result = _finetune_once(task, cfg, seed, init_path, out, provenance)
        _say(result.report.to_table())
        _say(f"dev metric {result.report.primary_metric():.4f}; wrote {out}/report.json")
        return 0

    batches = section.ints("grid_batch_sizes", "10,16,32,64")
    rates = section.floats("grid_learning_rates", "5e-5,3e-5,1e-5")
    best = None
    for b in batches:
        for lr in rates:
            cell_cfg = apply_overrides(cfg, [f"finetune.batch_size={b}",
                                             f"finetune.learning_rate={lr}"])
            cell_out = out / f"grid_b{b}_lr{lr:g}"
            result = _finetune_once(task, cell_cfg, seed, init_path, cell_out, provenance)
            metric = result.report.primary_metric()
            _say(f"cell batch={b} lr={lr:g}: dev metric {metric:.4f}")
            if best is None or metric > best[0]:
                best = (metric, b, lr)
    summary = {"best_metric": best[0], "batch_size": best[1], "learning_rate": best[2]}
    (out / "grid_summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                           encoding="utf-8")
    _say(f"best cell: batch={best[1]} lr={best[2]:g} metric={best[0]:.4f}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    section = Section(cfg, "evaluate")
    task = section.str("task")
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "evaluate"
    provenance = section.str("provenance", "unspecified")
    labels = _relation_labels(section) if task == "re" else None

    if args.dry_run:
        mode = "predictions" if section.has("pred") else "model"
        _say(f"evaluate plan: task={task} mode={mode}")
        _say(f"would write: {out}/report.json")
        return 0

    if section.has("pred"):
        report = _evaluate_prediction_files(task, section, labels, provenance)
    else:
        vocab = _load_vocab(cfg)
        weights = load_checkpoint_file(section.path("checkpoint"))
        data = _task_data(task, section, "data", labels)
        fcfg = _finetune_config(Section(cfg, "finetune"), seed)
        name = section.str("dataset_name", "eval")
        if task == "ner":
            scheme = _tag_scheme_from([data])
            report = evaluate_ner(weights, data, vocab, scheme, fcfg.max_len,
                                  dataset_name=name, provenance=provenance)
        elif task == "re":
            report = evaluate_re(weights, data, vocab, labels, fcfg.max_len,
                                 dataset_name=name, provenance=provenance)
        else:
            report = evaluate_qa(weights, data, vocab, fcfg,
                                 dataset_name=name, provenance=provenance)
    report.config_fingerprint = _fingerprint(cfg)
    _write_report(report, out / "report.json")
    _say(report.to_table())
    _say(f"wrote {out}/report.json")
    return 0


def _evaluate_prediction_files(task, section, labels, provenance) -> EvalReport:
    gold_path = section.path("gold")
    pred_path = section.path("pred")
    name = section.str("dataset_name", "eval")
    if task == "ner":
        scheme = section.str("scheme", "bioes")
        gold = load_ner_dataset(gold_path, scheme=scheme)
        pred = load_ner_dataset(pred_path, scheme=scheme,
                                lenient=section.bool("lenient", True))
        if len(gold) != len(pred):
            raise InputError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
        p, r, f1, counts = entity_prf([spans_from_tags(list(s.tags)) for s in gold],
                                      [spans_from_tags(list(s.tags)) for s in pred])
        report = EvalReport(task="ner", provenance=provenance)
        report.add_dataset(name, {"precision": p, "recall": r, "f1": f1}, counts)
        return report
    if task == "re":
        gold = parse_re_tsv(gold_path, labels)
        pred = parse_re_tsv(pred_path, labels)
        p, r, f1, counts = classification_prf([e.label for e in gold],
                                              [e.label for e in pred], labels.positive)
        report = EvalReport(task="re", provenance=provenance)
        report.add_dataset(name, {"precision": p, "recall": r, "f1": f1}, counts)
        return report
    gold = parse_qa_json(gold_path)
    ranked_by_id = load_json(pred_path)
    if not (isinstance(ranked_by_id, dict) and all(
            isinstance(answers, list) and all(isinstance(a, str) for a in answers)
            for answers in ranked_by_id.values())):
        raise FormatError(f"{pred_path}: QA predictions must be a JSON object "
                          "mapping each question id to a list of answer strings")
    ranked = [ranked_by_id.get(ex.id, []) for ex in gold]
    strict, lenient, mrr, tallies = qa_metrics(ranked, [list(ex.gold_answers) for ex in gold])
    report = EvalReport(task="qa", provenance=provenance)
    report.add_dataset(name, {"strict": strict, "lenient": lenient, "mrr": mrr}, tallies)
    return report


def cmd_convert(args, cfg) -> int:
    pair = (args.source_kind, args.target_kind)
    out_path = Path(args.output)
    if args.dry_run:
        _say(f"convert plan: {pair[0]} -> {pair[1]}: {args.input} -> {out_path}")
        return 0
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if pair == ("conll-bio", "conll-bioes"):
        sentences = parse_conll(args.input, scheme="bio")
        converted = [LabeledSentence(s.words, tuple(bio_to_bioes(list(s.tags))))
                     for s in sentences]
        write_conll(converted, out_path)
        _say(f"converted {len(converted)} sentences")
    elif pair == ("conll-bioes", "conll-bio"):
        sentences = parse_conll(args.input, scheme="bioes")
        converted = [LabeledSentence(s.words, tuple(bioes_to_bio(list(s.tags))))
                     for s in sentences]
        write_conll(converted, out_path)
        _say(f"converted {len(converted)} sentences")
    elif pair in (("conll-bio", "conll-bio"), ("conll-bioes", "conll-bioes")):
        scheme = "bio" if pair[0] == "conll-bio" else "bioes"
        sentences = parse_conll(args.input, scheme=scheme)
        write_conll(sentences, out_path)
        _say(f"normalized {len(sentences)} sentences")
    elif pair == ("bioasq", "squad"):
        if not args.passages:
            raise ConfigError("bioasq -> squad conversion needs --passages")
        questions = read_bioasq_questions(args.input)
        passages = load_json(args.passages)
        examples, dropped, skipped = bioasq_to_extractive(questions, passages)
        write_qa_json(examples, out_path)
        _say(f"converted {len(examples)} examples; dropped {dropped} unanswerable "
             f"(question, passage) pairs; skipped {skipped} non-factoid questions")
    else:
        raise ConfigError(f"unsupported conversion {pair[0]} -> {pair[1]}")
    return 0


def cmd_corpus_stats(args, cfg) -> int:
    vocab = load_vocabulary_file(args.vocab)
    out = resolve_out(args.out, cfg)
    n_words = 0
    n_subtokens = 0
    n_split = 0
    n_unk = 0
    for line in open_text(args.corpus):
        for word, _, _ in basic_tokenize(line.rstrip("\n")):
            pieces = wordpiece_split(word, vocab)
            n_words += 1
            n_subtokens += len(pieces)
            if len(pieces) > 1:
                n_split += 1
            if pieces == [UNK]:
                n_unk += 1
    stats = {
        "words": n_words,
        "subtokens": n_subtokens,
        "fertility": n_subtokens / n_words if n_words else 0.0,
        "split_rate": n_split / n_words if n_words else 0.0,
        "unk_rate": n_unk / n_words if n_words else 0.0,
    }
    rows = [("words", f"{stats['words']}"), ("subtokens", f"{stats['subtokens']}"),
            ("fertility", f"{stats['fertility']:.4f}"),
            ("split rate", f"{stats['split_rate']:.4f}"),
            ("unk rate", f"{stats['unk_rate']:.4f}")]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        _say(f"{k.ljust(width)}  {v}")
    if not args.dry_run:
        out.mkdir(parents=True, exist_ok=True)
        (out / "corpus_stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n",
                                               encoding="utf-8")
        _say(f"wrote {out}/corpus_stats.json")
    return 0


def cmd_sweep(args, cfg) -> int:
    section = Section(cfg, "sweep")
    axis = section.str("axis")
    if axis not in ("fraction", "checkpoint"):
        raise ConfigError(f"sweep axis must be 'fraction' or 'checkpoint', got {axis!r}")
    seeds = section.ints("seeds", "0,1,2")
    out = resolve_out(args.out, cfg) / "sweep"
    dataset_name = section.str("dataset_name", "ner_test")

    if axis == "fraction":
        values = [float(v) for v in section.floats("fractions", "0.25,0.5,1.0")]
    else:
        ckpt_dir = section.path("checkpoints")
        step_files = sorted(ckpt_dir.glob("step_*.ckpt"))
        if not step_files:
            raise ConfigError(f"no step_*.ckpt files under {ckpt_dir}")
        values = [int(p.stem.split("_")[1]) for p in step_files]

    if args.dry_run:
        _say(f"sweep plan: axis={axis} values={values} seeds={seeds} "
             f"({len(values) * len(seeds)} cells)")
        _say(f"would write: {out}/sweep_rows.csv, {out}/sweep_summary.csv")
        return 0

    vocab = _load_vocab(cfg)
    fin_section = Section(cfg, "finetune")
    labels = None
    train = _task_data("ner", fin_section, "train", labels)
    dev = _task_data("ner", fin_section, "dev", labels)
    test = _task_data("ner", fin_section, "test", labels)
    scheme = _tag_scheme_from([train, dev, test])

    rows = []
    for value in values:
        for seed in seeds:
            if axis == "fraction":
                init_store = _sweep_fraction_pretrain(cfg, vocab, value, seed, out)
            else:
                init_store = load_checkpoint_file(
                    section.path("checkpoints") / f"step_{value:06d}.ckpt")
            fcfg = _finetune_config(fin_section, seed)
            result = finetune("ner", train, dev, init_store, fcfg, vocab, scheme=scheme,
                              provenance=f"sweep axis={axis} value={value} seed={seed}")
            report = evaluate_ner(result.weights, test, vocab, scheme, fcfg.max_len,
                                  dataset_name=dataset_name)
            micro = report.micro
            rows.append({"axis": axis, "value": value, "dataset": dataset_name,
                         "seed": seed, "precision": round(micro["precision"], 6),
                         "recall": round(micro["recall"], 6), "f1": round(micro["f1"], 6)})
            _say(f"cell {axis}={value} seed={seed}: test F1 {micro['f1']:.4f}")

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep_rows.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    summary = []
    for value in values:
        f1s = [r["f1"] for r in rows if r["value"] == value]
        summary.append({"axis": axis, "value": value, "dataset": dataset_name,
                        "median_f1": round(statistics.median(f1s), 6),
                        "min_f1": round(min(f1s), 6), "max_f1": round(max(f1s), 6)})
    with open(out / "sweep_summary.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(summary[0]))
        writer.writeheader()
        writer.writerows(summary)
    _say(f"wrote {out}/sweep_rows.csv ({len(rows)} rows) and {out}/sweep_summary.csv")
    return 0


def _sweep_fraction_pretrain(cfg, vocab, fraction, seed, out):
    """Continued pretraining on a deterministic corpus subsample."""
    from .pretrain import seed_stream

    section = Section(cfg, "pretrain")
    sweep_section = Section(cfg, "sweep")
    init = load_checkpoint_file(sweep_section.path("init"))
    docs = read_corpus(section.path("corpus"))
    sub_seed = int(seed_stream(seed, "sweep.subsample").integers(0, 2**31 - 1))
    docs = subsample_documents(docs, fraction, sub_seed)
    stream = io.StringIO("\n\n".join("\n".join(doc) for doc in docs) + "\n")
    pcfg = _pretrain_config(section, seed, None)
    weights, _ = train_mlm(stream, pcfg, vocab, init)
    return weights


def cmd_fixtures(args, cfg) -> int:
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "fixtures"
    recipe = parse_recipe(args.recipe) if args.recipe else FixtureRecipe()
    if args.dry_run:
        _say(f"fixtures plan: seed={seed} -> {out}")
        return 0
    manifest = generate_fixtures(recipe, seed, out)
    _say(f"wrote fixtures under {out} (vocab size {manifest['vocab_size']}, "
         f"{manifest['counts']['bioasq_unanswerable']} unanswerable of "
         f"{manifest['counts']['bioasq_questions']} ranked questions)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptlm",
        description="Desk-scale domain-adaptive masked-LM pretraining and "
                    "text-mining fine-tuning toolkit")
    parser.add_argument("--version", action="version", version=f"adaptlm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="global seed")
        p.add_argument("--out", default=None,
                       help=f"output root (default: ${OUTPUT_ROOT_ENV} or [global] out)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the plan without writing")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable; wins over the file)")

    p = sub.add_parser("pretrain", help="masked-LM pretraining / continuation")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a task head end to end")
    common(p)
    p.add_argument("--grid", action="store_true", help="run the batch x lr grid")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a checkpoint or prediction files")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("convert", help="convert between dataset formats")
    common(p)
    p.add_argument("--from", dest="source_kind", required=True,
                   choices=["conll-bio", "conll-bioes", "bioasq"])
    p.add_argument("--to", dest="target_kind", required=True,
                   choices=["conll-bio", "conll-bioes", "squad"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--passages", help="passage id -> text JSON (bioasq -> squad)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("corpus-stats", help="subword fertility and UNK statistics")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(func=cmd_corpus_stats)

    p = sub.add_parser("sweep", help="corpus-size or checkpoint-step ablation")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fixtures", help="generate synthetic corpora and datasets")
    common(p)
    p.add_argument("--recipe", help="recipe file (defaults to the built-in recipe)")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        cfg = apply_overrides(cfg, getattr(args, "set", None) or [])
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FormatError, InputError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except ToolkitError as e:
        print(f"compute error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
