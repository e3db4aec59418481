"""Command-line orchestration: pretrain, finetune, evaluate, convert,
corpus-stats, sweep, fixtures.

Every subcommand is config-driven (--config, overridable with repeated
--set section.key=value; the command line wins), deterministic under
--seed, and idempotent on its output artifacts: reruns with the same
config and seed produce byte-identical checkpoints, reports and CSVs
(the step log carries wall-clock times and is exempt).

Exit codes: 0 success, 2 configuration error (including an OSError on a
configured path), 3 data-format error, 4 compute error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
from dataclasses import asdict

from . import __version__
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .config import (OUTPUT_ROOT_ENV, Section, apply_overrides, load_config,
                     resolve_out, resolve_seed)
from .data import (LabeledSentence, RelationLabelSet, atomic_write, bioasq_to_extractive,
                   load_json, load_ner_dataset, open_text, parse_conll, parse_qa_json,
                   parse_re_tsv, read_bioasq_questions, write_conll, write_json,
                   write_qa_json)
from .encoder import EncoderConfig
from .errors import ConfigError, FormatError, InputError, ToolkitError
from .fixtures import FixtureRecipe, generate_fixtures, parse_recipe
from .heads import (GRID_BATCH_SIZES, GRID_LEARNING_RATES, TASKS, FinetuneConfig,
                    evaluate, finetune, trained_scheme)
from .metrics import config_fingerprint, score
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


def _task_data(task: str, section: Section, key: str, labels: RelationLabelSet | None):
    path = section.path(key)
    if task == "ner":
        return load_ner_dataset(path, scheme=section.str("scheme", "bioes"),
                                lenient=section.bool("lenient", False))
    if task == "re":
        return parse_re_tsv(path, labels)
    return parse_qa_json(path)


def _relation_labels(section: Section) -> RelationLabelSet:
    return RelationLabelSet(tuple(section.list_of("labels", str, ("negative", "positive"))))


def _tag_scheme_from(datasets) -> TagScheme:
    types = {parse_tag(tag)[1] for sentences in datasets for s in sentences for tag in s.tags}
    return TagScheme(tuple(sorted(types - {None})) or ("ENT",))


def _fingerprint(cfg) -> str:
    return config_fingerprint(json.dumps(cfg, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pretrain(args, cfg) -> int:
    section = Section(cfg, "pretrain")
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "pretrain"
    vocab = _load_vocab(cfg)
    corpus_path = section.path("corpus")

    init = encoder = None
    mode = "from-scratch"
    if section.has("init"):
        init = load_checkpoint_file(section.path("init"))
        mode = "continued"
    else:
        encoder = section.load(EncoderConfig, vocab_size=len(vocab), seed=seed)
    pcfg = section.load(PretrainConfig, seed=seed, encoder=encoder,
                        masking=section.load(MaskingPolicy, seed=seed))

    if args.dry_run:
        _say(f"pretrain plan: mode={mode} {asdict(pcfg)}")
        _say(f"would write: {out}/final.ckpt, {out}/metrics.jsonl")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    _say(f"pretraining ({mode}) on {corpus_path} for {pcfg.steps} steps, seed {seed}")
    # line-buffered, so a killed run leaves every finished step's line
    with open(out / "metrics.jsonl", "w", encoding="utf-8", newline="\n", buffering=1) as log:
        weights, records = train_mlm(corpus_path, pcfg, vocab, init,
                                     out_dir=out, log_sink=log)
    _say(f"final loss {records[-1]['loss']:.4f}, accuracy {records[-1]['accuracy']:.4f}")
    _say(f"wrote {out}/final.ckpt")
    return 0


def _finetune_once(task, cfg, seed, init_path, out_dir, provenance):
    section = Section(cfg, "finetune")
    vocab = _load_vocab(cfg)
    fcfg = section.load(FinetuneConfig, seed=seed)
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
    save_checkpoint_file(result.weights, out_dir / "best.ckpt")
    with atomic_write(out_dir / "report.json") as f:
        f.write(result.report.to_json() + "\n")
    with atomic_write(out_dir / "log.jsonl") as f:
        for record in result.log:
            f.write(json.dumps(record) + "\n")
    return result


def cmd_finetune(args, cfg) -> int:
    section = Section(cfg, "finetune")
    task = section.choice("task", TASKS)
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "finetune"
    provenance = section.str("provenance", "unspecified")
    init_path = section.path("init")

    if args.dry_run:
        fcfg = section.load(FinetuneConfig, seed=seed)
        _say(f"finetune plan: task={task} init={init_path} {asdict(fcfg)}")
        _say(f"would write: {out}/best.ckpt, {out}/report.json, {out}/log.jsonl")
        return 0

    if not args.grid:
        result = _finetune_once(task, cfg, seed, init_path, out, provenance)
        _say(result.report.to_table())
        _say(f"dev metric {result.report.primary_metric():.4f}; wrote {out}/report.json")
        return 0

    batches = section.list_of("grid_batch_sizes", int, GRID_BATCH_SIZES)
    rates = section.list_of("grid_learning_rates", float, GRID_LEARNING_RATES)
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
    write_json(summary, out / "grid_summary.json", indent=2, sort_keys=False)
    _say(f"best cell: batch={best[1]} lr={best[2]:g} metric={best[0]:.4f}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    section = Section(cfg, "evaluate")
    task = section.choice("task", TASKS)
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "evaluate"
    provenance = section.str("provenance", "unspecified")
    labels = _relation_labels(section) if task == "re" else None

    if args.dry_run:
        mode = "predictions" if section.has("pred") else "model"
        _say(f"evaluate plan: task={task} mode={mode}")
        _say(f"would write: {out}/report.json")
        return 0

    fcfg = Section(cfg, "finetune").load(FinetuneConfig, seed=seed)
    name = section.str("dataset_name", "eval")
    if section.has("pred"):
        gold, pred = _prediction_files(task, section, labels)
        report = score(task, gold, pred, name, provenance,
                       positive=labels.positive if labels else (), n_best=fcfg.n_best)
    else:
        vocab = _load_vocab(cfg)
        weights = load_checkpoint_file(section.path("checkpoint"))
        weights.check_compatible(vocab, fcfg.max_len)
        data = _task_data(task, section, "data", labels)
        scheme = (trained_scheme(weights) or _tag_scheme_from([data])) if task == "ner" else None
        report = evaluate(task, weights, data, vocab, fcfg, scheme=scheme, labels=labels,
                          dataset_name=name, provenance=provenance)
    report.config_fingerprint = _fingerprint(cfg)
    with atomic_write(out / "report.json") as f:
        f.write(report.to_json() + "\n")
    _say(report.to_table())
    _say(f"wrote {out}/report.json")
    return 0


def _prediction_files(task, section, labels) -> tuple[list, list]:
    """Parallel task-native gold and predictions from the [evaluate] gold and
    pred files: NER sentences pair in file order, RE and QA rows by id."""
    gold_path, pred_path = section.path("gold"), section.path("pred")
    if task == "ner":
        scheme = section.str("scheme", "bioes")
        gold = load_ner_dataset(gold_path, scheme=scheme)
        pred = load_ner_dataset(pred_path, scheme=scheme,
                                lenient=section.bool("lenient", True))
        return [s.tags for s in gold], [s.tags for s in pred]
    if task == "re":
        gold, pred = (_by_id([(ex.id, ex.label) for ex in parse_re_tsv(path, labels)], path)
                      for path in (gold_path, pred_path))
    else:
        gold = _by_id([(ex.id, ex.gold_answers) for ex in parse_qa_json(gold_path)], gold_path)
        pred = load_json(pred_path)
        if not (isinstance(pred, dict) and all(
                isinstance(answers, list) and all(isinstance(a, str) for a in answers)
                for answers in pred.values())):
            raise FormatError(f"{pred_path}: QA predictions must be a JSON object "
                              "mapping each question id to a list of answer strings")
    unpaired = sorted(gold.keys() ^ pred.keys())
    if unpaired:
        where, other = (gold_path, pred_path) if unpaired[0] in gold else (pred_path, gold_path)
        raise InputError(f"id {unpaired[0]!r} is in {where} but not in {other}")
    return list(gold.values()), [pred[key] for key in gold]


def _by_id(rows, path) -> dict:
    """{id: value} from (id, value) rows; a repeated id is a data error."""
    values = {}
    for key, value in rows:
        if key in values:
            raise InputError(f"{path}: id {key!r} is repeated")
        values[key] = value
    return values


def cmd_convert(args, cfg) -> int:
    pair = (args.source_kind, args.target_kind)
    if args.dry_run:
        _say(f"convert plan: {pair[0]} -> {pair[1]}: {args.input} -> {args.output}")
        return 0
    if pair == ("conll-bio", "conll-bioes"):
        sentences = parse_conll(args.input, scheme="bio")
        converted = [LabeledSentence(s.words, tuple(bio_to_bioes(list(s.tags))))
                     for s in sentences]
        write_conll(converted, args.output)
        _say(f"converted {len(converted)} sentences")
    elif pair == ("conll-bioes", "conll-bio"):
        sentences = parse_conll(args.input, scheme="bioes")
        converted = [LabeledSentence(s.words, tuple(bioes_to_bio(list(s.tags))))
                     for s in sentences]
        write_conll(converted, args.output)
        _say(f"converted {len(converted)} sentences")
    elif pair in (("conll-bio", "conll-bio"), ("conll-bioes", "conll-bioes")):
        scheme = "bio" if pair[0] == "conll-bio" else "bioes"
        sentences = parse_conll(args.input, scheme=scheme)
        write_conll(sentences, args.output)
        _say(f"normalized {len(sentences)} sentences")
    elif pair == ("bioasq", "squad"):
        if not args.passages:
            raise ConfigError("bioasq -> squad conversion needs --passages")
        questions = read_bioasq_questions(args.input)
        passages = load_json(args.passages)
        examples, dropped, skipped = bioasq_to_extractive(questions, passages)
        write_qa_json(examples, args.output)
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
        write_json(stats, out / "corpus_stats.json", indent=2)
        _say(f"wrote {out}/corpus_stats.json")
    return 0


def cmd_sweep(args, cfg) -> int:
    section = Section(cfg, "sweep")
    axis = section.choice("axis", ("fraction", "checkpoint"))
    seeds = section.list_of("seeds", int, (0, 1, 2))
    out = resolve_out(args.out, cfg) / "sweep"
    dataset_name = section.str("dataset_name", "ner_test")

    if axis == "fraction":
        values = section.list_of("fractions", float, (0.25, 0.5, 1.0))
        sources = [None] * len(values)
    else:
        ckpt_dir = section.path("checkpoints")
        found = []
        for p in ckpt_dir.glob("step_*.ckpt"):
            digits = p.stem[len("step_"):]
            if not (digits.isascii() and digits.isdigit()):
                raise ConfigError(f"checkpoint {p} is not named step_<number>.ckpt")
            found.append((int(digits), p))
        if not found:
            raise ConfigError(f"no step_*.ckpt files under {ckpt_dir}")
        found.sort()
        values, sources = [v for v, _ in found], [p for _, p in found]

    if args.dry_run:
        _say(f"sweep plan: axis={axis} values={values} seeds={seeds} "
             f"({len(values) * len(seeds)} cells)")
        _say(f"would write: {out}/sweep_rows.csv, {out}/sweep_summary.csv")
        return 0

    vocab = _load_vocab(cfg)
    fin_section = Section(cfg, "finetune")
    train, dev, test = (_task_data("ner", fin_section, key, None)
                        for key in ("train", "dev", "test"))
    scheme = _tag_scheme_from([train, dev, test])

    rows = []
    for value, source in zip(values, sources):
        for seed in seeds:
            if source is None:
                init_store = _sweep_fraction_pretrain(cfg, vocab, value, seed, out)
            else:
                init_store = load_checkpoint_file(source)
            fcfg = fin_section.load(FinetuneConfig, seed=seed)
            result = finetune("ner", train, dev, init_store, fcfg, vocab, scheme=scheme,
                              provenance=f"sweep axis={axis} value={value} seed={seed}")
            micro = evaluate("ner", result.weights, test, vocab, fcfg, scheme=scheme,
                             dataset_name=dataset_name).micro
            rows.append({"axis": axis, "value": value, "dataset": dataset_name, "seed": seed,
                         **{k: round(v, 6) for k, v in micro.items()}})
            _say(f"cell {axis}={value} seed={seed}: test F1 {micro['f1']:.4f}")

    summary = []
    for value in values:
        f1s = [r["f1"] for r in rows if r["value"] == value]
        summary.append({"axis": axis, "value": value, "dataset": dataset_name,
                        "median_f1": round(statistics.median(f1s), 6),
                        "min_f1": round(min(f1s), 6), "max_f1": round(max(f1s), 6)})
    for name, table in (("sweep_rows.csv", rows), ("sweep_summary.csv", summary)):
        with atomic_write(out / name) as f:
            writer = csv.DictWriter(f, fieldnames=list(table[0]))
            writer.writeheader()
            writer.writerows(table)
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
    pcfg = section.load(PretrainConfig, seed=seed,
                        masking=section.load(MaskingPolicy, seed=seed))
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
    except (ConfigError, OSError) as e:  # an OSError names a configured path
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
