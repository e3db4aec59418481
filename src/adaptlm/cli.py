"""Command-line orchestration: pretrain, finetune, evaluate, convert,
corpus-stats, sweep, fixtures.

Every subcommand is config-driven (--config, overridable with repeated
--set section.key=value; the command line wins), deterministic under
--seed, and idempotent on its output artifacts: reruns with the same
config and seed produce byte-identical checkpoints, reports and CSVs
(the step log carries wall-clock times and is exempt).

Every command reads its inputs in one order: all its settings, then the
existence of every path it will read (where --dry-run stops), then datasets,
then checkpoints, each file once.

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
from .data import (LabeledSentence, atomic_write, bioasq_to_extractive, load_json,
                   open_text, parse_conll, read_bioasq_questions, write_conll, write_json,
                   write_qa_json)
from .encoder import EncoderConfig
from .errors import ConfigError, FormatError, InputError, ToolkitError
from .fixtures import FixtureRecipe, generate_fixtures, parse_recipe
from .heads import (GRID_BATCH_SIZES, GRID_LEARNING_RATES, TASKS, FinetuneConfig,
                    evaluate, finetune)
from .metrics import config_fingerprint, score
from .pretrain import (MaskingPolicy, PretrainConfig, read_corpus, seed_stream,
                       subsample_documents, train_mlm)
from .tags import bio_to_bioes, bioes_to_bio
from .tokenizer import basic_tokenize, wordpiece_split
from .vocab import UNK, load_vocabulary_file


def _say(msg: str) -> None:
    print(msg)


def _fingerprint(cfg) -> str:
    return config_fingerprint(json.dumps(cfg, sort_keys=True))


def _task_data(spec, section, keys, checkpoint=None):
    """A task's inputs, datasets before weights: the dataset at each [section]
    key, read by the task's reader (an unset key holds no data); the weights
    at [section] `checkpoint`, when one is named; and the label space of the
    section, the datasets and the metadata of those weights."""
    datasets = [spec.read(section, key) if section.has(key) else [] for key in keys]
    weights = load_checkpoint_file(section.path(checkpoint)) if checkpoint else None
    space = spec.label_space(section, datasets, weights.metadata if weights else {})
    return datasets, weights, space


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pretrain(args, cfg) -> int:
    section = Section(cfg, "pretrain")
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "pretrain"
    vocab = load_vocabulary_file(Section(cfg, "global").path("vocab"))
    mode = "continued" if section.has("init") else "from-scratch"
    encoder = None if section.has("init") else section.load(
        EncoderConfig, vocab_size=len(vocab), seed=seed)
    pcfg = section.load(PretrainConfig, seed=seed, encoder=encoder,
                        masking=section.load(MaskingPolicy, seed=seed))
    corpus_path = section.path("corpus")
    init_path = section.path("init") if section.has("init") else None

    if args.dry_run:
        _say(f"pretrain plan: mode={mode} {asdict(pcfg)}")
        _say(f"would write: {out}/final.ckpt, {out}/metrics.jsonl")
        return 0

    corpus = open_text(corpus_path)
    init = load_checkpoint_file(init_path) if init_path else None
    out.mkdir(parents=True, exist_ok=True)
    _say(f"pretraining ({mode}) on {corpus_path} for {pcfg.steps} steps, seed {seed}")
    # line-buffered, so a killed run leaves every finished step's line
    with open(out / "metrics.jsonl", "w", encoding="utf-8", newline="\n", buffering=1) as log:
        weights, records = train_mlm(corpus, pcfg, vocab, init, out_dir=out, log_sink=log)
    _say(f"final loss {records[-1]['loss']:.4f}, accuracy {records[-1]['accuracy']:.4f}")
    _say(f"wrote {out}/final.ckpt")
    return 0


def cmd_finetune(args, cfg) -> int:
    section = Section(cfg, "finetune")
    task = section.choice("task", TASKS)
    spec = TASKS[task]
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "finetune"
    provenance = section.str("provenance", "unspecified")
    spec.label_space(section, [], {})  # what the section alone sets: RE labels, NER scheme
    cells = [(out, cfg)]  # (output directory, config) of each run, all from one init
    if args.grid:
        cells = [(out / f"grid_b{b}_lr{lr:g}", apply_overrides(
                      cfg, [f"finetune.batch_size={b}", f"finetune.learning_rate={lr}"]))
                 for b in section.list_of("grid_batch_sizes", int, GRID_BATCH_SIZES)
                 for lr in section.list_of("grid_learning_rates", float, GRID_LEARNING_RATES)]
    cells = [(cell_out, cell_cfg, Section(cell_cfg, "finetune").load(FinetuneConfig, seed=seed))
             for cell_out, cell_cfg in cells]
    vocab_path = Section(cfg, "global").path("vocab")
    for key in ("train", "dev", "intermediate"):
        if key != "intermediate" or section.has(key):
            section.path(key)
    init_path = section.path("init")

    if args.dry_run:
        for cell_out, _, fcfg in cells:
            _say(f"finetune plan: task={task} init={init_path} {asdict(fcfg)}")
            _say(f"would write: {cell_out}/best.ckpt, {cell_out}/report.json, "
                 f"{cell_out}/log.jsonl")
        return 0

    vocab = load_vocabulary_file(vocab_path)
    (train, dev, intermediate), _, space = _task_data(
        spec, section, ("train", "dev", "intermediate"))
    init = load_checkpoint_file(init_path)
    best = None
    for cell_out, cell_cfg, fcfg in cells:
        result = finetune(task, train, dev, init, fcfg, vocab, labels=space,
                          intermediate=intermediate, provenance=provenance)
        result.report.config_fingerprint = _fingerprint(cell_cfg)
        save_checkpoint_file(result.weights, cell_out / "best.ckpt")
        with atomic_write(cell_out / "report.json") as f:
            f.write(result.report.to_json() + "\n")
        with atomic_write(cell_out / "log.jsonl") as f:
            for record in result.log:
                f.write(json.dumps(record) + "\n")
        metric = result.report.primary_metric()
        if not args.grid:
            _say(result.report.to_table())
            _say(f"dev metric {metric:.4f}; wrote {out}/report.json")
            return 0
        _say(f"cell batch={fcfg.batch_size} lr={fcfg.learning_rate:g}: dev metric {metric:.4f}")
        if best is None or metric > best[0]:
            best = (metric, fcfg.batch_size, fcfg.learning_rate)
    summary = {"best_metric": best[0], "batch_size": best[1], "learning_rate": best[2]}
    write_json(summary, out / "grid_summary.json", indent=2, sort_keys=False)
    _say(f"best cell: batch={best[1]} lr={best[2]:g} metric={best[0]:.4f}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    section = Section(cfg, "evaluate")
    task = section.choice("task", TASKS)
    spec = TASKS[task]
    seed = resolve_seed(args.seed, cfg)
    out = resolve_out(args.out, cfg) / "evaluate"
    provenance = section.str("provenance", "unspecified")
    name = section.str("dataset_name", "eval")
    spec.label_space(section, [], {})  # what the section alone sets: RE labels, NER scheme
    fcfg = Section(cfg, "finetune").load(FinetuneConfig, seed=seed)
    files = section.has("pred")
    vocab_path = None if files else Section(cfg, "global").path("vocab")
    for key in ("gold", "pred") if files else ("checkpoint", "data"):
        section.path(key)

    if args.dry_run:
        _say(f"evaluate plan: task={task} mode={'predictions' if files else 'model'}")
        _say(f"would write: {out}/report.json")
        return 0

    if files:
        (data,), _, space = _task_data(spec, section, ["gold"])
        pred = spec.pairs(section, data)
    else:
        vocab = load_vocabulary_file(vocab_path)
        (data,), weights, space = _task_data(spec, section, ["data"], "checkpoint")
        weights.check_compatible(vocab, fcfg.max_len)
        pred = spec.predict(weights, data, vocab, space, fcfg)
    report = score(task, spec.gold(data), pred, name, provenance, n_best=fcfg.n_best,
                   positive=getattr(space, "positive", frozenset()))
    report.config_fingerprint = _fingerprint(cfg)
    with atomic_write(out / "report.json") as f:
        f.write(report.to_json() + "\n")
    _say(report.to_table())
    _say(f"wrote {out}/report.json")
    return 0


def cmd_convert(args, cfg) -> int:
    pair = (args.source_kind, args.target_kind)
    if args.dry_run:
        _say(f"convert plan: {pair[0]} -> {pair[1]}: {args.input} -> {args.output}")
        return 0
    schemes = {"conll-bio": "bio", "conll-bioes": "bioes"}
    if pair[0] in schemes and pair[1] in schemes:
        sentences = parse_conll(args.input, scheme=schemes[pair[0]])
        convert = {("conll-bio", "conll-bioes"): bio_to_bioes,
                   ("conll-bioes", "conll-bio"): bioes_to_bio}.get(pair)
        if convert:
            sentences = [LabeledSentence(s.words, tuple(convert(list(s.tags)))) for s in sentences]
        write_conll(sentences, args.output)
        _say(f"{'converted' if convert else 'normalized'} {len(sentences)} sentences")
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
    width = max(len(key) for key in stats)
    for key, value in stats.items():
        shown = value if isinstance(value, int) else f"{value:.4f}"
        _say(f"{key.replace('_', ' ').ljust(width)}  {shown}")
    if not args.dry_run:
        write_json(stats, out / "corpus_stats.json", indent=2)
        _say(f"wrote {out}/corpus_stats.json")
    return 0


def cmd_sweep(args, cfg) -> int:
    """NER test F1 per (axis value, seed) cell, fine-tuned from continued
    pretraining on a corpus fraction or from a saved step checkpoint."""
    section = Section(cfg, "sweep")
    axis = section.choice("axis", ("fraction", "checkpoint"))
    seeds = section.list_of("seeds", int, (0, 1, 2))
    if min(seeds) < 0:
        raise ConfigError(f"[sweep] seeds must be >= 0, got {min(seeds)}")
    out = resolve_out(args.out, cfg) / "sweep"
    dataset_name = section.str("dataset_name", "ner_test")
    fin_section = Section(cfg, "finetune")
    TASKS["ner"].label_space(fin_section, [], {})  # the NER scheme setting
    fcfgs = [fin_section.load(FinetuneConfig, seed=seed) for seed in seeds]
    pcfgs = [None] * len(seeds)  # the checkpoint axis pretrains nothing
    if axis == "fraction":
        values = section.list_of("fractions", float, (0.25, 0.5, 1.0))
        if not all(0.0 < v <= 1.0 for v in values):
            raise ConfigError(f"[sweep] fractions must lie in (0, 1], got {values}")
        sources = [None] * len(values)
        pre = Section(cfg, "pretrain")
        pcfgs = [pre.load(PretrainConfig, seed=seed, masking=pre.load(MaskingPolicy, seed=seed))
                 for seed in seeds]
        init_path, corpus_path = section.path("init"), pre.path("corpus")
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
        values, sources = map(list, zip(*sorted(found)))
    vocab_path = Section(cfg, "global").path("vocab")
    for key in ("train", "dev", "test"):
        fin_section.path(key)

    if args.dry_run:
        _say(f"sweep plan: axis={axis} values={values} seeds={seeds} "
             f"({len(values) * len(seeds)} cells)")
        _say(f"would write: {out}/sweep_rows.csv, {out}/sweep_summary.csv")
        return 0

    vocab = load_vocabulary_file(vocab_path)
    (train, dev, test), _, scheme = _task_data(TASKS["ner"], fin_section, ("train", "dev", "test"))
    if axis == "fraction":
        docs = read_corpus(corpus_path)
        init = load_checkpoint_file(init_path)
    rows = []
    for value, source in zip(values, sources):
        if source is not None:
            init = load_checkpoint_file(source)
        for seed, fcfg, pcfg in zip(seeds, fcfgs, pcfgs):
            start = init if pcfg is None else _pretrain_on_fraction(init, docs, value, pcfg, vocab)
            result = finetune("ner", train, dev, start, fcfg, vocab, scheme=scheme,
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


def _pretrain_on_fraction(init, docs, fraction, pcfg, vocab):
    """Continued pretraining from `init` on a deterministic subsample of the
    corpus documents, keyed by the run's seed."""
    sub_seed = int(seed_stream(pcfg.seed, "sweep.subsample").integers(0, 2**31 - 1))
    docs = subsample_documents(docs, fraction, sub_seed)
    stream = io.StringIO("\n\n".join("\n".join(doc) for doc in docs) + "\n")
    return train_mlm(stream, pcfg, vocab, init)[0]


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

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="global seed")
        p.add_argument("--out", default=None,
                       help=f"output root (default: ${OUTPUT_ROOT_ENV} or [global] out)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the plan without writing")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable; wins over the file)")
        return p

    command("pretrain", cmd_pretrain, "masked-LM pretraining / continuation")
    command("finetune", cmd_finetune, "fine-tune a task head end to end").add_argument(
        "--grid", action="store_true", help="run the batch x lr grid")
    command("evaluate", cmd_evaluate, "score a checkpoint or prediction files")
    p = command("convert", cmd_convert, "convert between dataset formats")
    p.add_argument("--from", dest="source_kind", required=True,
                   choices=["conll-bio", "conll-bioes", "bioasq"])
    p.add_argument("--to", dest="target_kind", required=True,
                   choices=["conll-bio", "conll-bioes", "squad"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--passages", help="passage id -> text JSON (bioasq -> squad)")
    p = command("corpus-stats", cmd_corpus_stats, "subword fertility and UNK statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    command("sweep", cmd_sweep, "corpus-size or checkpoint-step ablation")
    command("fixtures", cmd_fixtures, "generate synthetic corpora and datasets").add_argument(
        "--recipe", help="recipe file (defaults to the built-in recipe)")
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
