import json
import os
from pathlib import Path

import pytest

from adaptlm.cli import main
from adaptlm.data import parse_qa_json

MINI_VOCAB = str(Path("src/adaptlm/assets/vocab_cased_mini.txt").resolve())


def run(*argv):
    return main(list(argv))


@pytest.fixture
def fixture_dir(tmp_path):
    out = tmp_path / "fx"
    assert run("fixtures", "--seed", "5", "--out", str(out),
               "--set", "global.seed=5") == 0
    return out / "fixtures"


def _write_config(tmp_path, fixture_dir, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
[global]
seed = 3
vocab = {fixture_dir}/vocab.txt

[pretrain]
corpus = {fixture_dir}/domain_corpus.txt
steps = 4
batch_size = 4
max_len = 16
hidden = 16
layers = 1
heads = 2
ff_dim = 32
max_positions = 24
dropout = 0.0
checkpoint_interval = 2

[finetune]
task = ner
train = {fixture_dir}/ner_train.conll
dev = {fixture_dir}/ner_dev.conll
test = {fixture_dir}/ner_test.conll
batch_size = 8
learning_rate = 1e-3
epochs = 1
max_len = 24
allow_nonstandard = true
{extra}
""")
    return cfg


def test_fixtures_command_writes_files(fixture_dir):
    for name in ("vocab.txt", "general_corpus.txt", "domain_corpus.txt",
                 "ner_train.conll", "re_train.tsv", "qa_train.json",
                 "qa_bioasq.json", "qa_passages.json", "manifest.json"):
        assert (fixture_dir / name).exists(), name


def test_corpus_stats_reference_word(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("Immunoglobulin\n")
    out = tmp_path / "stats"
    assert run("corpus-stats", "--corpus", str(corpus), "--vocab", MINI_VOCAB,
               "--out", str(out)) == 0
    stats = json.loads((out / "corpus_stats.json").read_text())
    assert stats["words"] == 1
    assert stats["fertility"] == 7.0
    assert stats["split_rate"] == 1.0
    assert stats["unk_rate"] == 0.0
    assert "fertility" in capsys.readouterr().out


def test_corpus_stats_in_vocab_words(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("the of and in\n")
    out = tmp_path / "stats"
    assert run("corpus-stats", "--corpus", str(corpus), "--vocab", MINI_VOCAB,
               "--out", str(out)) == 0
    stats = json.loads((out / "corpus_stats.json").read_text())
    assert stats["fertility"] == 1.0
    assert stats["split_rate"] == 0.0


def test_corpus_stats_unk(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("βγδ\n")  # greek letters, not in vocab
    out = tmp_path / "stats"
    assert run("corpus-stats", "--corpus", str(corpus), "--vocab", MINI_VOCAB,
               "--out", str(out)) == 0
    stats = json.loads((out / "corpus_stats.json").read_text())
    assert stats["unk_rate"] > 0


def test_pretrain_writes_checkpoints_and_log(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir)
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    pre = out / "pretrain"
    assert (pre / "final.ckpt").exists()
    assert (pre / "step_000002.ckpt").exists()
    lines = (pre / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert set(json.loads(lines[0])) == {"step", "loss", "accuracy", "wall_ms"}


def test_pretrain_idempotent_checkpoint_bytes(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("pretrain", "--config", str(cfg), "--out", str(out_a)) == 0
    assert run("pretrain", "--config", str(cfg), "--out", str(out_b)) == 0
    assert ((out_a / "pretrain" / "final.ckpt").read_bytes()
            == (out_b / "pretrain" / "final.ckpt").read_bytes())


def test_pretrain_dry_run_writes_nothing(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir)
    out = tmp_path / "dry"
    assert run("pretrain", "--config", str(cfg), "--out", str(out), "--dry-run") == 0
    assert not out.exists()
    assert "plan" in capsys.readouterr().out


def test_missing_corpus_is_config_error_before_compute(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir)
    code = run("pretrain", "--config", str(cfg), "--out", str(tmp_path / "x"),
               "--set", "pretrain.corpus=/nonexistent/corpus.txt")
    assert code == 2


def test_set_override_wins(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir)
    out = tmp_path / "o"
    assert run("pretrain", "--config", str(cfg), "--out", str(out),
               "--set", "pretrain.steps=2") == 0
    lines = (out / "pretrain" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_env_output_root_honored(tmp_path, fixture_dir, monkeypatch):
    cfg = _write_config(tmp_path, fixture_dir)
    root = tmp_path / "envroot"
    monkeypatch.setenv("ADAPTLM_OUT", str(root))
    assert run("pretrain", "--config", str(cfg)) == 0
    assert (root / "pretrain" / "final.ckpt").exists()


def test_finetune_and_model_evaluate(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir)
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    init = out / "pretrain" / "final.ckpt"
    assert run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}") == 0
    fin = out / "finetune"
    assert (fin / "best.ckpt").exists()
    report = json.loads((fin / "report.json").read_text())
    assert report["task"] == "ner"
    assert (fin / "log.jsonl").exists()

    code = run("evaluate", "--config", str(cfg), "--out", str(out),
               "--set", f"evaluate.checkpoint={fin / 'best.ckpt'}",
               "--set", f"evaluate.data={fixture_dir}/ner_test.conll",
               "--set", "evaluate.task=ner")
    assert code == 0
    report = json.loads((out / "evaluate" / "report.json").read_text())
    assert report["task"] == "ner"
    assert 0.0 <= report["micro"]["f1"] <= 1.0


def test_evaluate_gold_equals_pred_is_perfect(tmp_path, fixture_dir):
    out = tmp_path / "run"
    gold = fixture_dir / "ner_test.conll"
    code = run("evaluate", "--out", str(out),
               "--set", "evaluate.task=ner",
               "--set", f"evaluate.gold={gold}",
               "--set", f"evaluate.pred={gold}")
    assert code == 0
    report = json.loads((out / "evaluate" / "report.json").read_text())
    assert report["micro"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_convert_bio_bioes_preserves_tokens(tmp_path):
    src = tmp_path / "bio.conll"
    src.write_text("WT1 B-Gene\nbinds I-Gene\nnow O\n\nx B-D\n\n")
    dst = tmp_path / "bioes.conll"
    assert run("convert", "--from", "conll-bio", "--to", "conll-bioes",
               "--input", str(src), "--output", str(dst)) == 0
    out_lines = [l for l in dst.read_text().splitlines() if l.strip()]
    assert len(out_lines) == 4  # token count preserved
    assert out_lines[0].split()[-1] == "B-Gene"
    assert out_lines[1].split()[-1] == "E-Gene"
    assert out_lines[3].split()[-1] == "S-D"
    back = tmp_path / "bio2.conll"
    assert run("convert", "--from", "conll-bioes", "--to", "conll-bio",
               "--input", str(dst), "--output", str(back)) == 0
    assert back.read_text() == src.read_text()


def test_convert_bioasq_reports_dropped(tmp_path, fixture_dir, capsys):
    dst = tmp_path / "squad.json"
    code = run("convert", "--from", "bioasq", "--to", "squad",
               "--input", str(fixture_dir / "qa_bioasq.json"),
               "--passages", str(fixture_dir / "qa_passages.json"),
               "--output", str(dst))
    assert code == 0
    captured = capsys.readouterr().out
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    expected = manifest["counts"]["bioasq_unanswerable"]
    assert f"dropped {expected} unanswerable" in captured
    doc = json.loads(dst.read_text())
    assert doc["data"]


def test_convert_malformed_input_is_data_error(tmp_path):
    src = tmp_path / "bad.conll"
    src.write_text("only-token-no-tag\n\n")
    code = run("convert", "--from", "conll-bio", "--to", "conll-bioes",
               "--input", str(src), "--output", str(tmp_path / "o.conll"))
    assert code == 3


def test_convert_non_utf8_input_is_data_error(tmp_path, capsys):
    src = tmp_path / "latin1.conll"
    src.write_bytes("WT1 B-Gene\nna\u00efve O\n\n".encode("latin-1"))
    code = run("convert", "--from", "conll-bio", "--to", "conll-bioes",
               "--input", str(src), "--output", str(tmp_path / "o.conll"))
    assert code == 3
    err = capsys.readouterr().err
    assert str(src) in err and "line 2" in err


def test_corpus_stats_non_utf8_vocab_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("the\n")
    vocab = tmp_path / "latin1_vocab.txt"
    vocab.write_bytes("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nna\u00efve\n".encode("latin-1"))
    code = run("corpus-stats", "--corpus", str(corpus), "--vocab", str(vocab),
               "--out", str(tmp_path / "stats"))
    assert code == 3
    err = capsys.readouterr().err
    assert str(vocab) in err and "line 6" in err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("the\n")
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("[global]\nseed = 1\n; caf\u00e9\n".encode("latin-1"))
    argv = ("corpus-stats", "--corpus", str(corpus), "--vocab", MINI_VOCAB,
            "--out", str(tmp_path / "stats"))
    assert run(*argv, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "line 3" in err
    assert run(*argv, "--config", str(tmp_path / "missing.cfg")) == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("shape, code", [("lists", 0), ("strings", 3), ("array", 3)])
def test_evaluate_qa_prediction_file_shape(tmp_path, fixture_dir, shape, code):
    gold = fixture_dir / "qa_test.json"
    answers = {ex.id: list(ex.gold_answers) for ex in parse_qa_json(gold)}
    doc = {"lists": answers, "strings": {k: v[0] for k, v in answers.items()},
           "array": []}[shape]
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run("evaluate", "--out", str(out), "--set", "evaluate.task=qa",
               "--set", f"evaluate.gold={gold}", "--set", f"evaluate.pred={pred}") == code
    if code == 0:
        report = json.loads((out / "evaluate" / "report.json").read_text())
        assert report["micro"]["strict"] == 1.0


def test_sweep_fraction_rows(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir, extra="""
[sweep]
axis = fraction
fractions = 0.5,1.0
seeds = 0,1
init = PLACEHOLDER
""")
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    init = out / "pretrain" / "final.ckpt"
    code = run("sweep", "--config", str(cfg), "--out", str(out),
               "--set", f"sweep.init={init}")
    assert code == 0
    rows = (out / "sweep" / "sweep_rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2  # header + |fractions| * |seeds|
    summary = (out / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2
    assert summary[0] == "axis,value,dataset,median_f1,min_f1,max_f1"


def test_sweep_checkpoint_axis_uses_existing_files(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir, extra="""
[sweep]
axis = checkpoint
seeds = 0
checkpoints = PLACEHOLDER
""")
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    ckpts = out / "pretrain"
    code = run("sweep", "--config", str(cfg), "--out", str(out),
               "--set", f"sweep.checkpoints={ckpts}")
    assert code == 0
    rows = (out / "sweep" / "sweep_rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # step_000002 and step_000004


def test_finetune_grid_emits_cell_reports_and_summary(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir, extra="""
grid_batch_sizes = 4,8
grid_learning_rates = 1e-3
""")
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    init = out / "pretrain" / "final.ckpt"
    code = run("finetune", "--config", str(cfg), "--out", str(out), "--grid",
               "--set", f"finetune.init={init}")
    assert code == 0
    fin = out / "finetune"
    cells = sorted(p.name for p in fin.glob("grid_b*"))
    assert cells == ["grid_b4_lr0.001", "grid_b8_lr0.001"]
    for cell in cells:
        assert (fin / cell / "report.json").exists()
    summary = json.loads((fin / "grid_summary.json").read_text())
    assert set(summary) == {"best_metric", "batch_size", "learning_rate"}


def test_finetune_re_via_cli(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir, extra="")
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    init = out / "pretrain" / "final.ckpt"
    code = run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}",
               "--set", "finetune.task=re",
               "--set", f"finetune.train={fixture_dir}/re_train.tsv",
               "--set", f"finetune.dev={fixture_dir}/re_dev.tsv")
    assert code == 0
    report = json.loads((out / "finetune" / "report.json").read_text())
    assert report["task"] == "re"


def test_evaluate_re_prediction_files(tmp_path, fixture_dir):
    out = tmp_path / "run"
    gold = fixture_dir / "re_test.tsv"
    code = run("evaluate", "--out", str(out),
               "--set", "evaluate.task=re",
               "--set", f"evaluate.gold={gold}",
               "--set", f"evaluate.pred={gold}")
    assert code == 0
    report = json.loads((out / "evaluate" / "report.json").read_text())
    assert report["micro"]["f1"] == 1.0


def test_unknown_conversion_rejected(tmp_path):
    src = tmp_path / "x.conll"
    src.write_text("a O\n\n")
    code = run("convert", "--from", "conll-bio", "--to", "squad",
               "--input", str(src), "--output", str(tmp_path / "y"))
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
