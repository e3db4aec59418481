import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptlm.checkpoint import load_checkpoint_file, save_checkpoint_file
from adaptlm.cli import main
from adaptlm.config import SECTIONS
from adaptlm.data import LabeledSentence, atomic_write, parse_conll, parse_qa_json, write_conll
from adaptlm.tags import bioes_to_bio

SRC = Path(__file__).resolve().parents[1] / "src"
MINI_VOCAB = str(SRC / "adaptlm" / "assets" / "vocab_cased_mini.txt")


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


def _pretrained(tmp_path, fixture_dir, extra=""):
    """The test config, the output root, and a checkpoint pretrained under it."""
    cfg = _write_config(tmp_path, fixture_dir, extra)
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    return cfg, out, out / "pretrain" / "final.ckpt"


def _phases(log_path):
    """(phase, event or epoch) of each record of a fine-tuning log."""
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    return [(r["phase"], r.get("event", r.get("epoch"))) for r in records]


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
    assert set(json.loads(lines[0])) == {"step", "loss", "accuracy", "n_masked", "lr",
                                         "grad_norm", "wall_ms"}


def test_pretrain_stops_at_a_non_finite_step(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir)
    assert run("pretrain", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
    start = load_checkpoint_file(tmp_path / "run" / "pretrain" / "step_000002.ckpt")
    start.tensors["layer.0.ffn.output"][3, 1] = np.nan
    save_checkpoint_file(start, tmp_path / "nan.ckpt")
    capsys.readouterr()
    code = run("pretrain", "--config", str(cfg), "--out", str(tmp_path / "again"),
               "--set", f"pretrain.init={tmp_path / 'nan.ckpt'}")
    assert code == 4
    assert "step 1:" in capsys.readouterr().err
    assert not (tmp_path / "again" / "pretrain" / "final.ckpt").exists()


def test_killed_pretrain_keeps_the_step_log_up_to_its_newest_checkpoint(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir)
    pre = tmp_path / "run" / "pretrain"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "adaptlm", "pretrain", "--config", str(cfg),
         "--out", str(tmp_path / "run"), "--set", "pretrain.steps=100000",
         "--set", "pretrain.checkpoint_interval=1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while not (pre / "step_000002.ckpt").exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no second checkpoint within 120 s"
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stderr.close()
    newest = max(int(p.stem[len("step_"):]) for p in pre.glob("step_*.ckpt"))
    steps = [json.loads(line)["step"] for line in (pre / "metrics.jsonl").read_text().splitlines()]
    assert steps[:newest] == list(range(1, newest + 1))


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


def test_finetune_and_model_evaluate(tmp_path, fixture_dir, capsys):
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

    # the checkpoint must fit the run, as for finetune: the same vocabulary
    # (here the fixture's, reversed after its five special tokens) and a
    # max_len within max_positions
    tokens = (fixture_dir / "vocab.txt").read_text().splitlines()
    reversed_vocab = tmp_path / "reversed_vocab.txt"
    reversed_vocab.write_text("\n".join(tokens[:5] + tokens[5:][::-1]) + "\n")
    evaluate = ("evaluate", "--config", str(cfg), "--out", str(out), "--set", "evaluate.task=ner",
                "--set", f"evaluate.checkpoint={fin / 'best.ckpt'}",
                "--set", f"evaluate.data={fixture_dir}/ner_test.conll")
    assert run(*evaluate, "--set", f"global.vocab={reversed_vocab}") == 4
    assert "different vocabulary" in capsys.readouterr().err
    assert run(*evaluate, "--set", "finetune.max_len=25") == 2
    assert "exceeds encoder max_positions 24" in capsys.readouterr().err


def test_evaluate_decodes_with_the_checkpoint_tag_scheme(tmp_path, fixture_dir, capsys):
    train = tmp_path / "train.conll"
    train.write_text((fixture_dir / "ner_train.conll").read_text() + "x S-AAA\n\n")
    cfg = _write_config(tmp_path, fixture_dir)
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    assert run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={out / 'pretrain' / 'final.ckpt'}",
               "--set", f"finetune.train={train}") == 0
    best = load_checkpoint_file(out / "finetune" / "best.ckpt")
    assert best.metadata["entity_types"] == "AAA GENE"
    # the test set holds GENE entities only
    evaluate = ("evaluate", "--config", str(cfg), "--out", str(out), "--set", "evaluate.task=ner",
                "--set", f"evaluate.data={fixture_dir}/ner_test.conll")
    assert run(*evaluate, "--set", f"evaluate.checkpoint={out / 'finetune' / 'best.ckpt'}") == 0
    # weights that do not record their scheme decode with the data's
    del best.metadata["entity_types"]
    save_checkpoint_file(best, tmp_path / "unrecorded.ckpt")
    assert run(*evaluate, "--set", f"evaluate.checkpoint={tmp_path / 'unrecorded.ckpt'}") == 3
    assert "the ner head emits 9 values where 5 are expected" in capsys.readouterr().err
    assert run(*evaluate, "--set", f"evaluate.checkpoint={out / 'pretrain' / 'final.ckpt'}") == 3
    assert "the checkpoint has no ner head" in capsys.readouterr().err


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


def test_convert_bioasq_repeated_question_id_is_data_error(tmp_path, fixture_dir, capsys):
    doc = json.loads((fixture_dir / "qa_bioasq.json").read_text())
    doc["questions"][1]["id"] = doc["questions"][0]["id"]
    src = tmp_path / "bioasq.json"
    src.write_text(json.dumps(doc))
    code = run("convert", "--from", "bioasq", "--to", "squad", "--input", str(src),
               "--passages", str(fixture_dir / "qa_passages.json"),
               "--output", str(tmp_path / "squad.json"))
    assert code == 3
    assert "repeated" in capsys.readouterr().err
    assert not (tmp_path / "squad.json").exists()


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


@pytest.mark.parametrize("text", [
    "seed = 1\n",                                # no section header
    "[global]\nseed = 1\n[global]\nseed = 2\n",  # duplicate section
    "[global]\nout = a%b\n",                     # bad interpolation
], ids=["no-section-header", "duplicate-section", "interpolation"])
def test_malformed_config_is_config_error(tmp_path, capsys, text):
    corpus = tmp_path / "c.txt"
    corpus.write_text("the\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run("corpus-stats", "--corpus", str(corpus), "--vocab", MINI_VOCAB,
               "--config", str(cfg), "--dry-run") == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("sweep.seeds=0,a", "[sweep] seeds = 'a' is not an integer"),
    ("sweep.fractions=0.5,x", "[sweep] fractions = 'x' is not a number"),
    ("sweep.fractions=0.5,nan", "[sweep] fractions = 'nan' is not finite"),
    ("sweep.seeds=,", "[sweep] seeds lists nothing"),
    ("sweep.seeds=0,-1", "[sweep] seeds must be >= 0, got -1"),
    ("sweep.fractions=0", "[sweep] fractions must lie in (0, 1], got [0.0]"),
    ("sweep.fractions=0.5,1.5", "[sweep] fractions must lie in (0, 1], got [0.5, 1.5]"),
])
def test_malformed_list_setting_is_config_error(capsys, setting, message):
    assert run("sweep", "--set", "sweep.axis=fraction", "--set", setting, "--dry-run") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["negative,negative", "negative"])
def test_bad_labels_setting_is_config_error(tmp_path, fixture_dir, capsys, labels):
    cfg, out, init = _pretrained(tmp_path, fixture_dir)
    capsys.readouterr()
    assert run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}", "--set", "finetune.task=re",
               "--set", f"finetune.train={fixture_dir}/re_train.tsv",
               "--set", f"finetune.dev={fixture_dir}/re_dev.tsv",
               "--set", f"finetune.labels={labels}") == 2
    assert "[finetune] labels: label set needs >= 2 unique labels" in capsys.readouterr().err
    gold = fixture_dir / "re_test.tsv"
    for dry_run in ((), ("--dry-run",)):
        assert run("evaluate", "--out", str(out), "--set", "evaluate.task=re",
                   "--set", f"evaluate.gold={gold}", "--set", f"evaluate.pred={gold}",
                   "--set", f"evaluate.labels={labels}", *dry_run) == 2
        assert "[evaluate] labels: label set needs >= 2 unique labels" in capsys.readouterr().err
    assert not (out / "finetune").exists() and not (out / "evaluate").exists()


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


def test_sweep_checkpoint_axis_rejects_non_numeric_step(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir, extra="[sweep]\naxis = checkpoint\n")
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    (ckpts / "step_final.ckpt").write_bytes(b"")
    assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "run"), "--dry-run",
               "--set", f"sweep.checkpoints={ckpts}") == 2
    assert "step_final.ckpt" in capsys.readouterr().err


def test_sweep_checkpoint_axis_skips_a_checkpoint_being_written(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir, extra="[sweep]\naxis = checkpoint\n")
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    real = ["step_000002.ckpt", "step_000004.ckpt"]
    for name in real:
        (ckpts / name).write_bytes(b"")
    with atomic_write(ckpts / "step_000006.ckpt", binary=True) as f:
        f.write(b"MBRT")
        assert len(list(ckpts.iterdir())) == 3  # the temporary file is there
        assert sorted(p.name for p in ckpts.glob("*.ckpt")) == real
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "run"), "--dry-run",
                   "--set", f"sweep.checkpoints={ckpts}") == 0
    assert "values=[2, 4] " in capsys.readouterr().out


def test_sweep_checkpoint_axis_loads_unpadded_step_name(tmp_path, fixture_dir):
    cfg = _write_config(tmp_path, fixture_dir, extra="[sweep]\naxis = checkpoint\nseeds = 0\n")
    out = tmp_path / "run"
    assert run("pretrain", "--config", str(cfg), "--out", str(out)) == 0
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    (ckpts / "step_2.ckpt").write_bytes((out / "pretrain" / "step_000002.ckpt").read_bytes())
    assert run("sweep", "--config", str(cfg), "--out", str(out),
               "--set", f"sweep.checkpoints={ckpts}") == 0
    rows = (out / "sweep" / "sweep_rows.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("checkpoint,2,")


@pytest.mark.parametrize("content, message", [
    (b"[recipe]\nner_train = abc\n", "[recipe] ner_train = 'abc' is not an integer"),
    (b"ner_train = 5\n", "no section headers"),
    (b"[recipe]\nentity_type = caf\xe9\n", "line 2 is not valid UTF-8"),
    (b"[recipe]\ntwo_word_fraction = maybe\n", "[recipe] two_word_fraction = 'maybe' is not a number"),
], ids=["bad-int", "no-section-header", "latin-1", "bad-float"])
def test_malformed_recipe_is_config_error(tmp_path, capsys, content, message):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_bytes(content)
    assert run("fixtures", "--recipe", str(recipe), "--out", str(tmp_path / "fx"),
               "--dry-run") == 2
    assert message in capsys.readouterr().err


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


def test_finetune_ner_trains_an_intermediate_phase(tmp_path, fixture_dir):
    intermediate = tmp_path / "intermediate.conll"
    intermediate.write_text((fixture_dir / "ner_test.conll").read_text() + "x S-ZZZ\n\n")
    cfg, out, init = _pretrained(tmp_path, fixture_dir, f"intermediate = {intermediate}\n")
    assert run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}") == 0
    assert _phases(out / "finetune" / "log.jsonl") == [
        ("init", 0), ("intermediate", "start"), ("intermediate", 1),
        ("target", "start"), ("target", 1)]
    # the tag scheme spans the entity types of the intermediate set too
    best = load_checkpoint_file(out / "finetune" / "best.ckpt")
    assert best.metadata["entity_types"] == "GENE ZZZ"


def test_missing_intermediate_path_is_config_error(tmp_path, fixture_dir, capsys):
    missing = tmp_path / "missing.conll"
    cfg, out, init = _pretrained(tmp_path, fixture_dir, f"intermediate = {missing}\n")
    assert run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}") == 2
    assert f"[finetune] intermediate: path does not exist: {missing}" in capsys.readouterr().err
    assert not (out / "finetune").exists()


def _qa_finetune(fixture_dir, cfg, out, init, *extra):
    return run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}", "--set", "finetune.task=qa",
               "--set", f"finetune.train={fixture_dir}/qa_train.json",
               "--set", f"finetune.dev={fixture_dir}/qa_dev.json", *extra)


def test_finetune_qa_via_cli(tmp_path, fixture_dir):
    cfg, out, init = _pretrained(tmp_path, fixture_dir)
    assert _qa_finetune(fixture_dir, cfg, out, init) == 0
    report = json.loads((out / "finetune" / "report.json").read_text())
    assert report["task"] == "qa" and set(report["micro"]) == {"strict", "lenient", "mrr"}
    assert _phases(out / "finetune" / "log.jsonl") == [
        ("init", 0), ("target", "start"), ("target", 1)]


def test_finetune_qa_with_a_converted_intermediate_set(tmp_path, fixture_dir):
    converted = tmp_path / "bioasq_squad.json"
    assert run("convert", "--from", "bioasq", "--to", "squad",
               "--input", str(fixture_dir / "qa_bioasq.json"),
               "--passages", str(fixture_dir / "qa_passages.json"),
               "--output", str(converted)) == 0
    cfg, out, init = _pretrained(tmp_path, fixture_dir)
    assert _qa_finetune(fixture_dir, cfg, out, init,
                        "--set", f"finetune.intermediate={converted}") == 0
    assert _phases(out / "finetune" / "log.jsonl") == [
        ("init", 0), ("intermediate", "start"), ("intermediate", 1),
        ("target", "start"), ("target", 1)]


def test_evaluate_qa_model_mode(tmp_path, fixture_dir):
    cfg, out, init = _pretrained(tmp_path, fixture_dir)
    assert _qa_finetune(fixture_dir, cfg, out, init) == 0
    assert run("evaluate", "--config", str(cfg), "--out", str(out),
               "--set", "evaluate.task=qa", "--set", "evaluate.dataset_name=qa_test",
               "--set", f"evaluate.checkpoint={out / 'finetune' / 'best.ckpt'}",
               "--set", f"evaluate.data={fixture_dir}/qa_test.json") == 0
    report = json.loads((out / "evaluate" / "report.json").read_text())
    assert report["task"] == "qa" and report["datasets"][0]["name"] == "qa_test"
    micro = report["micro"]
    assert 0.0 <= micro["strict"] <= micro["mrr"] <= micro["lenient"] <= 1.0
    questions = report["counts"][0]["questions"]
    assert questions == len(parse_qa_json(fixture_dir / "qa_test.json"))


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


def test_evaluate_re_prediction_rows_pair_by_id(tmp_path, fixture_dir):
    gold = fixture_dir / "re_test.tsv"
    header, *rows = gold.read_text().splitlines(keepends=True)
    pred = tmp_path / "pred.tsv"
    pred.write_text(header + "".join(reversed(rows)))
    out = tmp_path / "run"
    assert run("evaluate", "--out", str(out), "--set", "evaluate.task=re",
               "--set", f"evaluate.gold={gold}", "--set", f"evaluate.pred={pred}") == 0
    report = json.loads((out / "evaluate" / "report.json").read_text())
    assert report["micro"]["f1"] == 1.0


def _re_predictions(gold, edit):
    """RE predictions with the first gold row dropped, or repeated."""
    header, first, *rows = gold.read_text().splitlines(keepends=True)
    text = header + "".join(rows) + (first + first if edit == "repeated" else "")
    return text, first.split("\t")[0]


def _qa_predictions(gold, edit):
    """QA predictions with the first gold question dropped, or with an extra
    id that matches no question."""
    answers = {ex.id: list(ex.gold_answers) for ex in parse_qa_json(gold)}
    first = next(iter(answers))
    if edit == "dropped":
        del answers[first]
        return json.dumps(answers), first
    answers["not_a_question"] = ["x"]
    return json.dumps(answers), "not_a_question"


_MISMATCHED = {"re": ("re_test.tsv", _re_predictions), "qa": ("qa_test.json", _qa_predictions)}


@pytest.mark.parametrize("task, edit", [("re", "dropped"), ("re", "repeated"),
                                        ("qa", "dropped"), ("qa", "unknown")])
def test_evaluate_prediction_id_mismatch_is_data_error(tmp_path, fixture_dir, capsys, task, edit):
    gold_name, predictions = _MISMATCHED[task]
    gold = fixture_dir / gold_name
    text, bad_id = predictions(gold, edit)
    pred = tmp_path / "pred"
    pred.write_text(text)
    assert run("evaluate", "--out", str(tmp_path / "run"), "--set", f"evaluate.task={task}",
               "--set", f"evaluate.gold={gold}", "--set", f"evaluate.pred={pred}") == 3
    assert repr(bad_id) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ("corpus-stats", "--corpus", MINI_VOCAB, "--vocab", MINI_VOCAB),
    ("fixtures", "--seed", "1"),
], ids=["corpus-stats", "fixtures"])
def test_unwritable_output_is_config_error(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(*argv, "--out", str(blocker / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(blocker / "out") in err


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


@pytest.mark.parametrize("text, extra, message", [
    ("", ("--set", "pretrain.hiden=9"), "unknown key 'hiden' in [pretrain]"),
    ("", ("--set", "finetune.batchsize=7"), "unknown key 'batchsize' in [finetune]"),
    ("", ("--set", "sweep.fractionz=0.1"), "unknown key 'fractionz' in [sweep]"),
    ("", ("--set", "pretrain.seed=9"), "unknown key 'seed' in [pretrain]"),
    ("", ("--set", "fixtures.seed=1"), "unknown config section [fixtures]"),
    ("[pretrain]\nhiden = 9\n", (), "unknown key 'hiden' in [pretrain]"),
    ("[fixtures]\nseed = 1\n", (), "unknown config section [fixtures]"),
    ("", ("--set", "global.seed=-1"), "seed must be >= 0, got -1"),
    ("", ("--seed", "-1"), "seed must be >= 0, got -1"),
    ("[global]\nseed = -1\n", (), "seed must be >= 0, got -1"),
], ids=["set-hiden", "set-batchsize", "set-fractionz", "set-pretrain-seed", "set-fixtures",
        "file-hiden", "file-fixtures", "set-negative-seed", "flag-negative-seed",
        "file-negative-seed"])
def test_unknown_config_key_or_section_is_config_error(tmp_path, fixture_dir, capsys,
                                                       text, extra, message):
    cfg = _write_config(tmp_path, fixture_dir)
    if text:
        cfg.write_text(text)
    argv = ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "dry"), "--dry-run"]
    if extra:
        assert run(*argv) == 0  # the config alone is valid
        argv += extra
    capsys.readouterr()
    assert run(*argv) == 2
    assert message in capsys.readouterr().err


def test_non_finite_number_is_config_error(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir)
    assert run("pretrain", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--set", "pretrain.learning_rate=nan") == 2
    assert "[pretrain] learning_rate = 'nan' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_grid_with_no_batch_sizes_is_config_error(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir)
    assert run("finetune", "--config", str(cfg), "--out", str(tmp_path / "run"), "--grid",
               "--set", f"finetune.init={fixture_dir}/vocab.txt",
               "--set", "finetune.grid_batch_sizes=,") == 2
    assert "[finetune] grid_batch_sizes lists nothing" in capsys.readouterr().err


def test_dry_run_plans_print_the_resolved_config(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir)
    out = tmp_path / "dry"
    assert run("pretrain", "--config", str(cfg), "--out", str(out), "--dry-run") == 0
    plan = capsys.readouterr().out
    for field in ("'steps': 4", "'ff_dim': 32", "'mask_fraction': 0.15",
                  "'learning_rate': 0.0001", "'layernorm_epsilon': 1e-12"):
        assert field in plan, field
    assert run("finetune", "--config", str(cfg), "--out", str(out), "--dry-run",
               "--set", f"finetune.init={fixture_dir}/vocab.txt") == 0
    plan = capsys.readouterr().out
    for field in ("'max_len': 24", "'doc_stride': 16", "'n_best': 5", "'seed': 3"):
        assert field in plan, field


# A dry run checks every setting and path the run would read: each of these
# exits 2 with the message, and reads no dataset, corpus or checkpoint.
_MISSING = "/nonexistent/input"
_SWEEP = ("sweep", "--set", "sweep.axis=fraction", "--set", "sweep.init={fx}/vocab.txt")
_MODEL = ("evaluate", "--set", "evaluate.task=ner", "--set", "evaluate.checkpoint={fx}/vocab.txt",
          "--set", "evaluate.data={fx}/ner_test.conll")
_FILES = ("evaluate", "--set", "evaluate.task=ner", "--set", "evaluate.gold={fx}/ner_test.conll",
          "--set", "evaluate.pred={fx}/ner_test.conll")


@pytest.mark.parametrize("argv, message", [
    (("finetune", "--set", "finetune.init={fx}/vocab.txt", "--set", f"finetune.train={_MISSING}"),
     f"[finetune] train: path does not exist: {_MISSING}"),
    ((*_MODEL, "--set", f"evaluate.checkpoint={_MISSING}"),
     f"[evaluate] checkpoint: path does not exist: {_MISSING}"),
    ((*_MODEL, "--set", f"evaluate.data={_MISSING}"),
     f"[evaluate] data: path does not exist: {_MISSING}"),
    ((*_FILES, "--set", f"evaluate.gold={_MISSING}"),
     f"[evaluate] gold: path does not exist: {_MISSING}"),
    ((*_FILES, "--set", f"evaluate.pred={_MISSING}"),
     f"[evaluate] pred: path does not exist: {_MISSING}"),
    ((*_SWEEP, "--set", f"sweep.init={_MISSING}"),
     f"[sweep] init: path does not exist: {_MISSING}"),
    ((*_SWEEP, "--set", f"pretrain.corpus={_MISSING}"),
     f"[pretrain] corpus: path does not exist: {_MISSING}"),
    ((*_SWEEP, "--set", "pretrain.steps=0"), "steps must be >= 1"),
    ((*_SWEEP, "--set", "finetune.epochs=-1"), "epochs must be >= 0"),
    ((*_MODEL, "--set", "finetune.max_len=2"), "invalid task knobs"),
    (("finetune", "--set", "finetune.init={fx}/vocab.txt", "--set", "finetune.scheme=bioez"),
     "[finetune] scheme must be one of ['bioes', 'bio'], got 'bioez'"),
    ((*_FILES, "--set", "evaluate.scheme=bioez"),
     "[evaluate] scheme must be one of ['bioes', 'bio'], got 'bioez'"),
    ((*_SWEEP, "--set", "finetune.scheme=BIO"),
     "[finetune] scheme must be one of ['bioes', 'bio'], got 'BIO'"),
], ids=["finetune-train", "evaluate-checkpoint", "evaluate-data", "evaluate-gold",
        "evaluate-pred", "sweep-init", "sweep-corpus", "sweep-steps", "sweep-epochs",
        "evaluate-max-len", "finetune-scheme", "evaluate-scheme", "sweep-scheme"])
def test_dry_run_refuses_what_the_run_would_refuse(tmp_path, fixture_dir, capsys, argv, message):
    cfg = _write_config(tmp_path, fixture_dir)
    argv = [a.format(fx=fixture_dir) for a in argv]
    common = ("--config", str(cfg), "--out", str(tmp_path / "run"), "--dry-run")
    assert run(*argv[:1], *common, *argv[1:]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, setting, message", [
    ("pretrain", "pretrain.steps=0", "steps must be >= 1"),
    ("finetune", "finetune.labels=negative", "[finetune] labels: label set needs >= 2"),
], ids=["pretrain-steps", "finetune-labels"])
def test_bad_setting_is_refused_before_a_checkpoint_is_read(tmp_path, fixture_dir, capsys,
                                                            command, setting, message):
    vocab = fixture_dir / "vocab.txt"  # not a checkpoint: reading it is a data error
    cfg = _write_config(tmp_path, fixture_dir)
    argv = (command, "--config", str(cfg), "--out", str(tmp_path / "run"),
            "--set", f"pretrain.init={vocab}", "--set", f"finetune.init={vocab}",
            "--set", "finetune.task=re", "--set", f"finetune.train={fixture_dir}/re_train.tsv",
            "--set", f"finetune.dev={fixture_dir}/re_dev.tsv")
    assert run(*argv) == 3
    assert "bad magic" in capsys.readouterr().err
    assert run(*argv, "--set", setting) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
@pytest.mark.parametrize("command, setting, message", [
    ("finetune", "finetune.batch_size=0", "batch_size must be >= 1"),
    ("finetune", "finetune.learning_rate=-1e-3", "learning_rate must be >= 0"),
    ("finetune", "finetune.warmup_fraction=5.0", "warmup_fraction must lie in [0, 1)"),
    ("finetune", "finetune.weight_decay=-0.01", "weight_decay must be >= 0"),
    ("pretrain", "pretrain.learning_rate=-1e-4", "learning_rate must be >= 0"),
    ("pretrain", "pretrain.weight_decay=-0.01", "weight_decay must be >= 0"),
    ("pretrain", "pretrain.checkpoint_interval=-3", "checkpoint_interval must be >= 0"),
], ids=["finetune-batch-size", "finetune-lr", "finetune-warmup", "finetune-decay",
        "pretrain-lr", "pretrain-decay", "pretrain-checkpoint-interval"])
def test_out_of_range_schedule_value_is_config_error(tmp_path, fixture_dir, capsys,
                                                     command, setting, message, dry_run):
    cfg = _write_config(tmp_path, fixture_dir)  # allow_nonstandard = true
    argv = (command, "--config", str(cfg), "--out", str(tmp_path / "run"),
            "--set", f"finetune.init={fixture_dir}/vocab.txt", "--set", setting)
    assert run(*argv, *(("--dry-run",) if dry_run else ())) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_lenient_repairs_the_gold_file_in_both_evaluate_modes(tmp_path, fixture_dir):
    cfg, out, init = _pretrained(tmp_path, fixture_dir)
    assert run("finetune", "--config", str(cfg), "--out", str(out),
               "--set", f"finetune.init={init}") == 0
    first, rest = (fixture_dir / "ner_test.conll").read_text().split("\n", 1)
    gold = tmp_path / "gold.conll"
    gold.write_text(f"{first.split()[0]} I-GENE\n{rest}")
    modes = {"model": ("--set", f"evaluate.checkpoint={out / 'finetune' / 'best.ckpt'}",
                       "--set", f"evaluate.data={gold}"),
             "files": ("--set", f"evaluate.gold={gold}", "--set", f"evaluate.pred={gold}")}
    for lenient, code in (((), 3), (("--set", "evaluate.lenient=true"), 0)):
        for mode, argv in modes.items():
            assert run("evaluate", "--config", str(cfg), "--out", str(out),
                       "--set", "evaluate.task=ner", *argv, *lenient) == code, (mode, lenient)


def test_bad_scheme_is_a_config_error_before_any_file_is_read(tmp_path, fixture_dir, capsys):
    cfg = _write_config(tmp_path, fixture_dir)
    argv = [a.format(fx=fixture_dir) for a in _FILES]
    assert run(*argv[:1], "--config", str(cfg), "--out", str(tmp_path / "run"), *argv[1:],
               "--set", "evaluate.scheme=bioez") == 2
    assert "[evaluate] scheme must be one of" in capsys.readouterr().err


def test_lenient_repairs_a_bio_prediction_file(tmp_path, fixture_dir):
    sentences = parse_conll(fixture_dir / "ner_test.conll", scheme="bioes")
    bio = [LabeledSentence(s.words, tuple(bioes_to_bio(list(s.tags)))) for s in sentences]
    gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
    write_conll(bio, gold)
    first = bio[0]
    write_conll([LabeledSentence(first.words, ("I-GENE", *first.tags[1:])), *bio[1:]], pred)
    cfg = _write_config(tmp_path, fixture_dir)
    assert run("evaluate", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--set", "evaluate.task=ner", "--set", "evaluate.scheme=bio",
               "--set", f"evaluate.gold={gold}", "--set", f"evaluate.pred={pred}") == 0


def test_each_checkpoint_is_read_once_per_command(tmp_path, fixture_dir, monkeypatch):
    cfg, out, init = _pretrained(tmp_path, fixture_dir, """
grid_batch_sizes = 4,8
grid_learning_rates = 1e-3,5e-4
[sweep]
fractions = 0.5,1.0
seeds = 0,1
""")
    reads = []

    def counted(path):
        reads.append(Path(path).name)
        return load_checkpoint_file(path)
    monkeypatch.setattr("adaptlm.cli.load_checkpoint_file", counted)
    runs = {
        ("finetune", "--grid", "--set", f"finetune.init={init}"): ["final.ckpt"],
        ("sweep", "--set", "sweep.axis=fraction", "--set", f"sweep.init={init}"): ["final.ckpt"],
        ("sweep", "--set", "sweep.axis=checkpoint", "--set", f"sweep.checkpoints={init.parent}"):
            ["step_000002.ckpt", "step_000004.ckpt"],
    }
    for (command, *argv), expected in runs.items():
        reads.clear()
        assert run(command, "--config", str(cfg), "--out", str(out), *argv) == 0
        assert reads == expected, command
    assert len(list((out / "finetune").glob("grid_b*"))) == 4
    rows = (out / "sweep" / "sweep_rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2


@pytest.mark.parametrize("argv", [
    ("finetune", "--dry-run", "--set", "finetune.task=nre",
     "--set", "finetune.init={fx}/vocab.txt"),
    ("evaluate", "--set", "evaluate.task=nre", "--set", "evaluate.gold={fx}/qa_test.json",
     "--set", "evaluate.pred={pred}"),
], ids=["finetune-dry-run", "evaluate-qa-files"])
def test_unknown_task_is_config_error(tmp_path, fixture_dir, capsys, argv):
    pred = tmp_path / "pred.json"
    pred.write_text("{}")
    argv = [a.format(fx=fixture_dir, pred=pred) for a in argv]
    assert run(*argv, "--out", str(tmp_path / "run")) == 2
    assert "task must be one of ['ner', 're', 'qa'], got 'nre'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line, code", [
    ("sentence_words = 0", 2),
    ("general_words = 0", 2),
    ("domain_heads = 0", 2),
    ("distractor_heads = 0", 2),
    ("markers_per_class = 0", 2),
    ("sentences_per_document = -1", 2),
    ("ner_train = -1", 2),
    ("qa_bioasq_questions = -1", 2),
    ("two_word_fraction = 1.5", 2),
    ("qa_bioasq_questions = 0", 0),
])
def test_recipe_bounds_exit_codes(tmp_path, capsys, line, code):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(f"[recipe]\n{line}\n")
    assert run("fixtures", "--recipe", str(recipe), "--out", str(tmp_path / "fx")) == code
    if code == 2:
        assert "config error" in capsys.readouterr().err


# Keys each section accepts, misspellings of them, and sections that do not exist.
_FUZZ_KEYS = [(section, key) for section, keys in SECTIONS.items() for key in keys]
_FUZZ_KEYS += [(section, key[:-1]) for section, key in _FUZZ_KEYS[::3]]
_FUZZ_KEYS += [("fixtures", "seed"), ("pretrain", "replace_with_mask"), ("Global", "seed")]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "corpus.txt").write_text("the of and\n\nin the\n")
    (root / "ckpts").mkdir()
    (root / "ckpts" / "step_000001.ckpt").write_bytes(b"")
    return root


def _fuzz_values(root):
    paths = [MINI_VOCAB, str(root / "corpus.txt"), str(root / "ckpts"),
             str(root / "ckpts" / "step_000001.ckpt"), str(root / "missing")]
    words = ["", "0", "1", "-1", "2", "16", "0.5", "1e-3", "nan", "true", "maybe",
             "ner", "re", "qa", "nre", "fraction", "checkpoint", "0,1", "a,b", "5e-5,x"]
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    return st.one_of(st.sampled_from(paths + words), text)


@pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate", "sweep"])
@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_configs_exit_with_documented_codes(fuzz_paths, command, data):
    values = _fuzz_values(fuzz_paths)
    base = {"global": {"vocab": MINI_VOCAB},
            "pretrain": {"corpus": str(fuzz_paths / "corpus.txt"), "steps": "2"},
            "finetune": {"task": "ner", "init": MINI_VOCAB},
            "evaluate": {"task": "qa"},
            "sweep": {"axis": "fraction"}}
    entries = data.draw(st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), values), max_size=4))
    for (section, key), value in entries:
        base.setdefault(section, {})[key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in base.items())
    cfg = fuzz_paths / f"{command}.cfg"
    cfg.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(fuzz_paths / "out"), "--dry-run"]
    for (section, key), value in data.draw(st.lists(
            st.tuples(st.sampled_from(_FUZZ_KEYS), values), max_size=3)):
        argv += ["--set", f"{section}.{key}={value}"]
    assert main(argv) in (0, 2, 3)
    assert not (fuzz_paths / "out").exists()
