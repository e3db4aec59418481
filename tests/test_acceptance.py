"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting its stated tolerance and runtime budget.

Criteria 8 and 9 share a single five-seed reference pipeline (general
pretraining, domain continuation with intermediate checkpoints, three
fine-tuning arms per seed); its regression bands were pinned from a one-time
reference run.
"""

import io
import os
import time
from pathlib import Path

import numpy as np
import pytest

from adaptlm.checkpoint import load_checkpoint, load_checkpoint_file, roundtrip_bytes
from adaptlm.data import bioasq_to_extractive, load_ner_dataset
from adaptlm.encoder import EncoderConfig, init_weights
from adaptlm.errors import CorruptionError, FormatError
from adaptlm.fixtures import FixtureRecipe, generate_fixtures
from adaptlm.heads import (FinetuneConfig, admissible_positions, anonymize_entities,
                           extract_span, filter_unanswerable, finetune, evaluate_ner)
from adaptlm.metrics import EntitySpan, entity_prf, qa_metrics, spans_from_tags
from adaptlm.pretrain import (MaskingPolicy, PretrainConfig, apply_masking, mlm_loss,
                              mlm_step_grads, train_mlm)
from adaptlm.tags import TagScheme, is_valid_bioes
from adaptlm.tokenizer import encode_pieces, encode_sequence, wordpiece_split
from adaptlm.vocab import Vocabulary, load_vocabulary_file

BUNDLED_VOCAB = Path(__file__).resolve().parent.parent / "src/adaptlm/assets/vocab_cased_mini.txt"
REAL_VOCAB_ENV = "ADAPTLM_BERT_VOCAB"


def _report(criterion, ok, elapsed, note=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status} ({elapsed:.2f}s) {note}")


# --------------------------------------------------------------------- 1

def test_criterion_1_tokenizer_fixture():
    vocab_path = os.environ.get(REAL_VOCAB_ENV) or BUNDLED_VOCAB
    t0 = time.perf_counter()
    vocab = load_vocabulary_file(vocab_path)
    pieces = wordpiece_split("Immunoglobulin", vocab)
    elapsed = time.perf_counter() - t0
    ok = pieces == ["I", "##mm", "##uno", "##g", "##lo", "##bul", "##in"]
    _report(1, ok and elapsed < 1.0, elapsed,
            f"subword split via {Path(vocab_path).name}")
    assert pieces == ["I", "##mm", "##uno", "##g", "##lo", "##bul", "##in"]
    assert elapsed < 1.0


# --------------------------------------------------------------------- 2

def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    entries = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"] + list("abcdefghij") + ["##k", "##l"]
    vocab = Vocabulary(tuple(entries))
    # init_std 0.5 puts the weights at a generic point: at 0.02 the layer-0
    # query/key gradients are second-order small and sit below the
    # finite-difference noise floor for any correct implementation
    cfg = EncoderConfig(vocab_size=len(vocab), hidden=8, layers=2, heads=2,
                        ff_dim=16, max_positions=12, dropout=0.0, init_std=0.5,
                        seed=5)
    weights = init_weights(cfg).astype(np.float64)
    batch = [encode_sequence("a b c d e f g", None, vocab, 10),
             encode_sequence("h i j a b", None, vocab, 10)]
    masked = apply_masking(batch, MaskingPolicy(mask_fraction=0.5, seed=11), vocab)
    assert masked.mask_positions.shape[0] > 0
    _, _, grads = mlm_step_grads(masked, weights)

    step = 1e-3
    worst = 0.0
    for name, analytic in sorted(grads.items()):
        arr = weights.tensors[name]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = mlm_loss(masked, weights)[0]
            arr[idx] = orig - step
            down = mlm_loss(masked, weights)[0]
            arr[idx] = orig
            fd[idx] = (up - down) / (2 * step)
        diff = float(np.linalg.norm(analytic - fd))
        ref = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
        # atol guards identically-zero gradients (key-projection biases:
        # a per-row uniform score shift leaves the softmax unchanged)
        assert diff <= 1e-8 + 1e-4 * ref, f"{name}: |d|={diff:.3e} ref={ref:.3e}"
        if ref > 1e-8:
            worst = max(worst, diff / ref)
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 60.0, elapsed,
            f"all {len(grads)} tensors, worst rel {worst:.2e} at step 1e-3")
    assert elapsed < 60.0


# --------------------------------------------------------------------- 3

def test_criterion_3_masking_statistics(toy_vocab):
    t0 = time.perf_counter()
    pieces = [toy_vocab.token(5 + (i % 10)) for i in range(298)]
    batch = [encode_pieces(pieces, toy_vocab, 300) for _ in range(350)]
    n_maskable = sum(int(((e.mask == 1) & (e.word_index >= 0)).sum()) for e in batch)
    assert n_maskable >= 100_000
    masked = apply_masking(batch, MaskingPolicy(seed=29), toy_vocab)

    frac = masked.mask_positions.shape[0] / n_maskable
    rows, cols = masked.mask_positions.T
    originals = np.stack([e.ids for e in batch])[rows, cols]
    corrupted = np.stack([e.ids for e in masked.inputs])[rows, cols]
    n = len(rows)
    mask_share = float((corrupted == toy_vocab.mask_id).sum()) / n
    keep_share = float((corrupted == originals).sum()) / n
    random_share = 1.0 - mask_share - keep_share
    elapsed = time.perf_counter() - t0
    ok = (abs(frac - 0.15) <= 0.01 and abs(mask_share - 0.80) <= 0.02
          and abs(random_share - 0.10) <= 0.02 and abs(keep_share - 0.10) <= 0.02)
    _report(3, ok and elapsed < 10.0, elapsed,
            f"n={n_maskable}, frac {frac:.4f}, shares {mask_share:.3f}/"
            f"{random_share:.3f}/{keep_share:.3f}")
    assert abs(frac - 0.15) <= 0.01
    assert abs(mask_share - 0.80) <= 0.02
    assert abs(random_share - 0.10) <= 0.02
    assert abs(keep_share - 0.10) <= 0.02
    assert elapsed < 10.0


# --------------------------------------------------------------------- 4

def _random_valid_bioes(rng, types=("D", "G")):
    tags = []
    n = int(rng.integers(1, 14))
    while len(tags) < n:
        typ = types[int(rng.integers(len(types)))]
        roll = rng.random()
        if roll < 0.4:
            tags.append("O")
        elif roll < 0.65 or n - len(tags) < 2:
            tags.append(f"S-{typ}")
        else:
            run = min(int(rng.integers(2, 5)), n - len(tags))
            tags += [f"B-{typ}"] + [f"I-{typ}"] * (run - 2) + [f"E-{typ}"]
    tags = tags[:n]
    return tags if is_valid_bioes(tags) else tags + []


def _bruteforce_spans(tags):
    spans = set()
    types = {t[2:] for t in tags if t != "O"}
    n = len(tags)
    for typ in types:
        for i in range(n):
            for j in range(i, n):
                window = tags[i:j + 1]
                if i == j:
                    good = window == [f"S-{typ}"]
                else:
                    good = (window[0] == f"B-{typ}" and window[-1] == f"E-{typ}"
                            and all(t == f"I-{typ}" for t in window[1:-1]))
                if good:
                    spans.add(EntitySpan(i, j, typ))
    return spans


def _bruteforce_prf(gold, pred):
    tp = sum(1 for g, p in zip(gold, pred) for s in p if s in g)
    fp = sum(1 for g, p in zip(gold, pred) for s in p if s not in g)
    fn = sum(1 for g, p in zip(gold, pred) for s in g if s not in p)
    if tp == fp == fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def test_criterion_4_metric_oracles(toy_vocab):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    sequences = []
    for _ in range(1000):
        tags = _random_valid_bioes(rng)
        while not is_valid_bioes(tags):
            tags = _random_valid_bioes(rng)
        sequences.append(tags)
        assert spans_from_tags(tags) == _bruteforce_spans(tags)
    for _ in range(200):
        gold = [_bruteforce_spans(sequences[int(rng.integers(1000))]) for _ in range(4)]
        pred = [_bruteforce_spans(sequences[int(rng.integers(1000))]) for _ in range(4)]
        assert np.allclose(entity_prf(gold, pred)[:3], _bruteforce_prf(gold, pred))

    encoded = encode_sequence("a", "b c d e f", toy_vocab, 12)
    ok_pos = np.flatnonzero(admissible_positions(encoded))
    mismatches = 0
    for _ in range(500):
        start = rng.standard_normal(12)
        end = rng.standard_normal(12)
        cap = int(rng.integers(1, 5))
        best, _ = extract_span(start, end, encoded, max_answer_subtokens=cap)
        exhaustive = None
        for i in ok_pos:
            for j in ok_pos:
                if j < i or j - i + 1 > cap:
                    continue
                key = (-(start[i] + end[j]), i, j)
                if exhaustive is None or key < exhaustive[0]:
                    exhaustive = (key, int(i), int(j))
        if (best.start, best.end) != (exhaustive[1], exhaustive[2]):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(4, mismatches == 0 and elapsed < 30.0, elapsed,
            "1000 tag sequences, 200 prf sets, 500 span instances")
    assert mismatches == 0
    assert elapsed < 30.0


# --------------------------------------------------------------------- 5

def test_criterion_5_metric_identities():
    t0 = time.perf_counter()
    strict, lenient, mrr, _ = qa_metrics([["x"], ["a", "x"], ["a", "b", "c", "d", "e"]],
                                         [["x"], ["x"], ["zzz"]])
    assert np.allclose((strict, lenient, mrr), (1 / 3, 2 / 3, 0.5))

    rng = np.random.default_rng(23)
    for _ in range(10_000):
        n_q = int(rng.integers(1, 6))
        ranked = [[f"a{int(rng.integers(9))}" for _ in range(int(rng.integers(0, 7)))]
                  for _ in range(n_q)]
        gold = [[f"a{int(rng.integers(9))}"] for _ in range(n_q)]
        s, l, m, _ = qa_metrics(ranked, gold)
        assert s <= m + 1e-12 and m <= l + 1e-12
    elapsed = time.perf_counter() - t0
    _report(5, elapsed < 5.0, elapsed, "hand example exact; 10^4 fuzzed sets")
    assert elapsed < 5.0


# --------------------------------------------------------------------- 6

def test_criterion_6_anonymization_fixture():
    t0 = time.perf_counter()
    sentence = ("Serine at position 986 of WT1 may be an independent genetic "
                "predictor of angiographic CAD.")
    wt1 = sentence.index("WT1")
    cad = sentence.index("CAD")
    out = anonymize_entities(sentence, [(wt1, wt1 + 3, "GENE"),
                                        (cad, cad + 3, "DISEASE")])
    expected = ("Serine at position 986 of @GENE$ may be an independent genetic "
                "predictor of angiographic @DISEASE$.")
    elapsed = time.perf_counter() - t0
    _report(6, out == expected, elapsed, "verbatim reference sentence")
    assert out == expected


# --------------------------------------------------------------------- 7

def test_criterion_7_checkpoint_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    for i in range(50):
        cfg = EncoderConfig(vocab_size=int(rng.integers(7, 40)), hidden=8,
                            layers=int(rng.integers(1, 3)), heads=2,
                            ff_dim=int(rng.integers(4, 24)), max_positions=7,
                            seed=int(rng.integers(10_000)))
        store = init_weights(cfg)
        store.metadata["vocab_fingerprint"] = f"fp{i}"
        data = roundtrip_bytes(store)
        loaded = load_checkpoint(io.BytesIO(data))
        assert loaded.config == store.config
        assert loaded.metadata == store.metadata
        for name in store.tensors:
            assert np.array_equal(loaded.tensors[name], store.tensors[name])

    reference = roundtrip_bytes(init_weights(EncoderConfig(
        vocab_size=11, hidden=8, layers=1, heads=2, ff_dim=12, max_positions=6)))
    corrupted = bytearray(reference)
    corrupted[:4] = b"ZZZZ"
    with pytest.raises(FormatError):
        load_checkpoint(io.BytesIO(bytes(corrupted)))
    with pytest.raises(CorruptionError):
        load_checkpoint(io.BytesIO(reference[:len(reference) // 3]))
    shape_bad = bytearray(reference)
    pos = shape_bad.find(b"embeddings.segment")
    dims_at = pos + len(b"embeddings.segment") + 4
    shape_bad[dims_at:dims_at + 8] = (5).to_bytes(8, "little")
    with pytest.raises(CorruptionError):
        load_checkpoint(io.BytesIO(bytes(shape_bad)))
    elapsed = time.perf_counter() - t0
    _report(7, elapsed < 10.0, elapsed, "50 stores bit-identical; 3 corruption classes")
    assert elapsed < 10.0


# ----------------------------------------------------------------- 8 & 9

REFERENCE_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def adaptation_reference(tmp_path_factory):
    """Five-seed reference pipeline shared by criteria 8 and 9."""
    tmp = tmp_path_factory.mktemp("adaptation")
    t0 = time.perf_counter()
    generate_fixtures(FixtureRecipe(), 42, tmp)
    vocab = load_vocabulary_file(tmp / "vocab.txt")
    train = load_ner_dataset(tmp / "ner_train.conll")
    dev = load_ner_dataset(tmp / "ner_dev.conll")
    test = load_ner_dataset(tmp / "ner_test.conll")
    scheme = TagScheme(("GENE",))

    results = {"general": [], "domain": [], "first": []}
    for seed in REFERENCE_SEEDS:
        encoder = EncoderConfig(vocab_size=len(vocab), hidden=64, layers=2, heads=4,
                                ff_dim=128, max_positions=40, dropout=0.0, seed=seed)
        general_cfg = PretrainConfig(steps=400, batch_size=16, max_len=32,
                                     learning_rate=2e-3, warmup_fraction=0.05,
                                     masking=MaskingPolicy(seed=seed), seed=seed,
                                     encoder=encoder)
        general, _ = train_mlm(tmp / "general_corpus.txt", general_cfg, vocab)
        domain_cfg = PretrainConfig(steps=3000, batch_size=16, max_len=32,
                                    learning_rate=2e-3, warmup_fraction=0.05,
                                    masking=MaskingPolicy(seed=seed + 1),
                                    seed=seed + 5000, checkpoint_interval=750)
        ckpt_dir = tmp / f"ckpt_{seed}"
        domain, _ = train_mlm(tmp / "domain_corpus.txt", domain_cfg, vocab,
                              init=general, out_dir=ckpt_dir)
        first = load_checkpoint_file(ckpt_dir / "step_000750.ckpt")

        ft_cfg = FinetuneConfig(batch_size=8, learning_rate=3e-4, epochs=30,
                                seed=seed, max_len=40, allow_nonstandard=True)
        for arm, init in (("general", general), ("domain", domain), ("first", first)):
            result = finetune("ner", train, dev, init, ft_cfg, vocab, scheme=scheme)
            report = evaluate_ner(result.weights, test, vocab, scheme, 40,
                                  dataset_name="ner_test")
            results[arm].append(report.micro["f1"])
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_8_domain_adaptation_analog(adaptation_reference):
    r = adaptation_reference
    med_general = float(np.median(r["general"]))
    med_domain = float(np.median(r["domain"]))
    margin = med_domain - med_general
    ok = med_domain > med_general and margin >= 0.10 and r["elapsed"] < 600.0
    _report(8, ok, r["elapsed"],
            f"median F1 domain-continued {med_domain:.3f} vs general-only "
            f"{med_general:.3f} over {len(REFERENCE_SEEDS)} seeds")
    # direction is the claim; the margin band (reference run: 0.317) is
    # regression tracking, not a literature claim
    assert med_domain > med_general
    assert margin >= 0.10
    assert r["elapsed"] < 600.0


def test_criterion_9_checkpoint_trend_analog(adaptation_reference):
    r = adaptation_reference
    med_first = float(np.median(r["first"]))
    med_final = float(np.median(r["domain"]))
    ok = med_final >= med_first and (med_final - med_first) >= 0.10 and r["elapsed"] < 600.0
    _report(9, ok, r["elapsed"],
            f"median F1 final checkpoint {med_final:.3f} vs first saved "
            f"{med_first:.3f}")
    # direction per the trend claim; band pinned from the reference run (0.410)
    assert med_final >= med_first
    assert med_final - med_first >= 0.10
    assert r["elapsed"] < 600.0


# -------------------------------------------------------------------- 10

def test_criterion_10_unanswerable_filtering(tmp_path):
    t0 = time.perf_counter()
    recipe = FixtureRecipe(qa_bioasq_questions=40, unanswerable_fraction=0.30)
    manifest = generate_fixtures(recipe, 9, tmp_path)
    constructed = manifest["counts"]["bioasq_unanswerable"]
    assert constructed == 12  # 30% of 40, exact by construction

    import json
    questions = json.loads((tmp_path / "qa_bioasq.json").read_text())["questions"]
    passages = json.loads((tmp_path / "qa_passages.json").read_text())
    examples, dropped, skipped = bioasq_to_extractive(questions, passages)
    assert skipped == 0
    assert dropped == constructed

    # the same exclusion through the filtering operation
    from adaptlm.data import QAExample
    candidates = [QAExample(q["id"], q["body"], passages[q["documents"][0]],
                            gold_answers=tuple(q["exact_answer"][0]))
                  for q in questions]
    kept, filtered = filter_unanswerable(candidates)
    elapsed = time.perf_counter() - t0
    ok = filtered == constructed and len(kept) == 40 - constructed and elapsed < 5.0
    _report(10, ok, elapsed, f"dropped {dropped} of 40 (constructed {constructed})")
    assert filtered == constructed
    assert len(kept) == 40 - constructed
    assert elapsed < 5.0