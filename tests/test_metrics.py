import json

import numpy as np
import pytest

from adaptlm.errors import ConfigError, InputError
from adaptlm.metrics import (EntitySpan, EvalReport, classification_prf, entity_prf,
                             micro_average, normalize_answer, pool_qa_tallies, qa_metrics,
                             score, spans_from_tags)
from adaptlm.tags import bio_to_bioes, is_valid_bioes, repair_bioes


def test_spans_from_tags_examples():
    assert spans_from_tags(["B-D", "E-D", "O", "S-G"]) == {
        EntitySpan(0, 1, "D"), EntitySpan(3, 3, "G")}
    assert spans_from_tags(["O", "O", "O"]) == set()


def test_spans_from_tags_rejects_invalid():
    with pytest.raises(InputError):
        spans_from_tags(["I-D"])


def _bruteforce_spans(tags):
    """Independent extractor: test every (i, j, type) window directly."""
    spans = set()
    types = {t[2:] for t in tags if t != "O"}
    n = len(tags)
    for typ in types:
        for i in range(n):
            for j in range(i, n):
                window = tags[i:j + 1]
                if i == j:
                    well_formed = window == [f"S-{typ}"]
                else:
                    well_formed = (window[0] == f"B-{typ}"
                                   and window[-1] == f"E-{typ}"
                                   and all(t == f"I-{typ}" for t in window[1:-1]))
                if well_formed:
                    spans.add(EntitySpan(i, j, typ))
    return spans


def _random_valid_bioes(rng, types=("D", "G")):
    tags = []
    n = int(rng.integers(0, 14))
    while len(tags) < n:
        choice = rng.random()
        typ = types[int(rng.integers(len(types)))]
        if choice < 0.4:
            tags.append("O")
        elif choice < 0.6:
            tags.append(f"S-{typ}")
        else:
            run = min(int(rng.integers(2, 5)), n - len(tags))
            if run < 2:
                tags.append("O")
            else:
                tags += [f"B-{typ}"] + [f"I-{typ}"] * (run - 2) + [f"E-{typ}"]
    return tags


def test_spans_match_bruteforce_on_random_sequences(rng):
    for _ in range(400):
        tags = _random_valid_bioes(rng)
        assert is_valid_bioes(tags)
        assert spans_from_tags(tags) == _bruteforce_spans(tags), tags


def test_entity_prf_formula():
    gold = [{EntitySpan(0, 1, "D"), EntitySpan(3, 3, "G")}]
    pred = [{EntitySpan(0, 1, "D")}]
    p, r, f1, counts = entity_prf(gold, pred)
    assert (p, r) == (1.0, 0.5)
    assert abs(f1 - 2 / 3) < 1e-12
    assert counts == {"tp": 1, "fp": 0, "fn": 1}


def test_entity_prf_exact_match_only():
    gold = [{EntitySpan(0, 1, "D")}]
    pred = [{EntitySpan(0, 2, "D")}]
    p, r, f1, _ = entity_prf(gold, pred)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    # type mismatch gets zero credit as well
    pred = [{EntitySpan(0, 1, "G")}]
    assert entity_prf(gold, pred)[2] == 0.0


def test_entity_prf_vacuous_agreement():
    assert entity_prf([set(), set()], [set(), set()])[:3] == (1.0, 1.0, 1.0)


def test_entity_prf_symmetry(rng):
    for _ in range(50):
        gold = [_bruteforce_spans(_random_valid_bioes(rng)) for _ in range(3)]
        pred = [_bruteforce_spans(_random_valid_bioes(rng)) for _ in range(3)]
        p1, r1, f1a, _ = entity_prf(gold, pred)
        p2, r2, f1b, _ = entity_prf(pred, gold)
        assert (p1, r1) == (r2, p2)
        assert abs(f1a - f1b) < 1e-12


def _bruteforce_prf(gold, pred):
    tp = sum(1 for g, p in zip(gold, pred) for s in p if s in g)
    fp = sum(1 for g, p in zip(gold, pred) for s in p if s not in g)
    fn = sum(1 for g, p in zip(gold, pred) for s in g if s not in p)
    if tp == fp == fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def test_entity_prf_matches_bruteforce(rng):
    for _ in range(100):
        gold = [_bruteforce_spans(_random_valid_bioes(rng)) for _ in range(4)]
        pred = [_bruteforce_spans(_random_valid_bioes(rng)) for _ in range(4)]
        got = entity_prf(gold, pred)[:3]
        want = _bruteforce_prf(gold, pred)
        assert np.allclose(got, want)


def test_micro_average_identity_and_formula():
    one = {"tp": 3, "fp": 1, "fn": 2}
    assert micro_average([one]) == entity_prf(
        [set(EntitySpan(i, i, "D") for i in range(5))],
        [set(EntitySpan(i, i, "D") for i in range(3)) | {EntitySpan(9, 9, "D")}])[:3]
    p, r, f1 = micro_average([{"tp": 1, "fp": 0, "fn": 1}, {"tp": 1, "fp": 1, "fn": 0}])
    assert np.allclose((p, r, f1), (2 / 3, 2 / 3, 2 / 3))


def test_classification_prf_examples():
    assert classification_prf(["p", "n", "p"], ["p", "n", "p"], {"p"})[:3] == (1.0, 1.0, 1.0)
    p, r, f1, _ = classification_prf(["p", "n", "p"], ["n", "n", "n"], {"p"})
    assert (r, f1) == (0.0, 0.0)
    p, r, f1, _ = classification_prf(["p", "n", "p"], ["p", "p", "n"], {"p"})
    assert (p, r, f1) == (0.5, 0.5, 0.5)
    with pytest.raises(InputError):
        classification_prf(["p"], ["p", "n"], {"p"})


def test_classification_prf_multiclass_micro():
    gold = ["a", "b", "neg", "a"]
    pred = ["a", "a", "b", "a"]
    p, r, f1, counts = classification_prf(gold, pred, {"a", "b"})
    assert counts == {"tp": 2, "fp": 2, "fn": 1}
    assert (p, r) == (0.5, 2 / 3)


def test_normalize_answer():
    assert normalize_answer("  Corynebacterium   minutissimum ") == "corynebacterium minutissimum"
    assert normalize_answer("erythrasma.") == "erythrasma"
    assert normalize_answer("") == ""


def test_qa_metrics_hand_example():
    ranked = [["x"], ["a", "x"], ["a", "b", "c", "d", "e"]]
    gold = [["X"], ["x"], ["zzz"]]
    strict, lenient, mrr, _ = qa_metrics(ranked, gold)
    assert np.allclose((strict, lenient, mrr), (1 / 3, 2 / 3, 0.5))


def test_qa_metrics_all_rank_one():
    assert qa_metrics([["a"], ["b"]], [["a"], ["b"]])[:3] == (1.0, 1.0, 1.0)


def test_qa_metrics_empty_ranked_list_counts_as_unanswered():
    strict, lenient, mrr, tallies = qa_metrics([[]], [["a"]])
    assert (strict, lenient, mrr) == (0.0, 0.0, 0.0)
    assert tallies["unanswered"] == 1


def test_qa_metrics_rank_beyond_n_best_ignored():
    ranked = [["w1", "w2", "w3", "w4", "w5", "gold"]]
    strict, lenient, mrr, _ = qa_metrics(ranked, [["gold"]])
    assert (strict, lenient, mrr) == (0.0, 0.0, 0.0)


def test_strict_le_mrr_le_lenient_fuzzed(rng):
    for _ in range(500):
        n_q = int(rng.integers(1, 8))
        ranked, gold = [], []
        for _ in range(n_q):
            answers = [f"a{int(rng.integers(8))}" for _ in range(int(rng.integers(0, 7)))]
            ranked.append(answers)
            gold.append([f"a{int(rng.integers(8))}"])
        strict, lenient, mrr, _ = qa_metrics(ranked, gold)
        assert strict <= mrr + 1e-12
        assert mrr <= lenient + 1e-12
        assert 0.0 <= strict and lenient <= 1.0


def test_pool_qa_tallies_matches_pooled_questions(rng):
    ranked1, gold1 = [["a"], ["b", "z"]], [["a"], ["q"]]
    ranked2, gold2 = [["x", "y"]], [["y"]]
    *_, t1 = qa_metrics(ranked1, gold1)
    *_, t2 = qa_metrics(ranked2, gold2)
    pooled = pool_qa_tallies([t1, t2])
    direct = qa_metrics(ranked1 + ranked2, gold1 + gold2)[:3]
    assert np.allclose(pooled, direct)


def test_report_json_fields_and_f1_identity():
    report = EvalReport(task="ner", provenance="fixture split v1")
    report.add_dataset("d1", {"precision": 0.5, "recall": 1.0, "f1": 2 / 3},
                       {"tp": 1, "fp": 1, "fn": 0})
    doc = json.loads(report.to_json())
    assert set(doc) == {"task", "datasets", "counts", "micro", "provenance",
                        "config_fingerprint"}
    micro = doc["micro"]
    p, r = micro["precision"], micro["recall"]
    assert abs(micro["f1"] - (2 * p * r / (p + r))) < 1e-12
    assert "d1" in report.to_table()


def test_qa_report_invariant_strict_mrr_lenient():
    report = EvalReport(task="qa")
    *_, tallies = qa_metrics([["a"], ["b", "c"]], [["a"], ["c"]])
    report.add_dataset("q", {"strict": 0.5, "lenient": 1.0, "mrr": 0.75}, tallies)
    micro = report.micro
    assert micro["strict"] <= micro["mrr"] <= micro["lenient"]


def test_repair_then_extract_is_always_valid(rng):
    kinds = ["O", "B-D", "I-D", "E-D", "S-D", "B-G", "I-G", "E-G", "S-G"]
    for _ in range(300):
        raw = [kinds[int(rng.integers(len(kinds)))] for _ in range(int(rng.integers(1, 12)))]
        repaired = repair_bioes(raw)
        assert is_valid_bioes(repaired), (raw, repaired)
        spans_from_tags(repaired)


def test_bioes_conversion_preserves_spans(rng):
    for _ in range(200):
        bioes = _random_valid_bioes(rng)
        from adaptlm.tags import bioes_to_bio
        bio = bioes_to_bio(bioes)
        assert bio_to_bioes(bio) == bioes
        assert spans_from_tags(bioes) == spans_from_tags(bio_to_bioes(bio))


def test_score_of_an_unknown_task_is_config_error():
    with pytest.raises(ConfigError, match="unknown task 'xyz'"):
        score("xyz", [["a"]], [["a"]])
