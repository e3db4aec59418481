import numpy as np
import pytest

from adaptlm.data import LabeledSentence, QAExample, RelationExample, RelationLabelSet
from adaptlm import encoder, heads
from adaptlm.encoder import (EncoderConfig, forward_arrays, init_head, init_weights,
                             train_step)
from adaptlm.errors import ConfigError, InputError, NoAnswerError, TransferError
from adaptlm.heads import (FinetuneConfig, admissible_positions, align_labels,
                           anonymize_entities, encode_windows, extract_span,
                           filter_unanswerable, finetune, head_logits, ner_decode,
                           predict_ner, predict_qa, predict_re)
from adaptlm.metrics import normalize_answer, spans_from_tags
from adaptlm.pretrain import IGNORE_LABEL, seed_stream
from adaptlm.tags import TagScheme, is_valid_bioes
from adaptlm.tokenizer import batch_arrays, encode_sequence
from adaptlm.vocab import Vocabulary

SCHEME = TagScheme(("D", "G"))


def test_tag_scheme_ids():
    assert SCHEME.tag_id("O") == 0
    assert SCHEME.tag(SCHEME.tag_id("S-G")) == "S-G"
    assert len(SCHEME) == 9
    with pytest.raises(InputError):
        SCHEME.tag_id("S-X")


def test_align_labels_first_subtoken_carries(mini_vocab):
    sentence = LabeledSentence(("Immunoglobulin", "binding"), ("S-G", "O"))
    encoded = encode_sequence(" ".join(sentence.words), None, mini_vocab, 16)
    scheme = TagScheme(("G",))
    labels = align_labels(sentence, encoded, scheme)
    real = [int(l) for l in labels if l != IGNORE_LABEL]
    assert real == [scheme.tag_id("S-G"), scheme.tag_id("O")]
    # the seven pieces of the first word carry the tag once, then ignores
    assert labels[1] == scheme.tag_id("S-G")
    assert all(labels[i] == IGNORE_LABEL for i in range(2, 8))
    assert labels[0] == IGNORE_LABEL  # [CLS]


def test_align_labels_all_o_passthrough(toy_vocab):
    sentence = LabeledSentence(("a", "b", "c"), ("O", "O", "O"))
    encoded = encode_sequence("a b c", None, toy_vocab, 8)
    labels = align_labels(sentence, encoded, SCHEME)
    assert [int(l) for l in labels if l != IGNORE_LABEL] == [0, 0, 0]


def test_align_labels_specials_ignored(toy_vocab):
    sentence = LabeledSentence(("a",), ("O",))
    encoded = encode_sequence("a", None, toy_vocab, 6)
    labels = align_labels(sentence, encoded, SCHEME)
    assert labels[0] == IGNORE_LABEL
    assert all(labels[i] == IGNORE_LABEL for i in range(2, 6))


def test_align_labels_mismatch_is_error(toy_vocab):
    sentence = LabeledSentence(("a",), ("O",))
    encoded = encode_sequence("a b c", None, toy_vocab, 8)
    with pytest.raises(InputError, match="word"):
        align_labels(sentence, encoded, SCHEME)


def _logits_for(tags, encoded, scheme):
    """One-hot logits placing each word's tag at its first subtoken."""
    logits = np.zeros((len(encoded), len(scheme)))
    seen = set()
    w_tags = dict(enumerate(tags))
    for pos in range(len(encoded)):
        w = int(encoded.word_index[pos])
        if w < 0 or not encoded.mask[pos] or w in seen:
            continue
        logits[pos, scheme.tag_id(w_tags[w])] = 5.0
        seen.add(w)
    return logits


def test_ner_decode_argmax_identity(toy_vocab):
    encoded = encode_sequence("a b c", None, toy_vocab, 8)
    logits = _logits_for(["B-D", "E-D", "O"], encoded, SCHEME)
    assert ner_decode(logits, encoded, SCHEME, 3) == ["B-D", "E-D", "O"]


def test_ner_decode_repairs_lone_inside(toy_vocab):
    encoded = encode_sequence("a", None, toy_vocab, 6)
    logits = _logits_for(["I-D"], encoded, SCHEME)
    assert ner_decode(logits, encoded, SCHEME, 1) == ["S-D"]


def test_ner_decode_always_valid_on_random_logits(toy_vocab, rng):
    encoded = encode_sequence("a b c d e f g", None, toy_vocab, 12)
    for _ in range(200):
        logits = rng.standard_normal((12, len(SCHEME)))
        tags = ner_decode(logits, encoded, SCHEME, 7)
        assert len(tags) == 7
        assert is_valid_bioes(tags), tags
        spans_from_tags(tags)


def test_ner_decode_truncated_words_are_o(toy_vocab):
    encoded = encode_sequence("a b c d e f g h i j", None, toy_vocab, 6)
    logits = np.zeros((6, len(SCHEME)))
    tags = ner_decode(logits, encoded, SCHEME, 10)
    assert len(tags) == 10
    assert all(t == "O" for t in tags[4:])


PAPER_SENTENCE = ("Serine at position 986 of WT1 may be an independent genetic "
                  "predictor of angiographic CAD.")
PAPER_ANONYMIZED = ("Serine at position 986 of @GENE$ may be an independent genetic "
                    "predictor of angiographic @DISEASE$.")


def test_anonymize_reproduces_reference_sentence():
    wt1 = PAPER_SENTENCE.index("WT1")
    cad = PAPER_SENTENCE.index("CAD")
    spans = [(wt1, wt1 + 3, "GENE"), (cad, cad + 3, "DISEASE")]
    assert anonymize_entities(PAPER_SENTENCE, spans) == PAPER_ANONYMIZED


def test_anonymize_empty_spans_identity():
    assert anonymize_entities("unchanged text", []) == "unchanged text"


def test_anonymize_overlap_and_bounds_errors():
    with pytest.raises(InputError, match="overlap"):
        anonymize_entities("abcdef", [(0, 3, "A"), (2, 5, "B")])
    with pytest.raises(InputError, match="bounds"):
        anonymize_entities("abc", [(1, 9, "A")])


def test_anonymize_length_identity(rng):
    text = "the quick brown fox jumps over the lazy dog"
    spans = [(4, 9, "GENE"), (16, 19, "DISEASE")]
    out = anonymize_entities(text, spans)
    expected_len = (len(text) - sum(e - s for s, e, _ in spans)
                    + sum(len(f"@{t}$") for _, _, t in spans))
    assert len(out) == expected_len


def test_re_forward_shapes_and_ties(tiny_weights, toy_vocab):
    labels = RelationLabelSet(("negative", "positive", "other"))
    weights = tiny_weights.clone()
    weights.tensors.update(init_head(weights.config, "re", 3, seed=0))
    weights.tensors["head.re.weight"][:] = 0.0
    weights.tensors["head.re.bias"][:] = 0.0
    pooled = np.ones((4, weights.config.hidden), dtype=np.float32)
    logits = head_logits(pooled, weights, "re", len(labels.labels))
    assert logits.shape == (4, 3)
    # zero head -> uniform logits -> first-wins tie break
    assert np.all(logits.argmax(axis=1) == 0)
    weights.tensors["head.re.bias"][2] = 9.0
    assert np.all(head_logits(pooled, weights, "re", 3).argmax(axis=1) == 2)


# --- span extraction ---

@pytest.fixture
def pair_encoding(toy_vocab):
    return encode_sequence("a", "b c d", toy_vocab, 12)


def _enumerate_ranked(start, end, encoded, cap, n_best):
    """Top n_best admissible (i, j) pairs by exhaustive enumeration, ordered
    by (-score, i, j)."""
    ok = np.flatnonzero(admissible_positions(encoded))
    keys = []
    for i in ok:
        for j in ok:
            if j < i or j - i + 1 > cap:
                continue
            keys.append((-(start[i] + end[j]), int(i), int(j)))
    return [(i, j) for _, i, j in sorted(keys)[:n_best]]


def _enumerate_best(start, end, encoded, cap):
    ranked = _enumerate_ranked(start, end, encoded, cap, 1)
    return ranked[0] if ranked else None


def test_extract_span_hand_example(pair_encoding):
    passage_pos = np.flatnonzero(admissible_positions(pair_encoding))
    assert len(passage_pos) == 3
    start = np.full(12, -50.0)
    end = np.full(12, -50.0)
    start[passage_pos] = [0.1, 2.0, 0.3]
    end[passage_pos] = [0.2, 0.1, 1.5]
    best, ranked = extract_span(start, end, pair_encoding)
    assert (best.start, best.end) == (passage_pos[1], passage_pos[2])
    assert best.text == "c d"
    assert _enumerate_best(start, end, pair_encoding, 30) == (best.start, best.end)


def test_extract_span_point_mass(pair_encoding):
    passage_pos = np.flatnonzero(admissible_positions(pair_encoding))
    start = np.full(12, -50.0)
    end = np.full(12, -50.0)
    k = passage_pos[1]
    start[k] = 10.0
    end[k] = 10.0
    best, _ = extract_span(start, end, pair_encoding)
    assert (best.start, best.end) == (k, k)
    assert best.text == "c"


def test_extract_span_matches_enumeration_random(pair_encoding, toy_vocab, rng):
    long_encoding = encode_sequence("a", " ".join("abcd"[k % 4] for k in range(12)),
                                    toy_vocab, 24)
    for trial in range(600):
        encoded, length = ((pair_encoding, 12), (long_encoding, 24))[trial % 2]
        start = rng.standard_normal(length)
        end = rng.standard_normal(length)
        if trial % 3:
            # one decimal: many equal scores, so the tie-break decides
            start, end = np.round(start, 1), np.round(end, 1)
        if trial % 4 == 1:
            start, end = start.astype(np.float32), end.astype(np.float32)
        cap = int(rng.integers(1, 8))
        n_best = int(rng.integers(1, 12))
        best, ranked = extract_span(start, end, encoded,
                                    max_answer_subtokens=cap, n_best=n_best)
        assert _enumerate_best(start, end, encoded, cap) == (best.start, best.end)
        assert ([(r.start, r.end) for r in ranked]
                == _enumerate_ranked(start, end, encoded, cap, n_best))
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)


def test_extract_span_cap_one_is_single_token(pair_encoding, rng):
    for _ in range(50):
        best, _ = extract_span(rng.standard_normal(12), rng.standard_normal(12),
                               pair_encoding, max_answer_subtokens=1)
        assert best.start == best.end


def test_extract_span_no_admissible_pair(toy_vocab):
    encoded = encode_sequence("a b", None, toy_vocab, 8)  # no passage segment
    with pytest.raises(NoAnswerError):
        extract_span(np.zeros(8), np.zeros(8), encoded)


def test_encode_windows_cover_long_passage(toy_vocab):
    passage = " ".join(["b"] * 40)
    windows = encode_windows("a", passage, toy_vocab, max_len=12, doc_stride=4)
    assert len(windows) > 1
    covered = set()
    for w in windows:
        for pos in np.flatnonzero(admissible_positions(w)):
            covered.add(w.offsets[pos])
    assert len(covered) == 40  # every passage token reachable in some window


def test_encode_windows_cover_long_passage_at_default_knobs(toy_vocab):
    config = FinetuneConfig()
    windows = encode_windows("a b c", " ".join(["b"] * 191), toy_vocab,
                             config.max_len, config.doc_stride)
    covered = {w.offsets[pos] for w in windows for pos in np.flatnonzero(admissible_positions(w))}
    assert len(covered) == 191


def test_filter_unanswerable():
    keep = QAExample("k", "q?", "eruptions of erythrasma seen", gold_answers=("erythrasma",))
    keep_case = QAExample("c", "q?", "ERYTHRASMA!", gold_answers=("erythrasma",))
    drop = QAExample("d", "q?", "nothing relevant", gold_answers=("erythrasma",))
    kept, dropped = filter_unanswerable([keep, keep_case, drop])
    assert [e.id for e in kept] == ["k", "c"]
    assert dropped == 1


# --- fine-tuning ---

def _ner_fixture(n=16):
    words_pool = ["aa", "bb", "cc", "dd"]
    sentences = []
    rng = np.random.default_rng(5)
    for i in range(n):
        entity = ["ab", "abc"][i % 2]
        filler = [words_pool[int(rng.integers(4))] for _ in range(3)]
        words = filler[:2] + [entity] + filler[2:]
        tags = ["O", "O", "S-D", "O"]
        sentences.append(LabeledSentence(tuple(words), tuple(tags)))
    return sentences


@pytest.fixture(scope="module")
def ft_vocab():
    entries = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
               "a", "b", "c", "d", "ab", "abc", "aa", "bb", "cc", "dd",
               "##a", "##b", "##c", "##d", ".", ","]
    return Vocabulary(tuple(entries))


@pytest.fixture(scope="module")
def ft_init(ft_vocab):
    cfg = EncoderConfig(vocab_size=len(ft_vocab), hidden=32, layers=2, heads=2,
                        ff_dim=64, max_positions=16, dropout=0.0, seed=11)
    store = init_weights(cfg)
    store.metadata["vocab_fingerprint"] = ft_vocab.fingerprint()
    return store


def _ft_config(**kw):
    defaults = dict(batch_size=8, learning_rate=1e-3, epochs=25, seed=4,
                    max_len=12, allow_nonstandard=True)
    defaults.update(kw)
    return FinetuneConfig(**defaults)


def test_finetune_memorizes_toy_ner(ft_vocab, ft_init):
    scheme = TagScheme(("D",))
    train = _ner_fixture()
    result = finetune("ner", train, train, ft_init, _ft_config(), ft_vocab,
                      scheme=scheme)
    assert result.report.primary_metric() >= 0.95
    assert "head.ner.weight" in result.weights.tensors


def test_finetune_deterministic(ft_vocab, ft_init):
    scheme = TagScheme(("D",))
    train = _ner_fixture(8)
    cfg = _ft_config(epochs=3)
    r1 = finetune("ner", train, train, ft_init, cfg, ft_vocab, scheme=scheme)
    r2 = finetune("ner", train, train, ft_init, cfg, ft_vocab, scheme=scheme)
    assert r1.report.to_json() == r2.report.to_json()
    for name in r1.weights.tensors:
        assert np.array_equal(r1.weights.tensors[name], r2.weights.tensors[name])


def test_finetune_zero_epochs_is_fresh_head_over_init(ft_vocab, ft_init):
    scheme = TagScheme(("D",))
    train = _ner_fixture(6)
    result = finetune("ner", train, train, ft_init, _ft_config(epochs=0),
                      ft_vocab, scheme=scheme)
    # reconstruct the untrained model: encoder weights untouched, head from
    # the derived sub-stream seed
    expected = ft_init.clone()
    head_seed = int(seed_stream(4, "finetune.init").integers(0, 2**31 - 1))
    expected.tensors.update(init_head(expected.config, "ner", len(scheme), head_seed))
    for name in expected.tensors:
        assert np.array_equal(result.weights.tensors[name], expected.tensors[name]), name
    pred = predict_ner(result.weights, train, ft_vocab, scheme, 12)
    pred2 = predict_ner(expected, train, ft_vocab, scheme, 12)
    assert pred == pred2


def test_finetune_vocab_mismatch_is_transfer_error(ft_vocab, ft_init):
    bad = ft_init.clone()
    bad.metadata["vocab_fingerprint"] = "0" * 64
    with pytest.raises(TransferError):
        finetune("ner", _ner_fixture(4), _ner_fixture(4), bad, _ft_config(),
                 ft_vocab, scheme=TagScheme(("D",)))


def test_finetune_empty_train_is_input_error(ft_vocab, ft_init):
    with pytest.raises(InputError):
        finetune("ner", [], _ner_fixture(2), ft_init, _ft_config(), ft_vocab,
                 scheme=TagScheme(("D",)))


def test_unknown_task_or_missing_label_space_is_config_error(ft_vocab, ft_init):
    weights = ft_init.clone()
    weights.tensors.update(init_head(weights.config, "ner", 5, seed=3))
    data, config = _ner_fixture(2), _ft_config()
    with pytest.raises(ConfigError, match="unknown task 'xyz'"):
        heads.evaluate("xyz", weights, data, ft_vocab, config)
    with pytest.raises(ConfigError, match="ner needs a TagScheme"):
        heads.evaluate("ner", weights, data, ft_vocab, config)
    labels = RelationLabelSet(("negative", "positive"))
    with pytest.raises(ConfigError, match="ner needs a TagScheme"):
        heads.evaluate("ner", weights, data, ft_vocab, config, labels=labels)
    with pytest.raises(ConfigError, match="re needs a RelationLabelSet"):
        finetune("re", data, data, ft_init, config, ft_vocab, scheme=TagScheme(("D",)))
    with pytest.raises(ConfigError, match="unknown task 'xyz'"):
        finetune("xyz", data, data, ft_init, config, ft_vocab)
    # either keyword carries the label space of the task's kind
    by_scheme = heads.evaluate("ner", weights, data, ft_vocab, config, scheme=TagScheme(("D",)))
    by_labels = heads.evaluate("ner", weights, data, ft_vocab, config, labels=TagScheme(("D",)))
    assert by_scheme.to_json() == by_labels.to_json()


def test_finetune_grid_validation():
    with pytest.raises(ConfigError):
        FinetuneConfig(batch_size=7).validate()
    with pytest.raises(ConfigError):
        FinetuneConfig(learning_rate=2e-4).validate()
    FinetuneConfig(batch_size=7, learning_rate=2e-4, allow_nonstandard=True).validate()
    FinetuneConfig(batch_size=32, learning_rate=5e-5).validate()


def test_finetune_re_runs_and_reports(ft_vocab, ft_init):
    # the init also carries an NER head, which RE fine-tuning must leave alone
    init = ft_init.clone()
    init.tensors.update(init_head(init.config, "ner", 9, seed=3))
    labels = RelationLabelSet(("negative", "positive"))
    examples = [RelationExample(f"r{i}", f"{'ab' if i % 2 else 'abc'} aa bb",
                                "positive" if i % 2 else "negative")
                for i in range(12)]
    result = finetune("re", examples, examples, init,
                      _ft_config(epochs=30), ft_vocab, labels=labels)
    assert result.report.task == "re"
    assert result.report.primary_metric() >= 0.9
    for name in ("head.ner.weight", "head.ner.bias"):
        assert result.weights.tensors[name].tobytes() == init.tensors[name].tobytes(), name
    preds = predict_re(result.weights, examples, ft_vocab, labels, 12)
    assert len(preds) == 12


def _qa_fixture(n, answerable=True):
    out = []
    for i in range(n):
        term = ["ab", "abc"][i % 2]
        passage = f"aa {term} bb cc"
        start = passage.index(term)
        out.append(QAExample(f"q{i}", "a b ?", passage,
                             answers=((term, start),), gold_answers=(term,)))
    return out


def test_finetune_qa_with_intermediate_phase_logged(ft_vocab, ft_init):
    target = _qa_fixture(6)
    warmup = _qa_fixture(4)
    result = finetune("qa", target, target, ft_init,
                      _ft_config(epochs=4, max_len=14), ft_vocab,
                      intermediate=warmup)
    phases = [r["phase"] for r in result.log if r.get("event") == "start"]
    assert phases == ["intermediate", "target"]
    epochs_by_phase = {}
    for record in result.log:
        if "epoch" in record and record["phase"] != "init":
            epochs_by_phase.setdefault(record["phase"], []).append(record["epoch"])
    assert epochs_by_phase["intermediate"] == [1, 2, 3, 4]
    assert epochs_by_phase["target"] == [1, 2, 3, 4]
    assert result.report.task == "qa"


@pytest.mark.parametrize("task", ["ner", "re", "qa"])
def test_train_step_head_gradients_match_finite_differences(ft_vocab, task):
    cfg = EncoderConfig(vocab_size=len(ft_vocab), hidden=8, layers=1, heads=2, ff_dim=16,
                        max_positions=12, dropout=0.0, init_std=0.5, seed=5)
    store = init_weights(cfg)
    relations = [RelationExample(f"r{i}", text, label) for i, (text, label) in enumerate(
        [("ab aa bb", "positive"), ("abc cc", "negative"), ("aa ab dd bb", "positive")])]
    data, space, max_len = {"ner": (_ner_fixture(3), TagScheme(("D",)), 8),
                            "re": (relations, RelationLabelSet(("negative", "positive")), 8),
                            "qa": (_qa_fixture(3), None, 12)}[task]
    spec = heads.TASKS[task]
    encodings, targets = zip(*spec.prepare(data, ft_vocab, _ft_config(max_len=max_len), space))
    store.tensors.update(init_head(cfg, task, spec.width(space), seed=9))
    weights = store.astype(np.float64)
    read, head = spec.head(weights, task, encodings, targets)
    _, grads = train_step(weights, encodings, head, read=read)
    assert set(grads) == set(weights.tensors)
    arrays = batch_arrays(encodings)

    def loss():
        return head(forward_arrays(weights, *arrays, read=read))[0]

    step = 1e-3
    for name, analytic in grads.items():
        arr = weights.tensors[name]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss()
            arr[idx] = orig - step
            down = loss()
            arr[idx] = orig
            fd[idx] = (up - down) / (2 * step)
        diff = float(np.linalg.norm(analytic - fd))
        ref = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
        assert diff <= 1e-8 + 1e-4 * ref, f"{name}: |d|={diff:.3e} ref={ref:.3e}"


def _merged_answers(candidates, n_best):
    candidates.sort(key=lambda sp: (-sp.score, sp.start, sp.end))
    answers = []
    for cand in candidates:
        if normalize_answer(cand.text) not in map(normalize_answer, answers):
            answers.append(cand.text)
    return answers[:n_best]


def test_predict_qa_batches_windows_across_examples(ft_vocab, ft_init, monkeypatch):
    weights = ft_init.clone()
    weights.tensors.update(init_head(weights.config, "qa", 2, seed=7))
    config = _ft_config(max_len=12, doc_stride=2, n_best=3, max_answer_subtokens=4)
    words = ["aa", "ab", "bb", "abc", "cc", "dd"]
    examples = [QAExample(f"q{n}", "a b ?", " ".join(words[k % 6] for k in range(n)))
                for n in (3, 40, 9, 25, 7)]
    windows = [encode_windows(ex.question, ex.passage, ft_vocab, config.max_len,
                              config.doc_stride) for ex in examples]
    counts = [len(w) for w in windows]
    assert len(set(counts)) == len(counts) and sum(counts) > heads.EVAL_BATCH_SIZE

    batched = []

    def recording_forward(*args, **kwargs):
        hidden = forward_arrays(*args, **kwargs)
        batched.append(hidden)
        return hidden

    monkeypatch.setattr(heads, "forward_arrays", recording_forward)
    predicted = predict_qa(weights, examples, ft_vocab, config)
    monkeypatch.undo()

    # two forwards at the encoding length
    n_windows = sum(counts)
    assert [h.shape[:2] for h in batched] == [
        (heads.EVAL_BATCH_SIZE, config.max_len),
        (n_windows - heads.EVAL_BATCH_SIZE, config.max_len)]
    batched_rows = (row for hidden in batched for row in head_logits(hidden, weights, "qa", 2))
    expected = []
    for ex_windows in windows:
        candidates = []
        for window in ex_windows:
            alone = forward_arrays(weights, *batch_arrays([window]),
                                   read=admissible_positions(window)[None])
            logits = head_logits(alone, weights, "qa", 2)[0]
            assert logits.shape == (config.max_len, 2)
            np.testing.assert_allclose(next(batched_rows), logits, rtol=1e-5, atol=1e-5)
            _, ranked = extract_span(logits[:, 0], logits[:, 1], window,
                                     config.max_answer_subtokens, config.n_best)
            candidates.extend(ranked)
        expected.append(_merged_answers(candidates, config.n_best))
    assert predicted == expected
    assert all(answers for answers in expected)


def test_qa_runs_the_last_layer_at_admissible_positions_only(ft_vocab, ft_init, monkeypatch):
    """QA training and predict_qa read the admissible positions, so the last
    layer computes there only, and they score as forwards that read every
    position do."""
    weights = ft_init.clone()
    weights.tensors.update(init_head(weights.config, "qa", 2, seed=7))
    config = _ft_config(max_len=12, doc_stride=2, n_best=3, max_answer_subtokens=4)
    kept = []  # the last layer's keep mask of each forward

    def recording_forward(*args, **kwargs):
        states, cache = forward_arrays(*args, **{**kwargs, "return_cache": True})
        kept.append(cache["keep"])
        return (states, cache) if kwargs.get("return_cache") else states

    def reading_every_position(*args, read, **kwargs):
        return forward_arrays(*args, **kwargs)

    spec = heads.TASKS["qa"]
    encodings, targets = zip(*spec.prepare(_qa_fixture(4), ft_vocab, config, None))
    read, head = spec.head(weights, "qa", encodings, targets)
    admissible = np.stack([admissible_positions(e) for e in encodings])
    assert np.array_equal(read, admissible)
    assert 0 < admissible.sum() < batch_arrays(encodings)[2].sum()
    monkeypatch.setattr(encoder, "forward_arrays", recording_forward)
    loss, grads = train_step(weights, encodings, head, read=read)
    monkeypatch.undo()
    [keep] = kept
    assert keep.sum() == admissible.sum()
    full_loss, full_grads = train_step(weights, encodings, head)
    assert loss == pytest.approx(full_loss, rel=1e-6)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, full_grads[name], rtol=1e-4, atol=1e-7, err_msg=name)

    words = ["aa", "ab", "bb", "abc", "cc", "dd"]
    examples = [QAExample(f"q{n}", "a b ?", " ".join(words[k % 6] for k in range(n)))
                for n in (3, 40, 9)]
    windows = [w for ex in examples
               for w in encode_windows(ex.question, ex.passage, ft_vocab, config.max_len,
                                       config.doc_stride)]
    kept.clear()
    monkeypatch.setattr(heads, "forward_arrays", recording_forward)
    predicted = predict_qa(weights, examples, ft_vocab, config)
    assert sum(int(keep.sum()) for keep in kept) == sum(
        int(admissible_positions(w).sum()) for w in windows)
    monkeypatch.setattr(heads, "forward_arrays", reading_every_position)
    assert predicted == predict_qa(weights, examples, ft_vocab, config)
    assert all(predicted)


def test_finetune_qa_learns_toy_task(ft_vocab, ft_init):
    data = _qa_fixture(8)
    result = finetune("qa", data, data, ft_init,
                      _ft_config(epochs=15, max_len=14), ft_vocab)
    assert result.report.primary_metric() >= 0.9
