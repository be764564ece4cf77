from __future__ import annotations

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexcorpus
from lexcorpus.cleaning import split_paragraphs
from lexcorpus.corpus import Document, SourceTag, WhitespaceTokenizer
from lexcorpus.lm import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    UNK,
    UNK_ID,
    FilterReport,
    NGramLM,
    ScoreError,
    TrainingError,
    _estimate_discount,
    _look_up,
    calibrate_threshold,
    filter_by_perplexity,
    load_lm,
    perplexity,
    save_lm,
    train_lm,
)
from lexcorpus.synthdata import generate_seed_corpus


def predictable_tokens(model: NGramLM) -> list:
    """All tokens a conditional distribution ranges over (begin marker excluded)."""
    return [t for t in model.id_to_token if t != BOS]


def observed_contexts(model: NGramLM, order: int) -> list:
    """Every context seen at `order`, in the order the counts first show it."""
    contexts = dict.fromkeys(gram[:-1] for gram in model.counts[order - 1])
    return [tuple(model.id_to_token[i] for i in ctx) for ctx in contexts]


def _with_discount(model: NGramLM, discount: float) -> NGramLM:
    """The model with this discount at every order in place of its estimates."""
    return NGramLM(model.order, model.id_to_token, model.counts, [discount] * model.order)


def _mle_unigram(make_doc, tok, text):
    """Order-1 model with discounting disabled is plain maximum likelihood."""
    return _with_discount(train_lm([make_doc(text)], tok, order=1), 0.0)


def test_hand_unigram_mle(make_doc, tok):
    model = _mle_unigram(make_doc, tok, "a a b")
    assert model.probability((), "a") == pytest.approx(2 / 3, abs=1e-12)
    assert model.probability((), "b") == pytest.approx(1 / 3, abs=1e-12)


def test_hand_perplexity_sqrt_nine_halves(make_doc, tok):
    model = _mle_unigram(make_doc, tok, "a a b")
    log_probs = model.token_log_probs("a b")
    assert perplexity(log_probs) == pytest.approx(math.sqrt(9 / 2), abs=1e-9)
    assert len(log_probs) == 2


def test_uniform_model_perplexity_is_vocab_size(make_doc, tok):
    # one occurrence of each of 4 tokens -> uniform MLE unigram
    model = _mle_unigram(make_doc, tok, "w x y z")
    log_probs = model.token_log_probs("w x y z w x y z w x")
    assert len(log_probs) == 10
    assert perplexity(log_probs) == pytest.approx(4.0, abs=1e-9)


def test_perplexity_sums_the_log_probs_exactly():
    """Each tiny log-prob is below half an ulp of 20, so a running float sum
    drops all 999 of them; perplexity sums as math.fsum does."""
    assert perplexity([-20.0] + [-1e-15] * 999) == math.exp(20.000000000001 / 1000)


def test_normalization_all_orders(make_doc, tok):
    docs = generate_seed_corpus(seed=3, docs=30)
    model = train_lm(docs, tok, order=3)
    vocab = predictable_tokens(model)
    rng = random.Random(0)
    for order in (1, 2, 3):
        contexts = observed_contexts(model, order)
        for ctx in rng.sample(contexts, min(25, len(contexts))):
            total = sum(model.probability(ctx, t) for t in vocab)
            assert total == pytest.approx(1.0, abs=1e-6), (order, ctx)


def test_unknown_token_has_positive_probability(make_doc, tok):
    model = train_lm([make_doc("alpha beta gamma")], tok, order=2)
    p = model.probability((), "never-seen-token")
    assert p > 0


def test_training_deterministic(make_doc, tok):
    docs = generate_seed_corpus(seed=5, docs=10)
    a = train_lm(docs, tok, order=3)
    b = train_lm(docs, tok, order=3)
    probe = "the court held that the motion was denied"
    assert math.fsum(a.token_log_probs(probe)) == math.fsum(b.token_log_probs(probe))


def test_training_text_beats_shuffled_for_higher_orders(make_doc, tok):
    docs = generate_seed_corpus(seed=11, docs=40)
    model = train_lm(docs, tok, order=3)
    text = docs[0].text.replace("\n\n", " ")
    tokens = text.split()
    rng = random.Random(4)
    shuffled = tokens[:]
    rng.shuffle(shuffled)
    assert perplexity(model.token_log_probs(text)) < perplexity(model.token_log_probs(" ".join(shuffled)))


def test_mle_monotone_in_data(make_doc, tok):
    """Adding a paragraph to the seed never raises that paragraph's own
    (order-1, discount-0) self-perplexity."""
    base_docs = generate_seed_corpus(seed=2, docs=8)
    para = "the plaintiff moved for summary judgment on the contract claim"
    before = _with_discount(train_lm(base_docs, tok, order=1), 0.0)
    after = _with_discount(train_lm(base_docs + [make_doc(para)], tok, order=1), 0.0)
    assert perplexity(after.token_log_probs(para)) <= perplexity(before.token_log_probs(para)) + 1e-9


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_counts_are_padded_windows_and_continuation_counts(make_doc, tok, order):
    paragraphs = [["a", "b", "a", "b", "c"], ["b", "c", "a"], ["c", "c", "c"], ["a"]]
    texts = ["\n\n".join(map(" ".join, paragraphs[:2])), "\n\n\n".join(map(" ".join, paragraphs[2:]))]
    # top order: every window of a paragraph padded with order-1 begin
    # markers and one end marker, none at order 1
    pad, end = ([BOS] * (order - 1), [EOS]) if order > 1 else ([], [])
    expected = [Counter() for _ in range(order)]
    for words in paragraphs:
        seq = pad + words + end
        expected[-1].update(tuple(seq[i : i + order]) for i in range(len(seq) - order + 1))
    # lower orders: the number of distinct left extensions one order up
    for k in range(order - 1, 0, -1):
        expected[k - 1] = Counter(gram[1:] for gram in expected[k])
    model = train_lm([make_doc(text) for text in texts], tok, order=order)
    assert model.id_to_token == [UNK, BOS, EOS, "a", "b", "c"]
    words_of = model.id_to_token.__getitem__
    counts = [Counter({tuple(map(words_of, gram)): c for gram, c in table.items()}) for table in model.counts]
    assert counts == expected
    if order == 2:  # "a" follows <s>, b and c
        assert counts[0][("a",)] == 3


def test_empty_seed_rejected(tok):
    with pytest.raises(TrainingError):
        train_lm([], tok, order=2)


def test_bad_order_rejected(make_doc, tok):
    with pytest.raises(TrainingError):
        train_lm([make_doc("a b")], tok, order=0)


def test_empty_text_scores_error(make_doc, tok):
    model = _mle_unigram(make_doc, tok, "a a b")
    with pytest.raises(ScoreError):
        perplexity(model.token_log_probs("   "))


def test_serialization_roundtrip(tmp_path, tok):
    docs = generate_seed_corpus(seed=9, docs=20)
    model = train_lm(docs, tok, order=3)
    path = tmp_path / "lm.json"
    save_lm(model, path)
    loaded = load_lm(path)
    probes = [
        "the court held that",
        "completely unseen gibberish zzzqqq",
        docs[3].text.split("\n\n")[0],
    ]
    for probe in probes:
        assert math.fsum(loaded.token_log_probs(probe)) == pytest.approx(
            math.fsum(model.token_log_probs(probe)), abs=1e-9
        )


def test_failed_save_leaves_old_model(tmp_path, tok):
    model = train_lm(generate_seed_corpus(seed=9, docs=5), tok, order=2)
    path = tmp_path / "lm.json"
    save_lm(model, path)
    before = path.read_bytes()
    # the vocab comes last in the file and a lone surrogate cannot be
    # encoded, so the write fails after the counts are out
    broken = NGramLM(2, [*model.id_to_token, "\ud800"], model.counts, model.discounts)
    with pytest.raises(UnicodeEncodeError):
        save_lm(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_filter_partition_is_exact(tok):
    docs = generate_seed_corpus(seed=13, docs=25)
    model = train_lm(docs[:10], tok, order=2)
    threshold = calibrate_threshold(model, docs[:10], tok, percentile=90.0)
    kept, dropped, report = filter_by_perplexity(docs, model, tok, threshold)
    in_tokens = sum(len(tok.tokenize(d.text)) for d in docs)
    kept_tokens = sum(len(tok.tokenize(d.text)) for d in kept)
    dropped_tokens = in_tokens - kept_tokens
    by_report = sum(v["kept_tokens"] for v in report.per_source.values())
    assert by_report == kept_tokens
    assert sum(v["dropped_tokens"] for v in report.per_source.values()) == dropped_tokens


def test_filter_largest_threshold_keeps_everything(tok):
    docs = generate_seed_corpus(seed=1, docs=10)
    model = train_lm(docs, tok, order=2)
    kept, dropped, _ = filter_by_perplexity(docs, model, tok, sys.float_info.max)
    assert [d.id for d in kept] == [d.id for d in docs]
    assert dropped == []


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_filter_rejects_threshold_not_finite_and_positive(tok, threshold):
    # a report holding NaN or Infinity would not be valid JSON
    docs = generate_seed_corpus(seed=1, docs=3)
    model = train_lm(docs, tok, order=2)
    with pytest.raises(ValueError, match="finite and positive"):
        filter_by_perplexity(docs, model, tok, threshold)


def test_document_with_no_surviving_paragraph_fully_dropped(make_doc, tok):
    model = train_lm(generate_seed_corpus(seed=4, docs=15), tok, order=2)
    gibberish = "zq xv jk qq\n\nwz vx kj pp"
    doc = make_doc(gibberish)
    kept, dropped, _ = filter_by_perplexity([doc], model, tok, threshold=1.5)
    assert kept == []
    assert [d.id for d in dropped] == [doc.id]


def test_document_with_no_paragraph_kept_as_itself(make_doc, tok):
    # none of a blank or empty text is above the threshold, even one that drops gibberish
    model = train_lm(generate_seed_corpus(seed=4, docs=15), tok, order=2)
    gibberish, blank, empty = make_doc("zq xv jk qq"), make_doc(" \n\n\t "), make_doc("")
    kept, dropped, report = filter_by_perplexity([blank, gibberish, empty], model, tok, threshold=1.5)
    assert len(kept) == 2 and kept[0] is blank and kept[1] is empty
    assert [d.id for d in dropped] == [gibberish.id]
    assert (report.kept_docs, report.dropped_docs) == (2, 1)
    assert report.per_source == {"freelaw": {"kept_tokens": 0, "dropped_tokens": 4}}


def test_filter_trims_a_gibberish_paragraph_and_keeps_the_document(make_doc, tok):
    docs = generate_seed_corpus(seed=4, docs=15)
    model = train_lm(docs, tok, order=2)
    mixed = make_doc(docs[0].text + "\n\nzq xv jk qq wz vx kj pp zz yy xx ww")
    threshold = calibrate_threshold(model, docs, tok, percentile=99.0)
    kept, _, _ = filter_by_perplexity([mixed], model, tok, threshold)
    assert len(kept) == 1 and "zq xv" not in kept[0].text


# --- compiled tables against the recursion ----------------------------------


def _context_totals(model):
    """Per order, context ids -> (total count, distinct successors)."""
    out = []
    for table in model.counts:
        totals = {}
        for gram, c in table.items():
            total, distinct = totals.get(gram[:-1], (0, 0))
            totals[gram[:-1]] = (total + c, distinct + 1)
        out.append(totals)
    return out


def _reference_prob(model, totals, order, context, word):
    """Interpolated Kneser-Ney as the textbook recursion, top order down: an
    unseen context backs off to its suffix, a seen one mixes its discounted
    count with its leftover mass times the lower order."""
    if order == 1:
        d = model.discounts[0]
        c = model.counts[0].get((word,), 0)
        base = 1.0 / (len(model.id_to_token) - 1)
        total, types = totals[0].get((), (0, 0))
        if total == 0:
            return base
        reserved = d * types / total
        return max(c - d, 0.0) / total + reserved * base
    entry = totals[order - 1].get(context)
    if entry is None:
        return _reference_prob(model, totals, order - 1, context[1:], word)
    total, distinct = entry
    d = model.discounts[order - 1]
    c = model.counts[order - 1].get(context + (word,), 0)
    lower = _reference_prob(model, totals, order - 1, context[1:], word)
    return max(c - d, 0.0) / total + (d * distinct / total) * lower


@functools.lru_cache(maxsize=4)
def _vocab(model):
    return {token: idx for idx, token in enumerate(model.id_to_token)}


def _token_id(model, token):
    return _vocab(model).get(token, UNK_ID)


def _reference_log_probs(model, totals, tokens):
    context = (BOS_ID,) * (model.order - 1)
    out = []
    for token in tokens:
        w = _token_id(model, token)
        p = _reference_prob(model, totals, model.order, context, w)
        out.append(math.log(p) if p > 0.0 else float("-inf"))
        context = (context + (w,))[1:]
    return out


@pytest.mark.parametrize("discount", [None, 0.0, 0.5])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_compiled_scoring_equals_recursion_exactly(tok, order, discount):
    docs = generate_seed_corpus(seed=3, docs=30)
    model = train_lm(docs, tok, order=order)
    if discount is not None:
        model = _with_discount(model, discount)
    totals = _context_totals(model)

    paragraphs = [tok.tokenize(p) for d in docs[:6] for p in d.text.split("\n\n")]
    shuffled = [t for p in paragraphs for t in p]
    random.Random(order).shuffle(shuffled)
    paragraphs += [
        shuffled[:60],
        ["never-seen", "the", "court", "zzqx", "held", "that", "never-seen"],
        ["zzqx"],
        ["the"],
    ]
    for tokens in paragraphs:
        assert model.paragraph_log_probs(tokens) == _reference_log_probs(model, totals, tokens)

    rng = random.Random(order)
    vocab = predictable_tokens(model)
    for k in range(1, order + 1):
        for ctx in observed_contexts(model, k):
            # contexts below the top order are shorter than order - 1, so
            # probability() pads them with begin markers on the left
            ids = (BOS_ID,) * (order - 1 - len(ctx)) + tuple(_token_id(model, t) for t in ctx)
            for word in (UNK, "never-seen", rng.choice(vocab), rng.choice(vocab)):
                expected = _reference_prob(model, totals, order, ids, _token_id(model, word))
                assert model.probability(ctx, word) == expected, (k, ctx, word)

    # longer contexts are cut to the order - 1 most recent tokens, unknown ones map to <unk>
    long_ctx = ("zzqx", "the", "court", "held", "that", "never-seen")
    ids = tuple(_token_id(model, t) for t in long_ctx)[len(long_ctx) - (order - 1) :]
    for word in ("the", "court", UNK):
        expected = _reference_prob(model, totals, order, ids, _token_id(model, word))
        assert model.probability(long_ctx, word) == expected


@functools.lru_cache(maxsize=None)
def _cached_model(order, discount):
    """Trained once per (order, discount): the seed corpus plus a paragraph
    holding the markers as literal tokens, so training saw them too."""
    tok = WhitespaceTokenizer()
    docs = generate_seed_corpus(seed=3, docs=30)
    docs.append(Document(id="markers", source=docs[0].source, text="the <s> court </s> held <unk> that"))
    model = train_lm(docs, tok, order=order)
    if discount is not None:
        model = _with_discount(model, discount)
    paragraphs = [tokens for d in docs for p in d.text.split("\n\n") if (tokens := tok.tokenize(p))]
    return model, _context_totals(model), paragraphs


@pytest.mark.parametrize("discount", [None, 0.0, 0.5])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_carried_state_equals_recursion_on_any_tokens(order, discount, data):
    # Runs copied from training text reach the longest contexts; single tokens
    # from the vocabulary, unknown strings and literal markers leave them at
    # any depth. Discount 0.0 gives unseen n-grams p = 0, so log p = -inf.
    model, totals, paragraphs = _cached_model(order, discount)
    single = st.one_of(
        st.sampled_from(predictable_tokens(model)),
        st.sampled_from([BOS, EOS, UNK, "never-seen", "zzqx"]),
        st.text(alphabet="abz<>/", min_size=1, max_size=4),
    ).map(lambda t: [t])
    run = st.sampled_from(paragraphs).flatmap(
        lambda p: st.tuples(st.integers(0, len(p) - 1), st.integers(1, 8)).map(lambda ij: p[ij[0] : ij[0] + ij[1]])
    )
    chunks = data.draw(st.lists(st.one_of(single, run), max_size=12))
    tokens = [t for chunk in chunks for t in chunk]
    assert model.paragraph_log_probs(tokens) == _reference_log_probs(model, totals, tokens)
    if tokens:
        ids = tuple(_token_id(model, t) for t in tokens[:-1])
        context = ((BOS_ID,) * (order - 1) + ids)[len(ids) :]
        expected = _reference_prob(model, totals, order, context, _token_id(model, tokens[-1]))
        assert model.probability(tokens[:-1], tokens[-1]) == expected


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_look_up_of_an_unseen_string_is_the_look_up_of_unk(order):
    # the model saw <unk> as a literal token, so it has entries above node 0
    model = _cached_model(order, None)[0]
    tables, gamma, parent, _ = model._tables or model._compile()
    for node in range(len(tables)):
        assert _look_up(tables, gamma, parent, node, "never-seen") == _look_up(tables, gamma, parent, node, UNK), node


def test_counts_without_suffix_contexts_are_rejected():
    # context (3, 4) at order 3 needs the context (4,) at order 2; only (3,) is there
    id_to_token = ["<unk>", "<s>", "</s>", "a", "b", "c"]
    counts = [{(3,): 1, (4,): 1, (5,): 1}, {(3, 5): 1}, {(3, 4, 5): 1}]
    model = NGramLM(order=3, id_to_token=id_to_token, counts=counts, discounts=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="suffix"):
        model.paragraph_log_probs(["a", "b", "c"])


def test_counts_without_prefix_ngrams_are_rejected():
    # context (3, 4) at order 3 has its suffix context (4,), but (3, 4) is no
    # bigram, so no state reached by scoring "a b" would be that context
    id_to_token = ["<unk>", "<s>", "</s>", "a", "b", "c"]
    counts = [{(3,): 1, (4,): 1, (5,): 1}, {(4, 5): 1}, {(3, 4, 5): 1}]
    model = NGramLM(order=3, id_to_token=id_to_token, counts=counts, discounts=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="not an order-2 n-gram"):
        model.paragraph_log_probs(["a", "b", "c"])


def test_observed_contexts_follow_count_order(tok):
    model = train_lm(generate_seed_corpus(seed=3, docs=10), tok, order=3)
    for k in (1, 2, 3):
        seen = []
        for gram in model.counts[k - 1]:
            ctx = tuple(model.id_to_token[i] for i in gram[:-1])
            if ctx not in seen:
                seen.append(ctx)
        assert observed_contexts(model, k) == seen


def test_lm_module_does_not_import_numpy():
    # Measured when the scoring tables were designed: importing numpy into the
    # ppl-order5 benchmark's process raised its VmHWM from 15.0 to 28.2 MiB
    # (+13 MiB, a quarter of that workload's 49.5 MiB peak) and its raw set-up
    # from 0.55 to 0.69 s (+0.14 s). The tables are plain dicts and lists.
    src = str(Path(lexcorpus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lexcorpus.lm; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- the LM stage against the loops it replaced -------------------------------


def _reference_perplexity(log_probs):
    """The body of lm.perplexity, which the filter and the calibration once
    ran per paragraph."""
    total = math.fsum(log_probs)
    return float("inf") if total == float("-inf") else math.exp(-total / len(log_probs))


def _reference_filter(docs, model, tok, threshold):
    """filter_by_perplexity as a plain loop: a score per paragraph, and each
    kept document's tokens as a list per kept part, chained at its end. A
    document with no paragraph is kept as itself."""
    report = FilterReport(threshold=threshold)
    kept_docs, dropped_docs, kept_tokens = [], [], []
    for doc in docs:
        bucket = report.per_source.setdefault(doc.source.name, {"kept_tokens": 0, "dropped_tokens": 0})
        kept_parts, dropped_parts, kept_part_tokens = [], [], []
        for part in split_paragraphs(doc.text):
            tokens = tok.tokenize(part)
            if tokens and _reference_perplexity(model.paragraph_log_probs(tokens)) > threshold:
                dropped_parts.append(part)
                bucket["dropped_tokens"] += len(tokens)
            else:
                kept_parts.append(part)
                kept_part_tokens.append(tokens)
        bucket["kept_tokens"] += sum(map(len, kept_part_tokens))
        if kept_parts or not dropped_parts:
            text = "\n\n".join(kept_parts) or doc.text
            kept_docs.append(doc if text == doc.text else Document(doc.id, doc.source, text, dict(doc.meta)))
            kept_tokens.append(list(itertools.chain.from_iterable(kept_part_tokens)))
            report.kept_docs += 1
        if dropped_parts:
            dropped_docs.append(Document(doc.id, doc.source, "\n\n".join(dropped_parts), dict(doc.meta)))
            report.dropped_docs += not kept_parts
    return kept_docs, dropped_docs, report, kept_tokens


def _reference_threshold(model, docs, tok, percentile):
    ppls = sorted(
        _reference_perplexity(model.paragraph_log_probs(tokens))
        for doc in docs
        for para in split_paragraphs(doc.text)
        if (tokens := tok.tokenize(para))
    )
    rank = (percentile / 100.0) * (len(ppls) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    frac = rank - low
    return ppls[low] if low == high else ppls[low] * (1 - frac) + ppls[high] * frac


@pytest.mark.parametrize("discount", [None, 0.0])
@pytest.mark.parametrize("order", [1, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_filter_and_calibration_equal_the_per_paragraph_score_loop(order, discount, data):
    # Discount 0.0 scores a token unseen after its context -inf, so its
    # paragraph's perplexity is inf and it drops at any threshold.
    model, _, paragraphs = _cached_model(order, discount)
    tok = WhitespaceTokenizer()
    word = st.one_of(
        st.sampled_from(predictable_tokens(model)), st.sampled_from([UNK, BOS, "never-seen", "zzqx"])
    )
    run = st.sampled_from(paragraphs).flatmap(
        lambda p: st.tuples(st.integers(0, len(p) - 1), st.integers(1, 12)).map(lambda ij: p[ij[0] : ij[0] + ij[1]])
    )
    paragraph = st.one_of(
        st.lists(st.one_of(word.map(lambda w: [w]), run), max_size=6).map(lambda chunks: sum(chunks, [])),
        st.sampled_from([[], [" "], ["\t", " "]]),  # empty and whitespace-only
    ).flatmap(lambda words: st.sampled_from([" ", "\t", " \n"]).map(lambda sep: sep.join(words)))
    text = st.lists(paragraph, max_size=5).flatmap(
        lambda paras: st.sampled_from(["\n\n", "\n \n", "\n\n\n", "\n"]).map(lambda sep: sep.join(paras))
    )
    docs = [
        Document(id=f"d{i}", source=SourceTag(source), text=t, meta={"i": str(i)})
        for i, (source, t) in enumerate(data.draw(st.lists(st.tuples(st.sampled_from(["freelaw", "wikipedia"]), text))))
    ]
    parts = itertools.chain.from_iterable(split_paragraphs(d.text) for d in docs)
    scored = [tokens for part in parts if (tokens := tok.tokenize(part))]
    finite = sorted({p for p in map(_reference_perplexity, map(model.paragraph_log_probs, scored)) if p < math.inf})
    # a paragraph's own perplexity as the threshold tells `>` from `>=`
    threshold = data.draw(st.sampled_from(finite) if finite and data.draw(st.booleans()) else st.floats(1.0, 1e4))

    kept_tokens = []
    kept, dropped, report = filter_by_perplexity(docs, model, tok, threshold, _kept_tokens=kept_tokens)
    ref_kept, ref_dropped, ref_report, ref_kept_tokens = _reference_filter(docs, model, tok, threshold)
    assert (kept, dropped, report, kept_tokens) == (ref_kept, ref_dropped, ref_report, ref_kept_tokens)
    by_id = {d.id: d for d in docs}
    assert [d is by_id[d.id] for d in kept] == [d is by_id[d.id] for d in ref_kept]
    # without _kept_tokens the tokens are counted, not collected
    assert filter_by_perplexity(docs, model, tok, threshold) == (ref_kept, ref_dropped, ref_report)

    percentile = data.draw(st.floats(0.0, 100.0, exclude_min=True))
    if any(split_paragraphs(d.text) for d in docs):
        assert calibrate_threshold(model, docs, tok, percentile) == _reference_threshold(model, docs, tok, percentile)
    else:
        with pytest.raises(ValueError, match="no scorable paragraphs"):
            calibrate_threshold(model, docs, tok, percentile)


def _reference_counts(docs, tok, order):
    """train_lm's counting as it was: one dict update per window, then one
    per distinct n-gram for the continuation counts."""
    vocab = {UNK: UNK_ID, BOS: BOS_ID, EOS: EOS_ID}
    counts = [{} for _ in range(order)]
    pad, end = ((BOS_ID,) * (order - 1), (EOS_ID,)) if order > 1 else ((), ())
    for doc in docs:
        for para in split_paragraphs(doc.text):
            tokens = tok.tokenize(para)
            if tokens:
                seq = (*pad, *[vocab.setdefault(t, len(vocab)) for t in tokens], *end)
                for gram in zip(*(seq[k:] for k in range(order))):
                    counts[-1][gram] = counts[-1].get(gram, 0) + 1
    for k in range(order - 1, 0, -1):
        for gram in counts[k]:
            counts[k - 1][gram[1:]] = counts[k - 1].get(gram[1:], 0) + 1
    return vocab, counts


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_training_tables_keep_the_reference_loops_insertion_order(tmp_path, make_doc, tok, order):
    docs = generate_seed_corpus(seed=5, docs=20)
    docs.append(make_doc("b a b\n\n \n\na b a b a\n\n\n\tc  a\n\nb a b"))
    model = train_lm(docs, tok, order=order)
    vocab, counts = _reference_counts(docs, tok, order)
    # the reference gives each token the id of its position
    assert type(model.id_to_token) is list and model.id_to_token == list(vocab)
    assert [type(table) for table in model.counts] == [dict] * order
    assert [list(table.items()) for table in model.counts] == [list(table.items()) for table in counts]
    reference = NGramLM(order, list(vocab), counts, [_estimate_discount(table.values()) for table in counts])
    save_lm(model, tmp_path / "model.json")
    save_lm(reference, tmp_path / "reference.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3, 5]),
    texts=st.lists(st.lists(st.lists(st.sampled_from("abcd"), max_size=8).map(" ".join), max_size=4).map("\n\n".join)),
)
def test_training_tables_keep_the_reference_loops_order_on_any_text(order, texts):
    tok = WhitespaceTokenizer()
    docs = [Document(id=str(i), source=SourceTag("freelaw"), text=text) for i, text in enumerate(texts)]
    vocab, counts = _reference_counts(docs, tok, order)
    if not counts[-1]:
        with pytest.raises(TrainingError):
            train_lm(docs, tok, order=order)
        return
    model = train_lm(docs, tok, order=order)
    assert model.id_to_token == list(vocab)
    assert [list(table.items()) for table in model.counts] == [list(table.items()) for table in counts]
