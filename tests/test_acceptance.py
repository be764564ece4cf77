"""Acceptance gate: thirteen protocol-level checks, one test per criterion.

Each test is independent of the unit suites and pins its own tolerances;
`pytest -v tests/test_acceptance.py` yields exactly one pass/fail line per
criterion. Oracles are computed in-test by brute force or by hand-derived
closed forms, never by calling the code under test a second way.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from lexcorpus.cleaning import clean_text, mine_ngrams
from lexcorpus.corpus import WhitespaceTokenizer
from lexcorpus.dedup import exact_dedup, near_dedup
from lexcorpus.evaluation import (
    ChatBackend,
    LogProbScorer,
    balanced_accuracy,
    curate_prompt,
    load_mmlu_legal,
    perplexity_report,
    relative_reduction,
    run_benchmark,
)
from lexcorpus.instruct import (
    LabeledExample,
    StubChatBackend,
    conversation_to_json,
    decontaminate,
    extend_conversation,
    scaffold_conversation,
)
from lexcorpus.lm import BOS, NGramLM, calibrate_threshold, filter_by_perplexity, perplexity, train_lm
from lexcorpus.mix import MixSpec, assemble_mix
from lexcorpus.synthdata import (
    build_task_suite,
    generate_seed_corpus,
    shingle_jaccard,
    write_mmlu_csvs,
    write_pipeline_inputs,
)
from synth_fixtures import (
    generate_artifact_corpus,
    generate_dedup_fixture,
    generate_mix_inputs,
    generate_ppl_fixture,
)

TOK = WhitespaceTokenizer()
DATA = Path(__file__).parent / "data"


def test_c01_cleaning_removes_planted_artifacts_fast():
    """100% planted-artifact removal, zero clean-sentence damage, < 10 s / 10k docs."""
    fixture = generate_artifact_corpus(seed=0, n_docs=10_000)
    assert fixture.artifact_total > 0
    start = time.monotonic()
    cleaned = {doc.id: clean_text(doc.text) for doc in fixture.docs}
    elapsed = time.monotonic() - start
    surviving_artifacts = 0
    damaged_sentences = 0
    for doc in fixture.docs:
        out = cleaned[doc.id]
        for artifact in fixture.planted.get(doc.id, []):
            if artifact in out:
                surviving_artifacts += 1
        for sentence in fixture.clean_sentences[doc.id]:
            if sentence not in out:
                damaged_sentences += 1
    assert surviving_artifacts == 0
    assert damaged_sentences == 0
    assert elapsed < 10.0, f"cleaning 10k docs took {elapsed:.2f}s"


def test_c02_mined_10grams_equal_brute_force():
    docs = generate_seed_corpus(seed=17, docs=300)
    assert len(docs) <= 1000
    ranked = mine_ngrams(docs, n=10, top_k=25)
    oracle: Counter = Counter()
    for doc in docs:
        tokens = doc.text.split()
        for i in range(len(tokens) - 9):
            oracle[tuple(tokens[i : i + 10])] += 1
    expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:25]
    assert ranked == expected


def test_c03_kneser_ney_normalization_and_hand_unigram():
    """Order-5 conditional distributions sum to 1 ± 1e-6 on a >= 50k-token
    seed; the discount-free unigram equals hand-computed MLE exactly."""
    docs = generate_seed_corpus(seed=23, docs=200, min_tokens=50_000)
    assert sum(len(d.text.split()) for d in docs) >= 50_000
    model = train_lm(docs, TOK, order=5)
    # every token a distribution ranges over (the begin marker excluded), and
    # every context the counts show, by order and then first appearance
    vocab = [t for t in model.id_to_token if t != BOS]
    rng = random.Random(0)
    all_contexts = []
    for order in range(1, 6):
        contexts = dict.fromkeys(gram[:-1] for gram in model.counts[order - 1])
        all_contexts.extend(tuple(model.id_to_token[i] for i in ctx) for ctx in contexts)
    for ctx in rng.sample(all_contexts, 100):
        total = math.fsum(model.probability(ctx, t) for t in vocab)
        assert abs(total - 1.0) <= 1e-6, ctx

    from lexcorpus.corpus import Document, resolve_source

    tiny = [Document(id="h", source=resolve_source("freelaw"), text="a a b")]
    counted = train_lm(tiny, TOK, order=1)
    mle = NGramLM(counted.order, counted.id_to_token, counted.counts, [0.0] * counted.order)
    assert mle.probability((), "a") == 2 / 3
    assert mle.probability((), "b") == 1 / 3


def test_c04_perplexity_filter_separates_gibberish():
    start = time.monotonic()
    fixture = generate_ppl_fixture(seed=0, seed_docs=150, n_eval=10)
    model = train_lm(fixture.seed_docs, TOK, order=3)
    in_ppls = [perplexity(model.token_log_probs(d.text)) for d in fixture.in_domain]
    gib_ppls = [perplexity(model.token_log_probs(d.text)) for d in fixture.gibberish]
    assert statistics.median(gib_ppls) >= 5 * statistics.median(in_ppls)
    threshold = calibrate_threshold(model, fixture.seed_docs, TOK, percentile=99.0)
    kept, dropped, _ = filter_by_perplexity(
        fixture.in_domain + fixture.gibberish, model, TOK, threshold
    )
    assert sorted(d.id for d in kept) == sorted(d.id for d in fixture.in_domain)
    assert sorted(d.id for d in dropped) == sorted(d.id for d in fixture.gibberish)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"separation check took {elapsed:.2f}s"


def test_c05_dedup_recall_precision_and_closure():
    fixture = generate_dedup_fixture(seed=0, n_base=70, n_exact=20, n_near=10)
    assert len(fixture.docs) == 100
    planted_near = dict(fixture.near_pairs)
    planted_exact = dict(fixture.exact_pairs)

    after_exact, exact_report = exact_dedup(fixture.docs)
    kept_exact = {d.id for d in after_exact}
    assert all(b not in kept_exact and a in kept_exact for a, b in fixture.exact_pairs)
    assert exact_report.exact_removed == len(fixture.exact_pairs)

    # brute-force pairwise Jaccard for the closure oracle
    true_j = {}
    for i, a in enumerate(after_exact):
        for b in after_exact[i + 1 :]:
            true_j[(a.id, b.id)] = shingle_jaccard(a.text, b.text, shingle_n=5)
    assert all(shingle_jaccard(
        next(d.text for d in fixture.docs if d.id == a),
        next(d.text for d in fixture.docs if d.id == b),
        shingle_n=5,
    ) >= 0.8 for a, b in fixture.near_pairs)

    recalls = []
    for seed in range(5):
        kept, report = near_dedup(after_exact, threshold=0.7, seed=seed)
        kept_ids = {d.id for d in kept}
        found = sum(1 for a, b in fixture.near_pairs if a in kept_ids and b not in kept_ids)
        recalls.append(found / len(fixture.near_pairs))
        # false removals: nothing outside planted duplicates may disappear
        protected = {d.id for d in after_exact} - set(planted_near.values())
        assert protected <= kept_ids, f"seed {seed} removed non-duplicates"
        # cluster closure: merges only within true-Jaccard-≥-threshold pairs,
        # and every pair at threshold+0.1 or above must be merged
        root = {r: k for k, rs in report.clusters for r in rs}
        for (a, b), j in true_j.items():
            merged = root.get(a, a) == root.get(b, b)
            if merged:
                assert j >= 0.7 - 1e-9, (a, b, j)
            if j >= 0.8:
                assert merged, f"seed {seed}: pair ({a}, {b}) true J={j:.3f} missed"
    assert sum(recalls) / len(recalls) >= 0.9


def test_c06_mix_audit_two_percent_replay():
    sources = generate_mix_inputs(seed=5, token_budget=1_000_000)
    spec = MixSpec(entries=[("legal", 0.98), ("replay", 0.02)], token_budget=1_000_000, seed=42)

    def measure(doc):
        return doc.id, len(doc.text.split())

    mixed_a, man_a = assemble_mix(sources, spec, measure)
    assert man_a.realized_fraction("replay") == pytest.approx(0.02, abs=0.005)
    mixed_b, man_b = assemble_mix(sources, spec, measure)
    assert man_a.to_json().encode() == man_b.to_json().encode()
    assert [d.id for d in mixed_a] == [d.id for d in mixed_b]


def test_c07_instruction_scaffold_and_golden_extension():
    example = LabeledExample(
        id="fig-example",
        input_text="My employer fired me because I am an immigrant. Is it legal?",
        label="employment",
    )
    conv = scaffold_conversation(example)
    assert len(conv.turns) == 3
    assert [t.role for t in conv.turns] == ["user", "assistant", "user"]
    assert "employment" in conv.turns[1].text

    stub = StubChatBackend()
    extended = extend_conversation(conv, stub, extra_turn_pairs=2)
    golden = json.loads((DATA / "golden_extension.json").read_text())
    assert json.loads(conversation_to_json(extended)) == golden


def test_c08_decontamination_eight_token_boundary():
    benchmark = "alpha beta gamma delta epsilon zeta eta theta"

    def conv_with(text):
        return scaffold_conversation(LabeledExample(id="x", input_text=text, label="contracts"))

    overlap8 = conv_with(f"Filler start: {benchmark} and filler end.")
    overlap7 = conv_with("Filler start: alpha beta gamma delta epsilon zeta eta OTHER and end.")

    # brute-force 8-token shingle oracle on the raw turn text
    def shingles(text, n=8):
        tokens = text.split()
        return {tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}

    bench_shingles = shingles(benchmark)
    text8 = " ".join(t.text for t in overlap8.turns)
    text7 = " ".join(t.text for t in overlap7.turns)
    assert shingles(text8) & bench_shingles
    assert not (shingles(text7) & bench_shingles)

    kept, removed = decontaminate([overlap8, overlap7], [benchmark], shingle_n=8)
    assert removed == 1
    assert len(kept) == 1 and "OTHER" in kept[0].turns[0].text


def test_c09_telemarketing_prompt_curation_golden():
    preamble = (
        "The Telemarketing Sales Rule is provided by 16 C.F.R. § 310.3(a)(1) "
        "and 16 C.F.R. § 310.3(a)(2)."
    )
    original = f"""{preamble}

Question: Acme Toys is a telemarketer subject to the Telemarketing Sales Rule. Acme Toys told a customer that its frisbees cost $10 each, when in fact the frisbees cost $12 each. The customer agreed to the sale and was charged $12. Is this a violation of the Telemarketing Sales Rule?
Answer: Yes

Question: Acme Toys is a telemarketer subject to the Telemarketing Sales Rule. Acme Toys told a customer that its frisbees cost $10 each, when in fact the frisbees did cost $10, but Acme Toys did not disclose that shipping would cost an additional $5. The customer agreed to the sale. Is this a violation of the Telemarketing Sales Rule?
Answer: Yes

Question: Acme Industrial Products is a telemarketer subject to the Telemarketing Sales Rule. Acme Industrial Products told a customer that its brooms cost $12 each, and the brooms did in fact cost $12. The customer agreed to the sale. Is this a violation of the Telemarketing Sales Rule?
Answer: No

Question: Acme Industrial Products is a telemarketer subject to the Telemarketing Sales Rule. Acme Industrial Products told a customer that it would sell them 4 brooms for $10 and that shipping would be $5. Then, the customer agreed to the sale. Is this a violation of the Telemarketing Sales Rule?
Answer: No

Question: {{text}}
Answer:"""
    curated = curate_prompt(original, ["Yes", "No"])
    expected = (
        f"{preamble}\n\n"
        "Answer the following question: {text}\n\n"
        'Answer by only outputting "Yes" or "No"'
    )
    assert curated == expected
    assert curated.endswith('Answer by only outputting "Yes" or "No"')


def test_c10_balanced_accuracy_oracle_and_hand_case():
    def oracle(preds, golds):
        classes = sorted(set(golds))
        per_class = []
        for c in classes:
            idx = [i for i, g in enumerate(golds) if g == c]
            per_class.append(sum(1 for i in idx if preds[i] == c) / len(idx))
        return sum(per_class) / len(per_class)

    rng = random.Random(1234)
    labels = ["Yes", "No", "Maybe", "ABSTAIN"]
    for _ in range(1000):
        n = rng.randint(2, 50)
        golds = [rng.choice(labels[:3]) for _ in range(n)]
        preds = [rng.choice(labels) for _ in range(n)]
        assert abs(balanced_accuracy(preds, golds) - oracle(preds, golds)) <= 1e-12

    assert balanced_accuracy(["A", "A", "B", "B"], ["A", "A", "A", "B"]) == pytest.approx(
        5 / 6, abs=1e-12
    )


def test_c11_harness_oracle_adversarial_and_mmlu_counts(tmp_path):
    suite = build_task_suite(seed=11)
    gold_by_text = {text: gold for task in suite for text, gold in task.instances}

    class OracleBackend(ChatBackend):
        name = "oracle"

        def complete(self, messages, role_hint):
            prompt = messages[-1]["content"]
            for text, gold in gold_by_text.items():
                if text in prompt:
                    return gold
            return ""

    report, _ = run_benchmark(suite, OracleBackend())
    assert all(v == pytest.approx(1.0) for v in report.per_task.values())
    assert report.overall == pytest.approx(1.0)

    class FirstLabelBackend(ChatBackend):
        name = "first-label"

        def __init__(self, label):
            self.label = label

        def complete(self, messages, role_hint):
            return f"The answer is {self.label}."

    for task in suite:
        rep, _ = run_benchmark([task], FirstLabelBackend(task.label_set[0]))
        golds = [g for _, g in task.instances]
        classes = sorted(set(golds))
        hand = statistics.mean(
            sum(1 for g in golds if g == c and c == task.label_set[0])
            / sum(1 for g in golds if g == c)
            for c in classes
        )
        assert rep.per_task[task.name] == pytest.approx(hand, abs=1e-12)

    write_mmlu_csvs(tmp_path, seed=3)
    mmlu = load_mmlu_legal(tmp_path)
    counts = {t.name.removeprefix("mmlu_"): len(t.instances) for t in mmlu}
    assert counts == {"international_law": 120, "professional_law": 1500, "jurisprudence": 110}


def test_c12_perplexity_reduction_arithmetic():
    class FixedScorer(LogProbScorer):
        def __init__(self, ppl, name):
            self.ppl = ppl
            self.name = name

        def token_log_probs(self, text):
            return [-math.log(self.ppl) for _ in text.split()]

    docs = {"legal_benchmark": generate_seed_corpus(seed=2, docs=6)}
    report = perplexity_report(docs, FixedScorer(8.69, "ours"), baseline=FixedScorer(9.20, "base"))
    stats = report.per_category["legal_benchmark"]
    assert stats["median"] == pytest.approx(8.69, abs=1e-9)
    assert stats["baseline_median"] == pytest.approx(9.20, abs=1e-9)
    assert stats["reduction"] == pytest.approx(0.055, abs=0.001)
    assert relative_reduction(8.69, 9.20) == pytest.approx(0.055, abs=0.001)


def test_c13_pipeline_under_60s_and_byte_identical(tmp_path):
    root = tmp_path / "demo"
    write_pipeline_inputs(root, seed=7)
    config = root / "config.json"

    def run_once():
        started = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "lexcorpus.cli", "pipeline", "--config", str(config)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return time.monotonic() - started

    elapsed_first = run_once()
    assert elapsed_first < 60.0, f"pipeline took {elapsed_first:.1f}s"
    out = root / "out"
    manifests = ["run_manifest.json", "mix_manifest.json", "dedup_report.json", "filter_report.json"]
    before = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in manifests}
    shutil.rmtree(out)
    run_once()
    after = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in manifests}
    assert before == after
