from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from lexcorpus.evaluation import (
    ABSTAIN,
    CurationError,
    EvalTask,
    LogProbScorer,
    NgramScorer,
    TaskFormatError,
    balanced_accuracy,
    closing_instruction,
    curate_prompt,
    load_mmlu_legal,
    load_task,
    parse_answer,
    perplexity_report,
    relative_reduction,
    run_benchmark,
    save_task,
)
from lexcorpus.instruct import HttpChatBackend
from lexcorpus.lm import ScoreError
from lexcorpus.synthdata import (
    build_task_suite,
    generate_seed_corpus,
    write_mmlu_csvs,
)


FEW_SHOT_PROMPT = """Decide whether the call described complies with the telemarketing rule.

Question: The caller stated the purpose within one minute. Is this compliant?
Answer: Yes

Question: The caller refused to identify the company. Is this compliant?
Answer: No

Question: {text}
Answer:"""


# --- prompt curation ---------------------------------------------------------

def test_curation_strips_examples_keeps_preamble():
    curated = curate_prompt(FEW_SHOT_PROMPT, ["Yes", "No"])
    assert curated.startswith("Decide whether the call described complies")
    assert "compliant?" not in curated  # no leftover few-shot blocks
    assert "Answer the following question: {text}" in curated
    assert curated.endswith('Answer by only outputting "Yes" or "No"')


def test_curation_closing_instruction_three_labels():
    curated = curate_prompt("Preamble.\n\nQuestion: {text}\nAnswer:", ["A", "B", "C"])
    assert curated.endswith('Answer by only outputting "A", "B" or "C"')


def test_curation_plain_template_gets_instruction_appended():
    curated = curate_prompt("Classify.\n\n{text}", ["Yes", "No"])
    assert curated == 'Classify.\n\n{text}\n\nAnswer by only outputting "Yes" or "No"'


def test_curation_requires_placeholder():
    with pytest.raises(CurationError):
        curate_prompt("No placeholder here at all.", ["Yes", "No"])


def test_curation_idempotent():
    once = curate_prompt(FEW_SHOT_PROMPT, ["Yes", "No"])
    assert curate_prompt(once, ["Yes", "No"]) == once


def test_closing_instruction_rendering():
    assert closing_instruction(["Yes", "No"]) == 'Answer by only outputting "Yes" or "No"'
    assert closing_instruction(["A", "B", "C"]) == 'Answer by only outputting "A", "B" or "C"'


# --- answer parsing ----------------------------------------------------------

def test_parse_answer_basic():
    assert parse_answer("Yes, because the statute says so", ["Yes", "No"]) == "Yes"
    assert parse_answer("I think the answer is no.", ["Yes", "No"]) == "No"
    assert parse_answer("It is B", ["A", "B", "C"]) == "B"


def test_parse_answer_earliest_match_wins():
    assert parse_answer("no... wait, yes", ["Yes", "No"]) == "No"


def test_parse_answer_word_boundaries():
    assert parse_answer("Eyes on the prize", ["Yes", "No"]) == ABSTAIN
    assert parse_answer("Absolutely", ["A", "B", "C"]) == ABSTAIN


def test_parse_answer_empty_abstains():
    assert parse_answer("", ["Yes", "No"]) == ABSTAIN
    assert parse_answer("   ", ["Yes", "No"]) == ABSTAIN


# --- balanced accuracy -------------------------------------------------------

def _oracle_balanced_accuracy(preds, golds):
    classes = sorted(set(golds))
    recalls = []
    for c in classes:
        idx = [i for i, g in enumerate(golds) if g == c]
        recalls.append(sum(1 for i in idx if preds[i] == c) / len(idx))
    return sum(recalls) / len(recalls)


def test_balanced_accuracy_hand_case():
    assert balanced_accuracy(["A", "A", "B", "B"], ["A", "A", "A", "B"]) == pytest.approx(
        5 / 6, abs=1e-12
    )


def test_balanced_accuracy_ignores_class_imbalance():
    # 90 easy A's do not mask a total miss on B
    preds = ["A"] * 90 + ["A"] * 10
    golds = ["A"] * 90 + ["B"] * 10
    assert balanced_accuracy(preds, golds) == pytest.approx(0.5)


def test_balanced_accuracy_random_agreement_with_oracle():
    rng = random.Random(0)
    labels = ["Yes", "No", "Maybe"]
    for _ in range(200):
        n = rng.randint(2, 30)
        golds = [rng.choice(labels) for _ in range(n)]
        preds = [rng.choice(labels + [ABSTAIN]) for _ in range(n)]
        assert balanced_accuracy(preds, golds) == pytest.approx(
            _oracle_balanced_accuracy(preds, golds), abs=1e-12
        )


def test_balanced_accuracy_rejects_length_mismatch():
    with pytest.raises(ValueError):
        balanced_accuracy(["A"], ["A", "B"])
    with pytest.raises(ValueError):
        balanced_accuracy([], [])


@given(
    st.lists(st.sampled_from(["X", "Y"]), min_size=1, max_size=40).flatmap(
        lambda golds: st.tuples(
            st.just(golds),
            st.lists(st.sampled_from(["X", "Y", ABSTAIN]), min_size=len(golds), max_size=len(golds)),
        )
    )
)
def test_balanced_accuracy_property(pair):
    golds, preds = pair
    got = balanced_accuracy(preds, golds)
    assert 0.0 <= got <= 1.0
    assert got == pytest.approx(_oracle_balanced_accuracy(preds, golds), abs=1e-12)


# --- task plumbing -----------------------------------------------------------

def test_task_roundtrip(tmp_path):
    task = build_task_suite(seed=1)[0]
    path = tmp_path / "task.json"
    save_task(task, path)
    loaded = load_task(path)
    assert loaded.name == task.name
    assert loaded.instances == task.instances


def test_task_validation():
    with pytest.raises(TaskFormatError):
        EvalTask(
            name="bad",
            category="issue_spotting",
            label_set=["Yes", "No"],
            prompt_template="no placeholder",
            instances=[("t", "Yes")],
        )
    with pytest.raises(TaskFormatError):
        EvalTask(
            name="bad",
            category="not-a-category",
            label_set=["Yes", "No"],
            prompt_template="{text}",
            instances=[("t", "Yes")],
        )
    with pytest.raises(TaskFormatError):
        EvalTask(
            name="bad",
            category="issue_spotting",
            label_set=["Yes", "No"],
            prompt_template="{text}",
            instances=[("t", "Maybe")],
        )


# --- benchmark harness -------------------------------------------------------

class _FixedBackend:
    name = "fixed"

    def __init__(self, answer: str):
        self.answer = answer

    def complete(self, messages, role_hint):
        return self.answer


def test_run_benchmark_records_are_ordered_and_stable():
    suite = build_task_suite(seed=11)
    report_a, records_a = run_benchmark(suite, _FixedBackend("Yes"), concurrency=1)
    report_b, records_b = run_benchmark(suite, _FixedBackend("Yes"), concurrency=8)
    key = lambda r: (r.task, r.index)
    assert [key(r) for r in records_a] == sorted(key(r) for r in records_a)
    assert [(r.task, r.index, r.parsed) for r in records_a] == [
        (r.task, r.index, r.parsed) for r in records_b
    ]
    assert report_a.per_task == report_b.per_task


def test_run_benchmark_abstain_counts():
    suite = build_task_suite(seed=11)[:1]
    report, records = run_benchmark(suite, _FixedBackend("complete nonsense"), concurrency=2)
    assert all(r.parsed == ABSTAIN for r in records)
    assert report.abstain_rate == 1.0


def test_mmlu_loader_counts(tmp_path):
    write_mmlu_csvs(tmp_path, seed=3)
    tasks = load_mmlu_legal(tmp_path)
    counts = {t.name: len(t.instances) for t in tasks}
    assert counts == {
        "mmlu_international_law": 120,
        "mmlu_professional_law": 1500,
        "mmlu_jurisprudence": 110,
    }
    for task in tasks:
        assert task.label_set == ["A", "B", "C", "D"]


def test_mmlu_loader_requires_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_mmlu_legal(tmp_path / "nowhere")


# --- perplexity reporting ----------------------------------------------------


class UniformScorer(LogProbScorer):
    """Assigns p = 1/vocab_size to every whitespace token; a calibration
    fixture (every document's perplexity equals vocab_size exactly)."""

    def __init__(self, vocab_size: int, name: str = "uniform"):
        self.vocab_size = vocab_size
        self.name = name

    def token_log_probs(self, text: str) -> list:
        lp = -math.log(self.vocab_size)
        return [lp for _ in text.split()]


def test_uniform_scorer_is_exact():
    scorer = UniformScorer(vocab_size=4)
    docs = {"statutes": generate_seed_corpus(seed=1, docs=4)}
    report = perplexity_report(docs, scorer)
    assert report.per_category["statutes"]["median"] == pytest.approx(4.0)
    assert report.per_category["statutes"]["iqr"] == pytest.approx(0.0)


def test_perplexity_report_rejects_a_document_without_tokens(make_doc):
    docs = [make_doc("a b"), make_doc(" \n ", doc_id="e1")]
    with pytest.raises(ScoreError, match="^category 'blank': document 'e1' has no tokens to score$"):
        perplexity_report({"blank": docs}, UniformScorer(vocab_size=4))


def test_reduction_arithmetic():
    assert relative_reduction(8.69, 9.20) == pytest.approx(0.0554347826, abs=1e-9)


def test_perplexity_report_reduction_against_baseline(tok):
    from lexcorpus.lm import train_lm

    docs = generate_seed_corpus(seed=6, docs=30)
    model = train_lm(docs, tok, order=2)
    report = perplexity_report(
        {"opinions": docs[:10]},
        NgramScorer(model, name="ours"),
        baseline=UniformScorer(vocab_size=5000, name="base"),
    )
    stats = report.per_category["opinions"]
    assert stats["reduction"] == pytest.approx(
        (stats["baseline_median"] - stats["median"]) / stats["baseline_median"]
    )
    assert stats["median"] < stats["baseline_median"]


def test_perplexity_report_reads_each_category_once(tok):
    from lexcorpus.lm import train_lm

    docs = generate_seed_corpus(seed=6, docs=30)
    scorer = NgramScorer(train_lm(docs, tok, order=2), name="ours")
    baseline = UniformScorer(vocab_size=5000, name="base")
    categories = {"early": docs[:10], "late": docs[10:]}
    over_lists = perplexity_report(categories, scorer, baseline)
    one_shot = {name: (doc for doc in part) for name, part in categories.items()}
    over_generators = perplexity_report(one_shot, scorer, baseline)
    assert over_generators.to_json() == over_lists.to_json()
    assert over_lists.per_category["late"]["documents"] == 20


@pytest.mark.parametrize("body", ['["not", "an", "object"]', '{"completion": null}', "{}"])
def test_run_benchmark_records_malformed_responses(chat_endpoint, sleeps, body):
    suite = build_task_suite(seed=11)[:2]
    server = chat_endpoint((200, body))
    backend = HttpChatBackend(server.url, model="m")
    report, records = run_benchmark(suite, backend, concurrency=2)
    assert records and all(r.parsed == ABSTAIN for r in records)
    assert all(r.failure.startswith("malformed_response: ") for r in records)
    assert all(r.raw_output == "" for r in records)
    assert report.abstain_rate == 1.0
    assert server.calls == len(records) and sleeps == []


def test_run_benchmark_abstains_on_a_retry_after_longer_than_the_timeout(chat_endpoint, sleeps):
    suite = build_task_suite(seed=11)[:1]
    server = chat_endpoint((429, "", {"Retry-After": "1e308"}))
    report, records = run_benchmark(suite, HttpChatBackend(server.url, model="m"), concurrency=2)
    failure = "backend: chat endpoint asks to wait 1e+308 s, longer than the 30 s timeout"
    assert records and all(r.parsed == ABSTAIN and r.failure == failure for r in records)
    assert report.abstain_rate == 1.0
    assert server.calls == len(records) and sleeps == []
