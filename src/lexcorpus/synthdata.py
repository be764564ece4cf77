"""Seeded generators of the synthetic demo inputs.

Everything here is deterministic in the seed: legal-flavored prose built
from small word banks, a seed corpus for LM training, a main corpus with
planted artifacts, gibberish and exact and near duplicates, labeled
examples for instruction synthesis, a miniature benchmark task suite,
MMLU-shaped CSV files, and a pipeline config wired to them.

Run `python -m lexcorpus.synthdata --out DIR` to materialize the demo
inputs described in the README.
"""

from __future__ import annotations

import argparse
import json
import random
import string
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .corpus import Document, SourceTag, write_documents, write_lines
from .evaluation import EvalTask, curated_template, save_task
from .instruct import (
    LabeledExample,
    StubChatBackend,
    conversations_to_documents,
    extend_conversation,
    scaffold_conversation,
)

SUBJECTS = (
    "the tenant", "the landlord", "the employer", "the employee", "the contractor",
    "the insurer", "the plaintiff", "the defendant", "the agency", "the borrower",
)
VERBS = (
    "must deliver", "shall provide", "failed to disclose", "agreed to pay",
    "may terminate", "did not breach", "is liable for", "waived", "disputed",
    "acknowledged",
)
OBJECTS = (
    "the security deposit", "the monthly premium", "the written notice",
    "the severance payment", "the licensing fee", "the settlement amount",
    "the arbitration clause", "the renewal option", "the statutory penalty",
    "the filing deadline",
)
CLAUSES = (
    "under section {n} of the act", "within {n} days of notice",
    "according to the signed agreement", "as the court held on appeal",
    "absent a showing of good cause", "pursuant to the governing statute",
    "subject to judicial review", "unless the parties agree otherwise",
)

RUN_ARTIFACTS = (
    "- - - - - - - - - -",
    ". . . . . . . . . .",
    "* * * * * * * * * *",
    "==========",
    "_ _ _ _ _ _",
)
HTML_ARTIFACTS = ("<p>", "</p>", "<br/>", '<div class="page">', "</div>", "<hr>")

LABELS = ("employment", "housing", "contract", "consumer")
JUDGES = ("J. Alvarez", "M. Chen", "R. Okafor", "T. Novak", "S. Haddad")
DOC_TYPES = ("decision", "contract", "statute", "brief")


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def legal_sentence(rng: random.Random) -> str:
    clause = rng.choice(CLAUSES).replace("{n}", str(rng.randint(2, 90)))
    sentence = f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} {rng.choice(OBJECTS)} {clause}."
    return sentence[0].upper() + sentence[1:]


def legal_paragraph(rng: random.Random, sentences: int = 4) -> str:
    return " ".join(legal_sentence(rng) for _ in range(sentences))


def legal_text(rng: random.Random, paragraphs: int = 3) -> str:
    return "\n\n".join(legal_paragraph(rng) for _ in range(paragraphs))


def gibberish_paragraph(rng: random.Random, tokens: int = 40) -> str:
    words = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 11)))
        for _ in range(tokens)
    ]
    return " ".join(words)


def make_doc(doc_id: str, source_name: str, text: str) -> Document:
    return Document(id=doc_id, source=SourceTag(source_name), text=text, meta={})


# -- seed corpus ----------------------------------------------------------------

# Sentences mirroring the instruction scaffold and stub-backend wording, so
# conversation transcripts stay in-vocabulary for a seed-trained model.
_DIALOGUE_OPENERS = (
    "Which statute, regulation, or precedent bears most directly on this situation?",
    "How would the analysis change if the key facts were slightly different?",
    "What procedural steps would someone in this position usually take next?",
    "Are there notable exceptions or defenses that could alter the outcome?",
    "How have courts treated comparable cases in recent years?",
    "What practical risks should a layperson keep in mind here?",
    "Addressing your point about the matter raised the controlling considerations are "
    "the governing text, the precedent of the forum, and the specific facts.",
    "On turn 5 of this discussion, the balance of those factors supports the position "
    "I outlined, though a court would weigh the record as a whole.",
    "On turn 7 of this discussion, the balance of those factors supports the position "
    "I outlined, though a court would weigh the record as a whole.",
    "On turn 9 of this discussion, the balance of those factors supports the position "
    "I outlined, though a court would weigh the record as a whole.",
    "I came across the following text and I am not sure how to classify it. Could you take a look?",
    'Having read it, I would classify this text under "employment".',
    'Having read it, I would classify this text under "housing".',
    'Having read it, I would classify this text under "contract".',
    'Having read it, I would classify this text under "consumer".',
    "Interesting. Could you walk me through the reasoning behind that classification?",
    "The transcript labels each turn user: or assistant: before the text.",
    "Is it legal?",
)


def _metaish_sentence(rng: random.Random) -> str:
    return (
        f"For context, the record carries these details — document_type: "
        f"{rng.choice(DOC_TYPES)}; date: twenty {rng.choice(('first', 'second', 'third'))} "
        f"of june; judge: {rng.choice(JUDGES)}."
    )


def _dialogue_paragraph(rng: random.Random) -> str:
    parts = [rng.choice(_DIALOGUE_OPENERS) for _ in range(2)]
    parts.append(_metaish_sentence(rng))
    parts.append(legal_sentence(rng))
    return " ".join(parts)


def generate_seed_corpus(
    seed: int = 0,
    docs: int = 120,
    source: str = "freelaw",
    min_tokens: Optional[int] = None,
) -> List[Document]:
    """Trusted seed corpus for LM training: mostly legal prose plus some
    conversational paragraphs so stub-generated dialogue stays in-vocabulary.
    With min_tokens set, documents are added until the whitespace token count
    reaches it."""
    rng = _rng(seed)
    out: List[Document] = []
    total = 0
    i = 0
    while True:
        if min_tokens is None:
            if i >= docs:
                break
        elif total >= min_tokens:
            break
        paras = []
        for _ in range(3):
            if rng.random() < 0.15:
                paras.append(_dialogue_paragraph(rng))
            else:
                paras.append(legal_paragraph(rng))
        text = "\n\n".join(paras)
        out.append(make_doc(f"seed-{i:05d}", source, text))
        total += len(text.split())
        i += 1
    return out


# -- near copies ---------------------------------------------------------------


def shingle_jaccard(text_a: str, text_b: str, shingle_n: int = 5) -> float:
    """Brute-force Jaccard over token shingles; the oracle the MinHash
    estimate is judged against."""
    def shingles(text: str) -> set:
        tokens = text.split()
        if len(tokens) < shingle_n:
            return {tuple(tokens)}
        return {tuple(tokens[i : i + shingle_n]) for i in range(len(tokens) - shingle_n + 1)}

    sa, sb = shingles(text_a), shingles(text_b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _near_copy(rng: random.Random, text: str) -> str:
    """Rewrite a contiguous span of tokens (about a tenth of the document)
    and shrink the span until the true shingle Jaccard reaches 0.84."""
    tokens = text.split()
    span = max(2, len(tokens) // 10)
    while True:
        edited = list(tokens)
        start = rng.randrange(0, max(1, len(tokens) - span))
        for pos in range(start, min(start + span, len(tokens))):
            edited[pos] = rng.choice(OBJECTS).split()[-1]
        candidate = " ".join(edited)
        if shingle_jaccard(text, candidate) >= 0.84 or span <= 1:
            return candidate
        span -= 1


# -- instruction examples --------------------------------------------------------


def generate_labeled_examples(seed: int = 0, n: int = 20) -> List[LabeledExample]:
    rng = _rng(seed)
    out: List[LabeledExample] = []
    for i in range(n):
        meta = {
            "document_type": rng.choice(DOC_TYPES),
            "date": f"twenty {rng.choice(('first', 'second', 'third'))} of june",
            "judge": rng.choice(JUDGES),
        }
        out.append(
            LabeledExample(
                id=f"ex-{i:04d}",
                input_text=legal_paragraph(rng, sentences=3) + " Is it legal?",
                label=rng.choice(LABELS),
                meta=meta,
                task_type="classification",
            )
        )
    return out


def generate_instruction_documents(seed: int = 0, n: int = 40) -> List[Document]:
    """Stub-extended conversations flattened into corpus documents, ready to
    blend into a pretraining mix."""
    stub = StubChatBackend()
    examples = generate_labeled_examples(seed=seed, n=n)
    conversations = [
        extend_conversation(scaffold_conversation(ex), stub, extra_turn_pairs=2)
        for ex in examples
    ]
    return conversations_to_documents(conversations)


# -- benchmark task suite -------------------------------------------------------------

_TASK_SPECS = (
    ("privacy_issue", "issue_spotting", ["Yes", "No"],
     "Decide whether the situation raises a data-privacy concern."),
    ("notice_rule", "rule_recall", ["Yes", "No"],
     "Decide whether the governing rule requires advance written notice."),
    ("clause_reading", "interpretation", ["A", "B", "C"],
     "Pick the reading of the quoted clause that best matches its plain text."),
    ("argument_tone", "rhetoric_understanding", ["Yes", "No"],
     "Decide whether the passage argues in favor of the moving party."),
    ("breach_outcome", "rule_conclusion", ["Yes", "No"],
     "Applying the stated rule to the facts, decide whether there was a breach."),
)


def build_task_suite(seed: int = 0) -> List[EvalTask]:
    """Miniature synthetic benchmark: one task per legal-ability category,
    six instances each (gold labels drawn uniformly)."""
    rng = _rng(seed)
    tasks: List[EvalTask] = []
    for name, category, label_set, preamble in _TASK_SPECS:
        instances = []
        for _ in range(6):
            text = legal_paragraph(rng, sentences=2)
            instances.append((text, rng.choice(label_set)))
        tasks.append(
            EvalTask(
                name=name,
                category=category,
                label_set=list(label_set),
                prompt_template=curated_template(preamble, label_set),
                instances=instances,
            )
        )
    return tasks


def write_task_suite(task_dir: str | Path, seed: int = 0) -> None:
    task_dir = Path(task_dir)
    task_dir.mkdir(parents=True, exist_ok=True)
    for task in build_task_suite(seed=seed):
        save_task(task, task_dir / f"{task.name}.json")


MMLU_COUNTS = {"international_law": 120, "professional_law": 1500, "jurisprudence": 110}


def write_mmlu_csvs(data_dir: str | Path, seed: int = 0) -> None:
    """Write <subject>_test.csv files in the standard headerless MMLU shape,
    with the row counts of the real legal subjects (120 / 1500 / 110)."""
    import csv as _csv

    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed)
    for subject, n_rows in MMLU_COUNTS.items():
        with open(data_dir / f"{subject}_test.csv", "w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh)
            for _ in range(n_rows):
                question = legal_sentence(rng)[:-1] + "?"
                choices = [" ".join(legal_sentence(rng).split()[:4]) for _ in range(4)]
                writer.writerow([question, *choices, rng.choice("ABCD")])


# -- pipeline inputs ---------------------------------------------------------------


def generate_pipeline_corpus(seed: int = 0, n_docs: int = 1000) -> List[Document]:
    """Main corpus for the end-to-end pipeline demo: clean legal documents
    and replay documents, a slice with planted artifacts, a slice with
    gibberish paragraphs, exact and near duplicates, and stub instruction
    conversations."""
    rng = _rng(seed)
    docs: List[Document] = []

    n_instr = max(10, n_docs // 25)
    n_replay = max(20, n_docs // 8)
    n_art = max(10, n_docs // 20)
    n_gib = max(6, n_docs // 30)
    n_exact = max(6, n_docs // 40)
    n_near = max(4, n_docs // 50)
    n_legal = n_docs - n_instr - n_replay - n_art - n_gib - n_exact - n_near

    for i in range(n_legal):
        docs.append(make_doc(f"legal-{i:05d}", "freelaw", legal_text(rng, rng.randint(2, 4))))
    for i in range(n_replay):
        docs.append(make_doc(f"replay-{i:05d}", "wikipedia", legal_text(rng, rng.randint(1, 3))))
    for i in range(n_art):
        artifact = rng.choice(RUN_ARTIFACTS)
        tag = rng.choice(HTML_ARTIFACTS)
        text = (
            legal_paragraph(rng) + "\n" + artifact + "\n" + tag + legal_paragraph(rng)
        )
        docs.append(make_doc(f"arty-{i:05d}", "freelaw", text))
    for i in range(n_gib):
        if i % 3 == 0:
            text = gibberish_paragraph(rng)  # whole document is junk
        else:
            text = legal_paragraph(rng) + "\n\n" + gibberish_paragraph(rng)
        docs.append(make_doc(f"gibby-{i:05d}", "freelaw", text))
    for i in range(n_exact):
        docs.append(make_doc(f"copy-{i:05d}", "freelaw", docs[i].text))
    for i in range(n_near):
        source_doc = docs[n_exact + i]
        docs.append(make_doc(f"close-{i:05d}", "freelaw", _near_copy(rng, source_doc.text)))
    docs.extend(generate_instruction_documents(seed=seed + 17, n=n_instr))
    rng.shuffle(docs)
    return docs


def write_pipeline_inputs(out_dir: str | Path, seed: int = 7, n_docs: int = 1000) -> Dict[str, Path]:
    """Materialize everything the CLI demo needs: seed corpus, main corpus,
    labeled examples, benchmark task suite, MMLU CSVs, and a pipeline config
    wired to relative paths inside out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}

    seed_docs = generate_seed_corpus(seed=seed, min_tokens=25_000)
    paths["seed_corpus"] = out_dir / "seed.jsonl"
    write_documents(seed_docs, paths["seed_corpus"])

    corpus = generate_pipeline_corpus(seed=seed, n_docs=n_docs)
    paths["corpus"] = out_dir / "corpus.jsonl"
    write_documents(corpus, paths["corpus"])

    examples = generate_labeled_examples(seed=seed, n=24)
    paths["examples"] = out_dir / "examples.jsonl"
    lines = (json.dumps(asdict(ex), ensure_ascii=False, sort_keys=True) for ex in examples)
    write_lines(lines, paths["examples"])

    paths["task_dir"] = out_dir / "tasks"
    write_task_suite(paths["task_dir"], seed=seed)
    paths["mmlu_dir"] = out_dir / "mmlu"
    write_mmlu_csvs(paths["mmlu_dir"], seed=seed)

    config = {
        "seed": seed,
        "paths": {
            "corpus": "corpus.jsonl",
            "seed_corpus": "seed.jsonl",
            "out_dir": "out",
        },
        "cleaning": {"ruleset": None},
        "lm": {"order": 3, "percentile": 99.0},
        "dedup": {"shingle_n": 5, "permutations": 128, "threshold": 0.7},
        "mix": {
            "entries": [
                {"source": "freelaw", "fraction": 0.96},
                {"source": "wikipedia", "fraction": 0.02},
                {"source": "instruction", "fraction": 0.02},
            ],
            "token_budget": 30_000,
        },
    }
    paths["config"] = out_dir / "config.json"
    write_lines([json.dumps(config, indent=2, sort_keys=True)], paths["config"])
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m lexcorpus.synthdata",
        description="Write the deterministic synthetic demo inputs.",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--docs", type=int, default=1000, help="main corpus size")
    args = parser.parse_args(argv)
    paths = write_pipeline_inputs(args.out, seed=args.seed, n_docs=args.docs)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
