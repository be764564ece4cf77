"""Benchmark harness: prompt curation, answer parsing, balanced accuracy,
and perplexity-by-category reporting.

Tasks are small JSON files (name, category, label set, curated prompt
template with a {text} placeholder, instances). The harness renders the
prompt per instance, queries a chat backend, parses the earliest label
mention out of the reply, and aggregates balanced accuracy per task, per
legal-ability category, and overall. Backend failures become ABSTAIN
records with a reason instead of aborting the run.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .corpus import Document, InputError, load_json, report_json, write_lines
from .instruct import BackendError, ChatBackend, MalformedResponseError
from .lm import ScoreError, perplexity

CATEGORIES = (
    "issue_spotting",
    "rule_recall",
    "interpretation",
    "rhetoric_understanding",
    "rule_conclusion",
    "mmlu_legal",
)

ABSTAIN = "ABSTAIN"

PLACEHOLDER = "{text}"

MMLU_LEGAL_SUBJECTS = ("international_law", "professional_law", "jurisprudence")


class CurationError(InputError):
    """Prompt structure not recognizable; nothing was silently passed through."""


class TaskFormatError(InputError):
    """Malformed task file."""


@dataclass
class EvalTask:
    name: str
    category: str
    label_set: List[str]
    prompt_template: str
    instances: List[Tuple[str, str]]

    def __post_init__(self):
        fields = [self.name, self.category, self.prompt_template, *self.label_set, *itertools.chain(*self.instances)]
        if not all(isinstance(value, str) for value in fields):
            raise TypeError(f"task {self.name!r}: name, category, template, labels and instances must be strings")
        if self.category not in CATEGORIES:
            raise TaskFormatError(f"task {self.name!r}: unknown category {self.category!r}")
        if not self.instances:
            raise TaskFormatError(f"task {self.name!r}: no instances")
        if len(self.label_set) < 2:
            raise TaskFormatError(f"task {self.name!r}: need at least two labels")
        if self.prompt_template.count(PLACEHOLDER) != 1:
            raise TaskFormatError(
                f"task {self.name!r}: prompt template must contain exactly one {PLACEHOLDER}"
            )
        labels = set(self.label_set)
        for i, (_, gold) in enumerate(self.instances):
            if gold not in labels:
                raise TaskFormatError(f"task {self.name!r}: instance {i} gold {gold!r} not in label set")

    def render_prompt(self, text: str) -> str:
        return self.prompt_template.replace(PLACEHOLDER, text)


def load_task(path: str | Path) -> EvalTask:
    def build(payload: dict) -> EvalTask:
        return EvalTask(
            name=payload["name"],
            category=payload["category"],
            label_set=list(payload["label_set"]),
            prompt_template=payload["prompt_template"],
            instances=[(inst["text"], inst["label"]) for inst in payload["instances"]],
        )

    return load_json(path, "task file", TaskFormatError, build)


def load_tasks(task_dir: str | Path) -> List[EvalTask]:
    paths = sorted(Path(task_dir).glob("*.json"))
    if not paths:
        raise TaskFormatError(f"no task files under {task_dir}")
    return [load_task(p) for p in paths]


def save_task(task: EvalTask, path: str | Path) -> None:
    payload = asdict(task)
    payload["instances"] = [{"text": text, "label": label} for text, label in task.instances]
    write_lines([json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)], path)


# -- prompt curation -----------------------------------------------------------


def closing_instruction(label_set: Sequence[str]) -> str:
    """The tag-generation instruction appended to every curated prompt,
    enumerating the permitted labels in label-set order."""
    if len(label_set) < 2:
        raise CurationError("need at least two labels for an answer instruction")
    quoted = [f'"{label}"' for label in label_set]
    enumerated = ", ".join(quoted[:-1]) + f" or {quoted[-1]}"
    return f"Answer by only outputting {enumerated}"


def curated_template(preamble: str, label_set: Sequence[str]) -> str:
    """The curated prompt's layout: the preamble (if any), the input
    placeholder and the closing instruction, a blank line apart."""
    parts = [preamble, f"Answer the following question: {PLACEHOLDER}", closing_instruction(label_set)]
    return "\n\n".join(filter(None, parts))

_QA_BLOCK = re.compile(r"(?ms)^[ \t]*Question:.*?^[ \t]*Answer:[^\n]*\n?")


def curate_prompt(original: str, label_set: Sequence[str]) -> str:
    """Rewrite a few-shot benchmark prompt into the curated form: preamble
    kept, every Question/Answer block dropped, a single input placeholder,
    and a closing instruction telling the model to answer with a tag only.

    Raises CurationError when the prompt has neither Question/Answer blocks
    nor a {text} placeholder, rather than passing anything through silently.
    """
    blocks = list(_QA_BLOCK.finditer(original))
    if blocks:
        curated = curated_template(original[: blocks[0].start()].strip(), label_set)
    elif PLACEHOLDER in original:
        curated = original.strip()
        # already-curated prompts pass through unchanged (idempotence)
        if not curated.endswith(closing_instruction(label_set)):
            curated = curated + "\n\n" + closing_instruction(label_set)
    else:
        raise CurationError(
            "prompt has no Question/Answer blocks and no {text} placeholder; "
            "cannot locate where the instance text belongs"
        )
    if curated.count(PLACEHOLDER) != 1:
        raise CurationError(
            f"curated prompt would carry {curated.count(PLACEHOLDER)} placeholders, expected exactly 1"
        )
    return curated


# -- answer parsing and scoring -------------------------------------------------


def parse_answer(raw: str, label_set: Sequence[str]) -> str:
    """Earliest case-insensitive whole-word label mention, else ABSTAIN."""
    best_pos: Optional[int] = None
    best_label: Optional[str] = None
    for label in label_set:
        pattern = re.compile(rf"(?<!\w){re.escape(label)}(?!\w)", re.IGNORECASE)
        match = pattern.search(raw)
        if match and (best_pos is None or match.start() < best_pos):
            best_pos = match.start()
            best_label = label
    return best_label if best_label is not None else ABSTAIN


def balanced_accuracy(preds: Sequence[str], golds: Sequence[str]) -> float:
    """Mean per-gold-class recall; ABSTAIN and wrong labels both count
    against the gold class. Classes absent from golds do not enter the mean."""
    if not golds:
        raise ValueError("balanced accuracy of an empty prediction set is undefined")
    if len(preds) != len(golds):
        raise ValueError("preds and golds must have equal length")
    totals: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    for pred, gold in zip(preds, golds):
        totals[gold] = totals.get(gold, 0) + 1
        if pred == gold:
            hits[gold] = hits.get(gold, 0) + 1
    recalls = [hits.get(cls, 0) / count for cls, count in totals.items()]
    return sum(recalls) / len(recalls)


@dataclass
class PredictionRecord:
    task: str
    index: int
    raw_output: str
    parsed: str
    gold: str
    failure: Optional[str] = None

    def to_json(self) -> str:
        """One compact dump line; `failure` only when there is one."""
        payload = asdict(self)
        if not self.failure:
            del payload["failure"]
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)


@dataclass
class EvalReport:
    per_task: Dict[str, float]
    per_category: Dict[str, float]
    overall: float
    abstain_rate: float

    def to_json(self) -> str:
        return report_json(self)

    def render_table(self) -> str:
        width = max([len("task")] + [len(name) for name in self.per_task])
        lines = [f"{'task'.ljust(width)}  balanced_accuracy"]
        for name in sorted(self.per_task):
            lines.append(f"{name.ljust(width)}  {self.per_task[name]:.4f}")
        lines.append("")
        for category in sorted(self.per_category):
            lines.append(f"category {category}: {self.per_category[category]:.4f}")
        lines.append(f"overall: {self.overall:.4f}")
        lines.append(f"abstain rate: {self.abstain_rate:.4f}")
        return "\n".join(lines)


def run_benchmark(
    tasks: Sequence[EvalTask],
    backend: ChatBackend,
    concurrency: int = 4,
) -> Tuple[EvalReport, List[PredictionRecord]]:
    """Render, query, parse, and score every instance of every task.

    Backend failures are recorded as ABSTAIN with the failure reason and the
    run continues. Records are sorted by (task, index) before aggregation,
    so a fixed backend yields a bit-identical report and dump. Two tasks of
    one name, whose records would merge, raise TaskFormatError.
    """
    names: set = set()
    for task in tasks:
        if task.name in names:
            raise TaskFormatError(f"two tasks are named {task.name!r}")
        names.add(task.name)
    jobs = [
        (task, idx, text, gold)
        for task in tasks
        for idx, (text, gold) in enumerate(task.instances)
    ]

    def _one(job) -> PredictionRecord:
        task, idx, text, gold = job
        prompt = task.render_prompt(text)
        try:
            raw = backend.complete([{"role": "user", "content": prompt}], role_hint="assistant")
        except BackendError as exc:
            reason = "malformed_response" if isinstance(exc, MalformedResponseError) else "backend"
            return PredictionRecord(
                task=task.name, index=idx, raw_output="", parsed=ABSTAIN, gold=gold,
                failure=f"{reason}: {exc}",
            )
        return PredictionRecord(
            task=task.name, index=idx, raw_output=raw,
            parsed=parse_answer(raw, task.label_set), gold=gold,
        )

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        records = list(pool.map(_one, jobs))
    records.sort(key=lambda r: (r.task, r.index))

    by_task: Dict[str, List[PredictionRecord]] = {}
    for record in records:
        by_task.setdefault(record.task, []).append(record)
    per_task: Dict[str, float] = {}
    category_scores: Dict[str, List[float]] = {}
    for task in tasks:
        task_records = by_task[task.name]
        score = balanced_accuracy([r.parsed for r in task_records], [r.gold for r in task_records])
        per_task[task.name] = score
        category_scores.setdefault(task.category, []).append(score)
    per_category = {cat: sum(scores) / len(scores) for cat, scores in category_scores.items()}
    overall = sum(per_task.values()) / len(per_task)
    abstains = sum(1 for r in records if r.parsed == ABSTAIN)
    report = EvalReport(
        per_task=per_task,
        per_category=per_category,
        overall=overall,
        abstain_rate=abstains / len(records),
    )
    return report, records


def write_prediction_dump(records: Iterable[PredictionRecord], path: str | Path) -> None:
    write_lines((record.to_json() for record in records), path)


# -- MMLU legal loader ----------------------------------------------------------


def load_mmlu_legal(data_dir: str | Path) -> List[EvalTask]:
    """Load the three legal MMLU subjects from <subject>_test.csv files in
    the standard headerless format (question, four choices, answer letter)."""
    label_set = ["A", "B", "C", "D"]
    tasks: List[EvalTask] = []
    for subject in MMLU_LEGAL_SUBJECTS:
        path = Path(data_dir) / f"{subject}_test.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing MMLU file: {path}")
        instances: List[Tuple[str, str]] = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                if len(row) != 6:
                    raise TaskFormatError(f"{path}: expected 6 columns, got {len(row)}")
                question, a, b, c, d, answer = row
                text = f"{question}\nA. {a}\nB. {b}\nC. {c}\nD. {d}"
                if answer not in label_set:
                    raise TaskFormatError(f"{path}: bad answer letter {answer!r}")
                instances.append((text, answer))
        tasks.append(
            EvalTask(
                name=f"mmlu_{subject}",
                category="mmlu_legal",
                label_set=list(label_set),
                prompt_template=curated_template(
                    f"The following is a multiple choice question about {subject.replace('_', ' ')}.", label_set
                ),
                instances=instances,
            )
        )
    return tasks


# -- perplexity report -----------------------------------------------------------


class LogProbScorer:
    """Per-token log-probability source for perplexity reporting."""

    name = "abstract"

    def token_log_probs(self, text: str) -> List[float]:
        raise NotImplementedError


class NgramScorer(LogProbScorer):
    def __init__(self, lm, name: str = "ngram"):
        self.lm = lm
        self.name = name

    def token_log_probs(self, text: str) -> List[float]:
        return self.lm.token_log_probs(text)


def _doc_perplexity(scorer: LogProbScorer, category: str, doc: Document) -> float:
    log_probs = scorer.token_log_probs(doc.text)
    if not log_probs:
        raise ScoreError(f"category {category!r}: document {doc.id!r} has no tokens to score")
    return perplexity(log_probs)


@dataclass
class PerplexityReport:
    scorer: str
    baseline: Optional[str]
    per_category: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        return report_json(self)

    def render_table(self) -> str:
        lines = []
        for category in sorted(self.per_category):
            stats = self.per_category[category]
            line = f"{category}: median {stats['median']:.4f}, IQR {stats['iqr']:.4f}"
            if "baseline_median" in stats:
                line += (
                    f" (baseline median {stats['baseline_median']:.4f},"
                    f" reduction {100.0 * stats['reduction']:.2f}%)"
                )
            lines.append(line)
        return "\n".join(lines)


def _median_iqr(values: List[float]) -> Tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q3 - q1


def perplexity_report(
    docs_by_category: Dict[str, Iterable[Document]],
    scorer: LogProbScorer,
    baseline: Optional[LogProbScorer] = None,
) -> PerplexityReport:
    """Per-category median perplexity and interquartile range under the
    scorer; with a baseline scorer, also the relative median reduction
    (baseline - scorer) / baseline per category. Each category's documents
    are read once, scored by both in one pass."""
    report = PerplexityReport(scorer=scorer.name, baseline=baseline.name if baseline else None)
    for category, docs in docs_by_category.items():
        ppls: List[float] = []
        base_ppls: List[float] = []
        for doc in docs:
            ppls.append(_doc_perplexity(scorer, category, doc))
            if baseline is not None:
                base_ppls.append(_doc_perplexity(baseline, category, doc))
        if not ppls:
            raise ValueError(f"category {category!r} has no documents")
        median, iqr = _median_iqr(ppls)
        stats: Dict[str, float] = {"median": median, "iqr": iqr, "documents": float(len(ppls))}
        if baseline is not None:
            base_median, base_iqr = _median_iqr(base_ppls)
            stats["baseline_median"] = base_median
            stats["baseline_iqr"] = base_iqr
            stats["reduction"] = relative_reduction(median, base_median)
        report.per_category[category] = stats
    return report


def relative_reduction(ours: float, base: float) -> float:
    """Relative median-perplexity reduction of `ours` against `base`."""
    if base == 0:
        raise ValueError("baseline median must be nonzero")
    return (base - ours) / base
