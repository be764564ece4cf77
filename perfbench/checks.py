"""Output checks, one per workload, run in the parent after the measured
process has exited. Each returns a list of problems; empty means correct."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List

from lexcorpus import cleaning
from lexcorpus.corpus import CorpusError, read_documents

from gen import ARTIFACTS

# A copy this similar to its template must be removed: at 128 permutations
# the MinHash estimate falls below the 0.7 threshold with probability ~1e-6.
CLEAR_JACCARD = 0.85


def _texts(path: Path) -> Dict[str, str]:
    return {doc.id: doc.text for doc in read_documents(path, strict=True)}


def _tokens(texts: Dict[str, str]) -> int:
    return sum(len(text.split()) for text in texts.values())


def _report_tokens(report: dict) -> tuple:
    kept = sum(b["kept_tokens"] for b in report["per_source"].values())
    dropped = sum(b["dropped_tokens"] for b in report["per_source"].values())
    return kept, dropped


def check_pipeline(meta: dict, out: Path) -> List[str]:
    problems = []
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    stages = {s["stage"]: s for s in manifest["stages"]}
    if list(stages) != ["normalize", "filter-rules", "train-lm", "filter-ppl", "dedup", "mix"]:
        problems.append(f"run_manifest stages are {list(stages)}")
        return problems
    kept, dropped = _report_tokens(report)
    filter_input = _tokens(_texts(out / "02_rulefiltered.jsonl"))
    if kept + dropped != filter_input or filter_input != stages["filter-rules"]["tokens"]:
        problems.append(
            f"filter_report kept {kept} + dropped {dropped} tokens != filter input {filter_input} "
            f"(manifest says {stages['filter-rules']['tokens']})"
        )
    if kept != _tokens(_texts(out / "03_pplfiltered.jsonl")):
        problems.append("filter_report kept_tokens disagrees with 03_pplfiltered.jsonl")
    if dropped != _tokens(_texts(out / "03_dropped.jsonl")):
        problems.append("filter_report dropped_tokens disagrees with 03_dropped.jsonl")
    return problems


def check_ppl(meta: dict, out: Path) -> List[str]:
    problems = []
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    kept_texts = _texts(out / "kept.jsonl")
    dropped_texts = _texts(out / "dropped.jsonl")
    kept, dropped = _report_tokens(report)
    if (kept, dropped) != (_tokens(kept_texts), _tokens(dropped_texts)) or kept + dropped != meta["tokens"]:
        problems.append(f"kept {kept} + dropped {dropped} tokens != input {meta['tokens']}")
    for doc_id, paragraphs in meta["gibberish"].items():
        dropped_paras = set(cleaning.split_paragraphs(dropped_texts.get(doc_id, "")))
        kept_paras = set(cleaning.split_paragraphs(kept_texts.get(doc_id, "")))
        for para in paragraphs:
            if para not in dropped_paras or para in kept_paras:
                problems.append(f"gibberish paragraph of {doc_id} was kept")
    return problems


def check_dedup(meta: dict, out: Path) -> List[str]:
    problems = []
    truth = meta["truth"]
    report = json.loads((out / "dedup_report.json").read_text(encoding="utf-8"))
    kept_ids = set(_texts(out / "deduped.jsonl"))
    removed = {rid for cluster in report["clusters"] for rid in cluster["removed"]}
    if kept_ids | removed != set(truth) or kept_ids & removed:
        problems.append("deduped output plus removed ids is not the input")
    if len(removed) != report["exact_removed"] + report["near_removed"]:
        problems.append("removed counts disagree with the clusters")
    for cluster in report["clusters"]:
        families = {truth[i][0] for i in [cluster["kept"], *cluster["removed"]]}
        if len(families) > 1:
            problems.append(f"cluster of {cluster['kept']} mixes templates {sorted(families)}")
    for doc_id, (family, jaccard) in truth.items():
        if doc_id.startswith("tpl-"):
            if doc_id not in kept_ids:
                problems.append(f"template {doc_id} was removed")
        elif jaccard >= CLEAR_JACCARD and doc_id not in removed:
            problems.append(f"{doc_id} (Jaccard {jaccard:.3f} to its template) survived")
    return problems


_NORMALIZED = re.compile(r"normalized (\d+) documents \((\d+) emptied\)")
_FILTERED = re.compile(r"rule-filtered (\d+) documents kept, (\d+) emptied")


def check_clean(meta: dict, out: Path) -> List[str]:
    problems = []
    printed = (out / "stdout.txt").read_text(encoding="utf-8")
    normalized, filtered = _NORMALIZED.search(printed), _FILTERED.search(printed)
    if not normalized or not filtered:
        return [f"unexpected subcommand output: {printed!r}"]
    n_norm, e_norm = map(int, normalized.groups())
    n_kept, e_rules = map(int, filtered.groups())
    normalized_texts = _texts(out / "normalized.jsonl")
    texts = _texts(out / "filtered.jsonl")
    if meta["docs"] != n_norm + e_norm or n_norm != len(normalized_texts):
        problems.append(f"normalize: {meta['docs']} docs in != {n_norm} out + {e_norm} emptied")
    if n_norm != n_kept + e_rules or n_kept != len(texts):
        problems.append(f"filter-rules: {n_norm} docs in != {n_kept} out + {e_rules} emptied")
    rules = cleaning.build_default_ruleset()
    for doc_id, text in texts.items():
        if any(artifact in text for artifact in ARTIFACTS):
            problems.append(f"{doc_id} keeps a planted artifact")
        if cleaning.clean_text(text, rules) != text:
            problems.append(f"clean_text is not a fixed point on {doc_id}")
    return problems


CHECKS = {
    "pipeline-20k": check_pipeline,
    "ppl-order5": check_ppl,
    "dedup-dense": check_dedup,
    "clean-io": check_clean,
}


def check(workload: str, inputs: Path, out: Path) -> List[str]:
    """Problems with one pass's outputs; an exception counts as one."""
    meta = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
    try:
        return CHECKS[workload](meta, out)
    except (OSError, ValueError, KeyError, CorpusError) as exc:
        return [f"output unreadable: {exc!r}"]


def digests(out: Path) -> Dict[str, str]:
    """SHA-256 of every file a pass wrote, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
