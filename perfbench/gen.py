"""Seeded input generation for the benchmark workloads.

Runs in its own process, before any measured process starts, so that
neither `setup_s` nor `peak_rss_mib` includes generation:

    python3 perfbench/gen.py --workload pipeline-20k --seed 1 --out DIR

Every workload writes its corpus files into DIR plus `inputs.json`, which
records the input token count, the file names, and the ground truth its
output check needs. The same workload, seed and sizes give the same bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path
from typing import Dict, List

from lexcorpus import cleaning, synthdata
from lexcorpus.corpus import Document, read_documents, write_documents

# Sizes of the published workloads; tests pass smaller ones.
SIZES: Dict[str, dict] = {
    "pipeline-20k": {"docs": 20_000},
    "ppl-order5": {"seed_tokens": 300_000, "docs": 10_000},
    "dedup-dense": {"templates": 40, "copies": 150, "sentences": 12, "max_edits": 7},
    "clean-io": {"docs": 30_000},
}
WORKLOADS = tuple(SIZES)

# Artifacts generate_pipeline_corpus plants; none may survive rule cleaning.
ARTIFACTS = synthdata.RUN_ARTIFACTS + synthdata.HTML_ARTIFACTS


def _tokens(docs: List[Document]) -> int:
    return sum(len(doc.text.split()) for doc in docs)


def _cleaned(docs: List[Document]) -> List[Document]:
    rules = cleaning.build_default_ruleset()
    out = []
    for doc in docs:
        text = cleaning.clean_text(doc.text, rules)
        if text:
            out.append(synthdata.make_doc(doc.id, doc.source.name, text))
    return out


def gen_pipeline(out: Path, seed: int, docs: int) -> dict:
    paths = synthdata.write_pipeline_inputs(out, seed=seed, n_docs=docs)
    corpus = list(read_documents(paths["corpus"]))
    return {
        "config": paths["config"].name,
        "corpus": paths["corpus"].name,
        "docs": len(corpus),
        "tokens": _tokens(corpus),
    }


def gen_ppl(out: Path, seed: int, seed_tokens: int, docs: int) -> dict:
    """Pre-cleaned seed corpus for an order-5 model and a pre-cleaned
    pipeline corpus to filter. A paragraph none of whose tokens occur in the
    seed corpus is planted gibberish; the check requires every one dropped."""
    seed_docs = _cleaned(synthdata.generate_seed_corpus(seed=seed, min_tokens=seed_tokens))
    corpus = _cleaned(synthdata.generate_pipeline_corpus(seed=seed, n_docs=docs))
    write_documents(seed_docs, out / "seed.jsonl")
    write_documents(corpus, out / "corpus.jsonl")
    vocab = {t for doc in seed_docs for t in doc.text.split()}
    gibberish: Dict[str, List[str]] = {}
    for doc in corpus:
        for para in cleaning.split_paragraphs(doc.text):
            if vocab.isdisjoint(para.split()):
                gibberish.setdefault(doc.id, []).append(para)
    if not gibberish:
        raise RuntimeError("ppl-order5 corpus has no gibberish paragraphs to check")
    return {
        "seed_corpus": "seed.jsonl",
        "corpus": "corpus.jsonl",
        "docs": len(corpus),
        "tokens": _tokens(corpus),
        "gibberish": gibberish,
    }


def gen_dedup(out: Path, seed: int, templates: int, copies: int, sentences: int, max_edits: int) -> dict:
    """Boilerplate filings: each template is followed later in the stream by
    `copies` copies with 0..max_edits tokens replaced (0 edits gives an exact
    copy). Templates come first, so each one survives its own cluster."""
    rng = random.Random(seed)
    words = sorted({w for phrase in synthdata.SUBJECTS + synthdata.OBJECTS for w in phrase.split()})
    texts = [synthdata.legal_paragraph(rng, sentences=sentences) for _ in range(templates)]
    docs = [synthdata.make_doc(f"tpl-{i:04d}", "freelaw", text) for i, text in enumerate(texts)]
    truth: Dict[str, list] = {doc.id: [i, 1.0] for i, doc in enumerate(docs)}
    copy_docs = []
    for i, text in enumerate(texts):
        tokens = text.split()
        for j in range(copies):
            edited = list(tokens)
            for pos in rng.sample(range(len(tokens)), rng.randint(0, max_edits)):
                edited[pos] = rng.choice(words)
            copy_text = " ".join(edited)
            doc = synthdata.make_doc(f"cp-{i:04d}-{j:04d}", "freelaw", copy_text)
            copy_docs.append(doc)
            truth[doc.id] = [i, synthdata.shingle_jaccard(text, copy_text)]
    rng.shuffle(copy_docs)
    docs.extend(copy_docs)
    write_documents(docs, out / "corpus.jsonl")
    return {
        "corpus": "corpus.jsonl",
        "docs": len(docs),
        "tokens": _tokens(docs),
        "truth": truth,
    }


def gen_clean(out: Path, seed: int, docs: int) -> dict:
    corpus = synthdata.generate_pipeline_corpus(seed=seed, n_docs=docs)
    write_documents(corpus, out / "corpus.jsonl")
    planted = sum(1 for doc in corpus if any(a in doc.text for a in ARTIFACTS))
    if not planted:
        raise RuntimeError("clean-io corpus has no planted artifacts to check")
    return {"corpus": "corpus.jsonl", "docs": len(corpus), "tokens": _tokens(corpus), "planted": planted}


GENERATORS = {
    "pipeline-20k": gen_pipeline,
    "ppl-order5": gen_ppl,
    "dedup-dense": gen_dedup,
    "clean-io": gen_clean,
}


def generate(workload: str, seed: int, out: Path, sizes: dict | None = None) -> dict:
    """Write the workload's inputs into `out` (replaced if present) and
    return the metadata also written to `out/inputs.json`. The directory is
    filled under a temporary name and renamed, so a present `inputs.json`
    means complete inputs."""
    out = Path(out)
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = GENERATORS[workload](tmp, seed, **(sizes or SIZES[workload]))
    meta.update({"workload": workload, "seed": seed})
    (tmp / "inputs.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    # Compile every module once here, so no measured process pays for it.
    import lexcorpus.cli  # noqa: F401
    return 0


if __name__ == "__main__":
    sys.exit(main())
