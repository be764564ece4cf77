"""Seeded fixtures with known answers, shared by the test modules.

Each generator records what it planted: the artifacts in a corpus and the
sentences that must survive cleaning, the in-domain and gibberish halves of
a perplexity evaluation set, or the exact and near copies of a dedup corpus,
so a test can check the code under test against that record. `dedup_docs`
runs the dedup index over a document list, the reference that the `dedup`
subcommand is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from lexcorpus.corpus import Document
from lexcorpus.dedup import DedupReport, _dedup_documents
from lexcorpus.synthdata import (
    HTML_ARTIFACTS,
    RUN_ARTIFACTS,
    _near_copy,
    generate_seed_corpus,
    gibberish_paragraph,
    legal_paragraph,
    legal_sentence,
    make_doc,
    shingle_jaccard,
)


# -- cleaning fixture -------------------------------------------------------------


@dataclass
class ArtifactFixture:
    docs: List[Document]
    clean_sentences: Dict[str, List[str]]
    planted: Dict[str, List[str]]
    artifact_total: int = 0


def generate_artifact_corpus(seed: int = 0, n_docs: int = 200) -> ArtifactFixture:
    """Corpus with pdf-extraction style artifacts planted between and around
    known-clean sentences. Records exactly which artifact strings went into
    each document and the sentences that must survive cleaning untouched."""
    rng = random.Random(seed)
    fixture = ArtifactFixture(docs=[], clean_sentences={}, planted={})
    for i in range(n_docs):
        doc_id = f"art-{i:05d}"
        sentences = [legal_sentence(rng) for _ in range(rng.randint(3, 6))]
        planted: List[str] = []
        pieces: List[str] = []
        for j, sentence in enumerate(sentences):
            if rng.random() < 0.5:
                artifact = rng.choice(RUN_ARTIFACTS)
                planted.append(artifact)
                # standalone separator line before the sentence
                pieces.append(artifact + "\n" + sentence)
            elif rng.random() < 0.4:
                tag = rng.choice(HTML_ARTIFACTS)
                planted.append(tag)
                pieces.append(tag + sentence)
            else:
                pieces.append(sentence)
            if j + 1 < len(sentences) and rng.random() < 0.3:
                # repeated whitespace between sentences
                pieces[-1] = pieces[-1] + ("  " if rng.random() < 0.5 else "\t\t")
        text = " ".join(pieces)
        if rng.random() < 0.2:
            extra = rng.choice(RUN_ARTIFACTS)
            planted.append(extra)
            text = text + "\n" + extra
        fixture.docs.append(make_doc(doc_id, "freelaw", text))
        fixture.clean_sentences[doc_id] = sentences
        fixture.planted[doc_id] = planted
        fixture.artifact_total += len(planted)
    return fixture


# -- perplexity fixture -------------------------------------------------------------


@dataclass
class PplFixture:
    seed_docs: List[Document]
    in_domain: List[Document]
    gibberish: List[Document]


def generate_ppl_fixture(seed: int = 0, seed_docs: int = 150, n_eval: int = 10) -> PplFixture:
    """Seed corpus plus an evaluation set of in-domain and gibberish
    paragraphs. In-domain paragraphs re-use sentences that literally occur in
    the seed corpus, so their perplexity sits well inside the calibrated
    threshold; gibberish paragraphs are random character strings."""
    corpus = generate_seed_corpus(seed=seed, docs=seed_docs)
    rng = random.Random(seed + 1)
    # pool whole paragraphs rather than loose sentences: the in-domain
    # evaluation docs must also re-use sentence *transitions* the model saw,
    # or the junction n-grams alone push them over a tight threshold
    pool: List[str] = []
    for doc in corpus:
        pool.extend(doc.text.split("\n\n"))
    in_domain = [
        make_doc(f"eval-in-{i:03d}", "freelaw", rng.choice(pool))
        for i in range(n_eval)
    ]
    gibberish = [
        make_doc(f"eval-gib-{i:03d}", "freelaw", gibberish_paragraph(rng, tokens=35))
        for i in range(n_eval)
    ]
    return PplFixture(seed_docs=corpus, in_domain=in_domain, gibberish=gibberish)


# -- dedup fixture ---------------------------------------------------------------


@dataclass
class DedupFixture:
    docs: List[Document]
    exact_pairs: List[Tuple[str, str]] = field(default_factory=list)
    near_pairs: List[Tuple[str, str]] = field(default_factory=list)


def generate_dedup_fixture(
    seed: int = 0, n_base: int = 70, n_exact: int = 20, n_near: int = 10
) -> DedupFixture:
    """n_base originals followed by n_exact byte-identical copies and n_near
    near-duplicates with true shingle Jaccard >= 0.8 (verified during
    generation). Originals precede their copies in stream order."""
    if n_exact + n_near > n_base:
        raise ValueError("need at least one distinct original per duplicate")
    rng = random.Random(seed)
    fixture = DedupFixture(docs=[])
    originals: List[Document] = []
    for i in range(n_base):
        # near-dup sources are long so a contiguous rewrite keeps Jaccard high
        sentences = rng.randint(30, 40) if n_exact <= i < n_exact + n_near else rng.randint(8, 14)
        text = legal_paragraph(rng, sentences=sentences)
        doc = make_doc(f"base-{i:04d}", "freelaw", text)
        originals.append(doc)
        fixture.docs.append(doc)
    for i in range(n_exact):
        orig = originals[i]
        dup = make_doc(f"exact-{i:04d}", "freelaw", orig.text)
        fixture.docs.append(dup)
        fixture.exact_pairs.append((orig.id, dup.id))
    for i in range(n_near):
        orig = originals[n_exact + i]
        near_text = _near_copy(rng, orig.text)
        assert shingle_jaccard(orig.text, near_text) >= 0.8
        dup = make_doc(f"near-{i:04d}", "freelaw", near_text)
        fixture.docs.append(dup)
        fixture.near_pairs.append((orig.id, dup.id))
    return fixture


def dedup_docs(
    docs: Iterable[Document], exact_only: bool = False, **options
) -> Tuple[List[Document], DedupReport]:
    """What `lexcorpus dedup` keeps of `docs`: exact dedup, then near dedup
    of the survivors unless `exact_only`, with `options` as Deduplicator
    takes them. Returns the survivors in stream order and the one report of
    both passes, exact clusters first."""
    return _dedup_documents(docs, None, near=not exact_only, **options)


# -- mix inputs ------------------------------------------------------------------


def generate_mix_inputs(
    seed: int = 0,
    fractions: Optional[Dict[str, float]] = None,
    token_budget: int = 1_000_000,
    headroom: float = 1.2,
) -> Dict[str, List[Document]]:
    """Per-source corpora with enough whitespace tokens to satisfy a mix at
    the given budget (each source gets fraction*budget*headroom tokens)."""
    fractions = fractions or {"legal": 0.98, "replay": 0.02}
    out: Dict[str, List[Document]] = {}
    for idx, (name, fraction) in enumerate(fractions.items()):
        rng = random.Random(seed + 1000 * idx)
        need = int(fraction * token_budget * headroom)
        docs: List[Document] = []
        total = 0
        i = 0
        while total < need:
            text = legal_paragraph(rng, sentences=rng.randint(8, 18))
            doc = make_doc(f"{name}-{i:06d}", name, text)
            docs.append(doc)
            total += len(text.split())
            i += 1
        out[name] = docs
    return out
