"""Interpolated Kneser-Ney n-gram language model and perplexity filtering.

The model exists to score text for corpus filtering, not to model legal
prose well. Training is a single pass: raw counts at the highest order,
continuation counts (number of distinct left extensions) at every lower
order, absolute discounts estimated per order from count-of-counts, and
the leftover discount mass interpolated with the next-lower order. The
bottom of the recursion interpolates the unigram distribution with a
uniform distribution over the predictable vocabulary (all known tokens,
the end-of-paragraph marker, and the unknown token), so every probability
is strictly positive and every conditional distribution sums to one.

Paragraphs are the sentence unit: each paragraph is padded with order-1
begin markers and one end marker before counting (no padding at order 1,
where markers carry no information).

Scoring does not recurse. The first call that scores compiles the counts
into integer-keyed tables, the ARPA/KenLM layout: each seen context gets a
node id keyed by its parent node (the context one token shorter on the
left) and its leftmost token, and stores its leftover mass; each seen
n-gram stores its discounted weight; order 1 is one list indexed by token
id. A token's probability is then built bottom-up, p = alpha + gamma * p
from the unigram to the longest context training saw, which is the same
floating-point arithmetic, in the same order, as the textbook recursion,
so log-probs are bit-identical to it. Training and loading do not pay for
the tables; only the counts are saved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cleaning import split_paragraphs
from .corpus import Document, Tokenizer, atomic_write

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
UNK_ID = 0
BOS_ID = 1
EOS_ID = 2

MODEL_FORMAT = "lexcorpus-knlm"
MODEL_VERSION = 1

NGram = Tuple[int, ...]

# Scoring tables, built from the counts on first use by NGramLM._compile.
# A node is a context seen in training; node 0 is the empty context, whose
# n-grams are the unigrams. With V the vocabulary size:
#   child[node * V + t]    node of the context t + (node's context)
#   gamma[node]            leftover mass d * distinct / total of the context
#   alpha[node * V + w]    discounted weight max(c - d, 0) / total of context + w
#   uni[w]                 p(w) at order 1: alpha[w] + gamma[0] * uniform
_Tables = Tuple[List[float], Dict[int, int], List[float], Dict[int, float]]


class TrainingError(Exception):
    """Seed corpus or parameters unusable for training."""


class ScoreError(Exception):
    """Text that cannot be scored (e.g. empty after tokenization)."""


@dataclass
class PerplexityScore:
    log_prob_sum: float
    token_count: int
    perplexity: float

    @classmethod
    def from_log_probs(cls, log_probs: Sequence[float]) -> "PerplexityScore":
        if not log_probs:
            raise ScoreError("cannot score zero tokens")
        total = math.fsum(log_probs)
        if total == float("-inf"):
            ppl = float("inf")
        else:
            ppl = math.exp(-total / len(log_probs))
        return cls(log_prob_sum=total, token_count=len(log_probs), perplexity=ppl)


class NGramLM:
    """Trained model state; immutable after training and safe to share
    between scoring threads (threads that score first may each build the
    tables, identically; the last one built is kept)."""

    def __init__(
        self,
        order: int,
        vocab: Dict[str, int],
        counts: List[Dict[NGram, int]],
        discounts: List[float],
    ):
        self.order = order
        self.vocab = vocab
        self.id_to_token = [""] * len(vocab)
        for token, idx in vocab.items():
            self.id_to_token[idx] = token
        # counts[k-1] maps k-gram id tuples to adjusted counts
        self.counts = counts
        self.discounts = discounts
        self._tables: Optional[_Tables] = None

    # -- probabilities ----------------------------------------------------

    def _compile(self) -> _Tables:
        """Build the scoring tables from the counts (see _Tables)."""
        V = len(self.vocab)
        child: Dict[int, int] = {}
        gamma: List[float] = []
        alpha: Dict[int, float] = {}
        shared: Dict[float, float] = {}  # equal weights share one float object
        totals: List[int] = []  # per node: count total and distinct successors
        distinct: List[int] = []
        parents: Dict[NGram, int] = {}
        for k in range(1, self.order + 1):
            d = self.discounts[k - 1]
            first = len(gamma)
            nodes: Dict[NGram, int] = {}
            gram_nodes: List[int] = []
            for gram, c in self.counts[k - 1].items():
                ctx = gram[:-1]
                node = nodes.get(ctx)
                if node is None:
                    node = nodes[ctx] = len(gamma)
                    if ctx:
                        parent = parents.get(ctx[1:])
                        if parent is None:
                            # train_lm's lower orders are continuation counts of the
                            # higher ones, so every context's suffix is a context too
                            raise ValueError(f"order-{k} context {ctx} has no order-{k - 1} suffix context")
                        child[parent * V + ctx[0]] = node
                    gamma.append(0.0)
                    totals.append(0)
                    distinct.append(0)
                totals[node] += c
                distinct[node] += 1
                gram_nodes.append(node)
            for (gram, c), node in zip(self.counts[k - 1].items(), gram_nodes):
                weight = max(c - d, 0.0) / totals[node]
                alpha[node * V + gram[-1]] = shared.setdefault(weight, weight)
            for node in range(first, len(gamma)):
                gamma[node] = d * distinct[node] / totals[node]
            parents = nodes
        # Order 1 is the empty context, node 0, over the uniform distribution
        # on every token but the begin marker; with no counts, just uniform.
        base = 1.0 / (V - 1)
        reserved = gamma[0] if gamma else 1.0
        uni = [alpha.get(w, 0.0) + reserved * base for w in range(V)]
        self._tables = (uni, child, gamma, alpha)
        return self._tables

    def _probs(self, context: List[int], words: Sequence[int]) -> List[float]:
        """p(w | the order-1 ids before it) for each id in `words`, where
        `context` holds the order-1 ids before words[0].

        Walks each context from the unigram up, one token further left per
        order, and stops at the first context training never saw: no longer
        context can have been seen either, because every count below the top
        order is a continuation count of a longer n-gram."""
        uni, child, gamma, alpha = self._tables or self._compile()
        V = len(uni)
        n = len(context)
        rev = (context + list(words))[::-1]
        end = len(rev)
        out: List[float] = []
        for w in words:
            p = uni[w]
            node = 0
            for t in rev[end - n : end]:
                node = child.get(node * V + t)
                if node is None:
                    break
                p = alpha.get(node * V + w, 0.0) + gamma[node] * p
            out.append(p)
            end -= 1
        return out

    def token_id(self, token: str) -> int:
        return self.vocab.get(token, UNK_ID)

    def probability(self, context: Sequence[str], token: str) -> float:
        """p(token | context), context truncated to order-1 most recent tokens."""
        n = self.order - 1
        ctx_ids = [BOS_ID] * n + [self.token_id(t) for t in context]
        return self._probs(ctx_ids[len(ctx_ids) - n :], [self.token_id(token)])[0]

    def predictable_tokens(self) -> List[str]:
        """All tokens a conditional distribution ranges over (begin marker excluded)."""
        return [t for t in self.id_to_token if t != BOS]

    def observed_contexts(self, order: Optional[int] = None) -> List[Tuple[str, ...]]:
        """Every context seen at `order` (default: the model's), in the order
        the counts first show it."""
        k = order or self.order
        contexts = dict.fromkeys(gram[:-1] for gram in self.counts[k - 1])
        return [tuple(self.id_to_token[i] for i in ctx) for ctx in contexts]

    # -- scoring -----------------------------------------------------------

    def paragraph_log_probs(self, tokens: Sequence[str]) -> List[float]:
        """Per-token log probabilities for one paragraph. End markers are
        used in training counts but not scored, so len(result) == len(tokens)."""
        probs = self._probs([BOS_ID] * (self.order - 1), [self.token_id(t) for t in tokens])
        return [math.log(p) if p > 0.0 else -math.inf for p in probs]

    def token_log_probs(self, text: str, tok: Tokenizer) -> List[float]:
        log_probs: List[float] = []
        for para in split_paragraphs(text):
            tokens = tok.tokenize(para)
            if tokens:
                log_probs.extend(self.paragraph_log_probs(tokens))
        return log_probs


def _estimate_discount(count_values: Iterable[int]) -> float:
    n1 = 0
    n2 = 0
    for c in count_values:
        if c == 1:
            n1 += 1
        elif c == 2:
            n2 += 1
    if n1 == 0:
        # Degenerate count-of-counts (tiny or highly repetitive corpora);
        # fall back to a mild discount so unseen mass stays positive.
        return 0.5
    return min(n1 / (n1 + 2.0 * n2), 1.0 - 1e-6)


def train_lm(
    docs: Iterable[Document],
    tok: Tokenizer,
    order: int = 5,
    discount: Optional[float] = None,
) -> NGramLM:
    """Train an interpolated Kneser-Ney model on a seed corpus.

    discount=None estimates per-order discounts via n1/(n1 + 2*n2); passing
    an explicit value (e.g. 0.0 to disable discounting for maximum-likelihood
    checks) applies it at every order.
    """
    if order < 1:
        raise TrainingError("order must be >= 1")
    if discount is not None and not 0.0 <= discount < 1.0:
        raise TrainingError("discount must lie in [0, 1)")

    vocab: Dict[str, int] = {UNK: UNK_ID, BOS: BOS_ID, EOS: EOS_ID}
    paragraphs: List[List[int]] = []
    for doc in docs:
        for para in split_paragraphs(doc.text):
            tokens = tok.tokenize(para)
            if not tokens:
                continue
            ids = []
            for t in tokens:
                if t not in vocab:
                    vocab[t] = len(vocab)
                ids.append(vocab[t])
            paragraphs.append(ids)
    if not paragraphs:
        raise TrainingError("seed corpus is empty after tokenization")

    counts: List[Dict[NGram, int]] = [dict() for _ in range(order)]
    top = counts[order - 1]
    if order == 1:
        for ids in paragraphs:
            for w in ids:
                key = (w,)
                top[key] = top.get(key, 0) + 1
    else:
        pad = (BOS_ID,) * (order - 1)
        for ids in paragraphs:
            seq = pad + tuple(ids) + (EOS_ID,)
            for i in range(len(seq) - order + 1):
                gram = seq[i : i + order]
                top[gram] = top.get(gram, 0) + 1
        # Continuation counts: at order k, count distinct left extensions
        # present at order k+1.
        for k in range(order - 1, 0, -1):
            lower = counts[k - 1]
            for gram in counts[k]:
                suffix = gram[1:]
                lower[suffix] = lower.get(suffix, 0) + 1

    if discount is not None:
        discounts = [discount] * order
    else:
        discounts = [_estimate_discount(counts[k].values()) for k in range(order)]

    return NGramLM(order=order, vocab=vocab, counts=counts, discounts=discounts)


def score(lm: NGramLM, text: str, tok: Tokenizer) -> PerplexityScore:
    """Perplexity of text under the model; unknown tokens map to <unk>."""
    return PerplexityScore.from_log_probs(lm.token_log_probs(text, tok))


# -- filtering --------------------------------------------------------------


@dataclass
class FilterReport:
    threshold: float
    granularity: str
    kept_docs: int = 0
    dropped_docs: int = 0
    per_source: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def _bucket(self, source: str) -> Dict[str, int]:
        return self.per_source.setdefault(source, {"kept_tokens": 0, "dropped_tokens": 0})

    def to_json(self) -> str:
        payload = {
            "threshold": self.threshold,
            "granularity": self.granularity,
            "kept_docs": self.kept_docs,
            "dropped_docs": self.dropped_docs,
            "per_source": self.per_source,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def filter_by_perplexity(
    docs: Iterable[Document],
    lm: NGramLM,
    tok: Tokenizer,
    threshold: float,
    granularity: str = "paragraph",
) -> Tuple[List[Document], List[Document], FilterReport]:
    """Split a corpus into kept and dropped parts by perplexity.

    At paragraph granularity each document is split on blank lines,
    paragraphs scoring above the threshold are dropped, and the document is
    reassembled from the survivors. The dropped stream carries the removed
    text under the original document id, so kept plus dropped token counts
    equal the input exactly.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if granularity not in ("paragraph", "document"):
        raise ValueError("granularity must be 'paragraph' or 'document'")

    report = FilterReport(threshold=threshold, granularity=granularity)
    kept_docs: List[Document] = []
    dropped_docs: List[Document] = []

    for doc in docs:
        bucket = report._bucket(doc.source.name)
        if granularity == "document":
            parts = [doc.text]
        else:
            parts = split_paragraphs(doc.text)
        kept_parts: List[str] = []
        dropped_parts: List[str] = []
        kept_tokens = 0
        dropped_tokens = 0
        for part in parts:
            tokens = tok.tokenize(part)
            if not tokens:
                kept_parts.append(part)
                continue
            ppl = PerplexityScore.from_log_probs(lm.paragraph_log_probs(tokens)).perplexity
            if ppl > threshold:
                dropped_parts.append(part)
                dropped_tokens += len(tokens)
            else:
                kept_parts.append(part)
                kept_tokens += len(tokens)
        bucket["kept_tokens"] += kept_tokens
        bucket["dropped_tokens"] += dropped_tokens
        if kept_parts:
            text = "\n\n".join(kept_parts)
            kept_docs.append(
                Document(id=doc.id, source=doc.source, text=text, meta=dict(doc.meta))
            )
            report.kept_docs += 1
        if dropped_parts:
            text = "\n\n".join(dropped_parts)
            dropped_docs.append(
                Document(id=doc.id, source=doc.source, text=text, meta=dict(doc.meta))
            )
            if not kept_parts:
                report.dropped_docs += 1
    return kept_docs, dropped_docs, report


def calibrate_threshold(
    lm: NGramLM,
    docs: Iterable[Document],
    tok: Tokenizer,
    percentile: float = 99.0,
) -> float:
    """Perplexity threshold at the given percentile of per-paragraph
    perplexities over a corpus (linear interpolation between order stats)."""
    if not 0 < percentile <= 100:
        raise ValueError("percentile must lie in (0, 100]")
    ppls: List[float] = []
    for doc in docs:
        for para in split_paragraphs(doc.text):
            tokens = tok.tokenize(para)
            if tokens:
                ppls.append(PerplexityScore.from_log_probs(lm.paragraph_log_probs(tokens)).perplexity)
    if not ppls:
        raise ValueError("no scorable paragraphs for calibration")
    ppls.sort()
    rank = (percentile / 100.0) * (len(ppls) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ppls[low]
    frac = rank - low
    return ppls[low] * (1 - frac) + ppls[high] * frac


# -- serialization -----------------------------------------------------------


def save_lm(lm: NGramLM, path: str | Path) -> None:
    """Write the documented model format: JSON with order, per-order
    discounts, vocab in id order, and adjusted counts keyed by space-joined
    token ids. Stable byte-for-byte for identical models; a failed write
    leaves an existing file as it was (corpus.atomic_write)."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": lm.order,
        "discounts": lm.discounts,
        "vocab": lm.id_to_token,
        "counts": [
            {" ".join(map(str, gram)): c for gram, c in sorted(table.items())}
            for table in lm.counts
        ],
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_lm(path: str | Path) -> NGramLM:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    vocab = {token: idx for idx, token in enumerate(payload["vocab"])}
    counts: List[Dict[NGram, int]] = []
    for table in payload["counts"]:
        counts.append({tuple(int(x) for x in key.split()): c for key, c in table.items()})
    return NGramLM(
        order=payload["order"],
        vocab=vocab,
        counts=counts,
        discounts=[float(d) for d in payload["discounts"]],
    )
