"""Interpolated Kneser-Ney n-gram language model and perplexity filtering.

The model exists to score text for corpus filtering, not to model legal
prose well. Training is a single pass: raw counts at the highest order,
continuation counts (number of distinct left extensions) at every lower
order, absolute discounts estimated per order from count-of-counts, and
the leftover discount mass interpolated with the next-lower order. The
bottom of the recursion interpolates the unigram distribution with a
uniform distribution over the predictable vocabulary (all known tokens,
the end-of-paragraph marker, and the unknown token), so every conditional
distribution sums to one and, with a positive discount, every probability
is strictly positive.

Paragraphs are the sentence unit: each paragraph is padded with order-1
begin markers and one end marker before counting (no padding at order 1,
where markers carry no information).

Scoring does not recurse, and it carries its context from token to token,
as KenLM's state does (Heafield 2011). The first call that scores compiles
the counts into one table per context seen in training: it maps each token
training saw after that context to the token's log-probability, its
probability, and the next context, the longest seen context that ends the
context plus the token. The empty context's table holds the whole
vocabulary. A paragraph starts at the begin-marker context, and a token its
context was seen with costs one dict probe. Any other token backs off along
the shorter contexts to the first whose table has it and scales that
probability by the leftover mass of each context it passed; a string outside
the vocabulary is scored as <unk>. Each probability is built at compile time
bottom-up, p = alpha + gamma * p from the unigram to the context, which is
the same floating-point arithmetic, in the same order, as the textbook
recursion, so log-probs are bit-identical to it. Training and loading do not
pay for the tables; only the counts are saved.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cleaning import split_paragraphs
from .corpus import Document, InputError, WhitespaceTokenizer, atomic_write, load_json, report_json

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
# A node is a context seen in training; node 0 is the empty context.
#   tables[node]   token -> (log p, p, next node) for each token training saw
#                  after the node's context; node 0 holds the whole vocabulary
#   gamma[node]    leftover mass d * distinct / total of the context
#   parent[node]   node of the context one token shorter on the left
#   start          node of the begin-marker context, where a paragraph starts
# p is the interpolated probability; the next node is the longest context
# seen in training that ends the node's context plus the token.
_Entry = Tuple[float, float, int]
_Tables = Tuple[List[Dict[str, _Entry]], List[float], List[int], int]


class TrainingError(InputError):
    """Seed corpus or parameters unusable for training."""


class ScoreError(InputError):
    """Text that cannot be scored (e.g. empty after tokenization)."""


def _perplexity(total: float, n: int) -> float:
    """Perplexity of n tokens whose log-probs sum (math.fsum) to total;
    infinite when some token has probability 0."""
    return math.inf if total == -math.inf else math.exp(-total / n)


def perplexity(log_probs: Sequence[float]) -> float:
    """Perplexity of the tokens with these log-probs."""
    if not log_probs:
        raise ScoreError("cannot score zero tokens")
    return _perplexity(math.fsum(log_probs), len(log_probs))


class NGramLM:
    """Trained model state; immutable after training and safe to share
    between scoring threads. Scoring keeps its context in a local variable;
    threads that score first may each build the tables, identically, and the
    last one built is kept."""

    def __init__(
        self,
        order: int,
        id_to_token: List[str],
        counts: List[Dict[NGram, int]],
        discounts: List[float],
    ):
        self.order = order
        self.id_to_token = id_to_token
        # counts[k-1] maps k-gram id tuples to adjusted counts
        self.counts = counts
        self.discounts = discounts
        self._tables: Optional[_Tables] = None

    # -- probabilities ----------------------------------------------------

    def _compile(self) -> _Tables:
        """Build the scoring tables from the counts (see _Tables)."""
        n = self.order - 1
        nodes: Dict[NGram, int] = {}  # context ids -> node, every order
        parent: List[int] = []
        gamma: List[float] = []
        totals: List[int] = []  # per node: count total and distinct successors
        distinct: List[int] = []
        for k in range(1, self.order + 1):
            first = len(parent)
            for gram, c in self.counts[k - 1].items():
                ctx = gram[:-1]
                node = nodes.get(ctx)
                if node is None:
                    up = 0
                    if ctx:
                        # train_lm's lower orders are continuation counts of the
                        # higher ones, so every context's suffix is a context, and
                        # every context but the begin markers is an n-gram itself
                        up = nodes.get(ctx[1:])
                        if up is None:
                            raise ValueError(f"order-{k} context {ctx} has no order-{k - 1} suffix context")
                        if ctx not in self.counts[k - 2] and set(ctx) != {BOS_ID}:
                            raise ValueError(f"order-{k} context {ctx} is not an order-{k - 1} n-gram")
                    node = nodes[ctx] = len(parent)
                    parent.append(up)
                    totals.append(0)
                    distinct.append(0)
                totals[node] += c
                distinct[node] += 1
            d = self.discounts[k - 1]
            gamma.extend(d * distinct[node] / totals[node] for node in range(first, len(parent)))
        if not parent:  # no counts: order 1 is the uniform distribution alone
            nodes[()] = 0
            parent.append(0)
            gamma.append(1.0)

        def entry(gram: NGram, p: float) -> _Entry:
            # the longest context that ends the n-gram, at most order - 1 long
            ctx = gram[1:] if len(gram) > n else gram
            while ctx not in nodes:
                ctx = ctx[1:]
            return (math.log(p) if p > 0.0 else -math.inf, p, nodes[ctx])

        tokens = self.id_to_token
        tables: List[Dict[str, _Entry]] = [{} for _ in parent]
        # Order 1 is the empty context, node 0, interpolated with the uniform
        # distribution on every token but the begin marker; its table holds
        # the whole vocabulary.
        d = self.discounts[0]
        alpha = {gram[0]: max(c - d, 0.0) / totals[0] for gram, c in self.counts[0].items()}
        base = 1.0 / (len(tokens) - 1)
        for w, token in enumerate(tokens):
            tables[0][token] = entry((w,), alpha.get(w, 0.0) + gamma[0] * base)
        # Higher orders bottom-up, p = alpha + gamma * p, as the textbook
        # recursion sums, so that every p is bit-identical to it.
        for k in range(2, self.order + 1):
            d = self.discounts[k - 1]
            for gram, c in self.counts[k - 1].items():
                node = nodes[gram[:-1]]
                token = tokens[gram[-1]]
                lower = _look_up(tables, gamma, parent, parent[node], token)[1]
                tables[node][token] = entry(gram, max(c - d, 0.0) / totals[node] + gamma[node] * lower)
        # A begin marker in scored text lengthens the begin-marker context, as
        # it does in the recursion's context, so every begin-marker context
        # holds <s>, whose entry then carries the state one marker further.
        ctx: NGram = (BOS_ID,)
        while len(ctx) <= n and ctx in nodes:
            node = nodes[ctx]
            if BOS not in tables[node]:
                tables[node][BOS] = entry(ctx + (BOS_ID,), _look_up(tables, gamma, parent, node, BOS)[1])
            ctx += (BOS_ID,)
        self._tables = (tables, gamma, parent, nodes[ctx[1:]])
        return self._tables

    def probability(self, context: Sequence[str], token: str) -> float:
        """p(token | context); only the order-1 most recent tokens matter."""
        tables, gamma, parent, node = self._tables or self._compile()
        for t in [*context, token]:
            _, p, node = tables[node].get(t) or _look_up(tables, gamma, parent, node, t)
        return p

    # -- scoring -----------------------------------------------------------

    def paragraph_log_probs(self, tokens: Sequence[str]) -> List[float]:
        """Per-token log probabilities for one paragraph. End markers are
        used in training counts but not scored, so len(result) == len(tokens).

        The state is the node of the longest context training saw that ends
        the text so far; each token's entry gives its log p and the next
        state, so a token the state's context was seen with costs one probe."""
        tables, gamma, parent, node = self._tables or self._compile()
        out: List[float] = []
        for t in tokens:
            lp, _, node = tables[node].get(t) or _look_up(tables, gamma, parent, node, t)
            out.append(lp)
        return out

    def token_log_probs(self, text: str) -> List[float]:
        """Log probabilities of the whitespace tokens of each paragraph, end to end."""
        log_probs: List[float] = []
        for para in split_paragraphs(text):
            tokens = para.split()
            if tokens:
                log_probs.extend(self.paragraph_log_probs(tokens))
        return log_probs


def _look_up(
    tables: List[Dict[str, _Entry]], gamma: List[float], parent: List[int], node: int, token: str
) -> _Entry:
    """The entry for token after node's context, which need not be in its
    table: back off along the parent links to the longest context whose table
    has it, then scale its p by the leftover mass of each context passed,
    innermost first, which is what the bottom-up sum p = 0.0 + gamma * p does.
    A string outside the vocabulary is scored as <unk>."""
    start = node
    entry = tables[node].get(token)
    passed: List[float] = []
    while entry is None:
        if node == 0:
            return _look_up(tables, gamma, parent, start, UNK)
        passed.append(gamma[node])
        node = parent[node]
        entry = tables[node].get(token)
    if not passed:
        return entry
    p = entry[1]
    for g in reversed(passed):
        p = g * p
    return (math.log(p) if p > 0.0 else -math.inf, p, entry[2])


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
    tok: WhitespaceTokenizer,
    order: int = 5,
    corpus_name: str = "seed corpus",
) -> NGramLM:
    """Train an interpolated Kneser-Ney model on a seed corpus, with
    per-order discounts estimated via n1/(n1 + 2*n2). `corpus_name` names
    the corpus in the error for one with no tokens.
    """
    if order < 1:
        raise TrainingError("order must be >= 1")

    vocab: Dict[str, int] = {UNK: UNK_ID, BOS: BOS_ID, EOS: EOS_ID}
    counts: List[Dict[NGram, int]] = [dict() for _ in range(order)]
    top = counts[order - 1]
    # each paragraph is counted as it is read, padded except at order 1,
    # where markers carry no information
    pad, end = ((BOS_ID,) * (order - 1), (EOS_ID,)) if order > 1 else ((), ())
    # Counter.update counts an iterable into a plain dict in one C call,
    # inserting each key where the loop `d[key] = d.get(key, 0) + 1` would
    count = Counter.update
    for doc in docs:
        for para in split_paragraphs(doc.text):
            tokens = tok.tokenize(para)
            if tokens:
                seq = (*pad, *[vocab.setdefault(t, len(vocab)) for t in tokens], *end)
                count(top, zip(*(seq[k:] for k in range(order))))
    if not top:
        raise TrainingError(f"{corpus_name} is empty after tokenization")
    # Continuation counts: at order k, count distinct left extensions
    # present at order k+1.
    for k in range(order - 1, 0, -1):
        count(counts[k - 1], map(itemgetter(slice(1, None)), counts[k]))

    discounts = [_estimate_discount(counts[k].values()) for k in range(order)]
    # ids were given in insertion order, so the keys are the tokens in id order
    return NGramLM(order=order, id_to_token=list(vocab), counts=counts, discounts=discounts)


# -- filtering --------------------------------------------------------------


@dataclass
class FilterReport:
    threshold: float
    granularity: str
    kept_docs: int = 0
    dropped_docs: int = 0
    per_source: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def _bucket(self, source: str) -> Dict[str, int]:
        bucket = self.per_source.get(source)
        if bucket is None:
            bucket = self.per_source[source] = {"kept_tokens": 0, "dropped_tokens": 0}
        return bucket

    def merge(self, other: "FilterReport") -> None:
        """Add the counts of a report on another part of the same corpus."""
        self.kept_docs += other.kept_docs
        self.dropped_docs += other.dropped_docs
        for source, counts in other.per_source.items():
            bucket = self._bucket(source)
            for key, value in counts.items():
                bucket[key] += value

    def to_json(self) -> str:
        return report_json(self)


def check_granularity(granularity: str) -> None:
    """Raise ValueError unless `granularity` is one filter_by_perplexity takes."""
    if granularity not in ("paragraph", "document"):
        raise ValueError("granularity must be 'paragraph' or 'document'")


def check_percentile(percentile: float) -> None:
    """Raise ValueError unless `percentile` is one calibrate_threshold takes."""
    if not 0 < percentile <= 100:  # also false for NaN
        raise ValueError("percentile must lie in (0, 100]")


def filter_by_perplexity(
    docs: Iterable[Document],
    lm: NGramLM,
    tok: WhitespaceTokenizer,
    threshold: float,
    granularity: str = "paragraph",
    _kept_tokens: Optional[List[List[str]]] = None,
) -> Tuple[List[Document], List[Document], FilterReport]:
    """Split a corpus into kept and dropped parts by perplexity.

    At paragraph granularity each document is split on blank lines,
    paragraphs scoring above the threshold are dropped, and the document is
    reassembled from the survivors; a kept document whose text comes out
    unchanged is passed on as itself. The dropped stream carries the removed
    text under the original document id, so kept plus dropped token counts
    equal the input exactly. A caller that passes `_kept_tokens` gets, per
    kept document in kept order, its kept parts' tokens end to end: the
    kept text's tokens under a whitespace tokenizer, without tokenizing it
    again.
    """
    if not 0 < threshold < math.inf:  # also false for NaN
        raise ValueError(f"threshold must be finite and positive, not {threshold}")
    check_granularity(granularity)

    report = FilterReport(threshold=threshold, granularity=granularity)
    kept_docs: List[Document] = []
    dropped_docs: List[Document] = []
    score = lm.paragraph_log_probs
    tokenize = tok.tokenize
    fsum = math.fsum

    for doc in docs:
        bucket = report._bucket(doc.source.name)
        parts = [doc.text] if granularity == "document" else split_paragraphs(doc.text)
        kept_parts: List[str] = []
        dropped_parts: List[str] = []
        kept_tokens: List[str] = []  # built only for _kept_tokens, else counted
        kept_count = dropped_count = 0
        for part in parts:
            tokens = tokenize(part)
            if not tokens:
                kept_parts.append(part)
            elif _perplexity(fsum(score(tokens)), len(tokens)) > threshold:
                dropped_parts.append(part)
                dropped_count += len(tokens)
            else:
                kept_parts.append(part)
                if _kept_tokens is None:
                    kept_count += len(tokens)
                else:
                    kept_tokens += tokens
        bucket["kept_tokens"] += kept_count + len(kept_tokens)
        bucket["dropped_tokens"] += dropped_count
        if kept_parts:
            text = "\n\n".join(kept_parts)
            kept_docs.append(
                doc
                if text == doc.text
                else Document(id=doc.id, source=doc.source, text=text, meta=dict(doc.meta))
            )
            report.kept_docs += 1
            if _kept_tokens is not None:
                _kept_tokens.append(kept_tokens)
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
    tok: WhitespaceTokenizer,
    percentile: float = 99.0,
    corpus_name: str = "calibration corpus",
) -> float:
    """Perplexity threshold at the given percentile of per-paragraph
    perplexities over a corpus (linear interpolation between order stats).
    `corpus_name` names the corpus in the error for one with no tokens."""
    check_percentile(percentile)
    ppls: List[float] = []
    for doc in docs:
        for para in split_paragraphs(doc.text):
            tokens = tok.tokenize(para)
            if tokens:
                ppls.append(_perplexity(math.fsum(lm.paragraph_log_probs(tokens)), len(tokens)))
    if not ppls:
        raise ValueError(f"{corpus_name} has no scorable paragraphs")
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
            {" ".join(map(str, gram)): c for gram, c in table.items()}
            for table in lm.counts
        ],
    }
    # json.dumps encodes in one call to the C encoder; json.dump to a file
    # would run the pure-Python one. sort_keys orders every table.
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, sort_keys=True))
        fh.write("\n")


def load_lm(path: str | Path) -> NGramLM:
    """Read a model written by save_lm, rejecting one whose parts disagree
    (ValueError) so that scoring cannot fail on it later."""
    payload = load_json(path, "model", ValueError)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')}")
    missing = {"order", "discounts", "vocab", "counts"} - payload.keys()
    if missing:
        raise ValueError(f"{path}: model lacks {', '.join(sorted(missing))}")
    order, discounts, tokens, tables = (payload[key] for key in ("order", "discounts", "vocab", "counts"))
    for name, items, kind, what in (
        ("discounts", discounts, (int, float), "numbers"),
        ("vocab", tokens, str, "strings"),
        ("counts", tables, dict, "objects"),
    ):
        if not (isinstance(items, list) and all(isinstance(item, kind) for item in items)):
            raise ValueError(f"{path}: {name} must be a list of {what}")
    if not (isinstance(order, int) and order >= 1 and len(discounts) == order == len(tables)):
        raise ValueError(f"{path}: order {order!r} needs that many discounts and count tables")
    if tokens[:3] != [UNK, BOS, EOS] or len(set(tokens)) != len(tokens):
        raise ValueError(f"{path}: vocab must start with {UNK}, {BOS}, {EOS} and repeat no token")
    counts: List[Dict[NGram, int]] = []
    for k, table in enumerate(tables, start=1):
        try:
            grams = {tuple(map(int, key.split())): c for key, c in table.items()}
        except ValueError:
            raise ValueError(f"{path}: order-{k} counts hold a key that is not space-joined token ids") from None
        if set(map(len, grams)) - {k}:
            raise ValueError(f"{path}: order-{k} counts hold a key of another length")
        if grams and not 0 <= min(map(min, grams)) <= max(map(max, grams)) < len(tokens):
            raise ValueError(f"{path}: order-{k} counts name a token id outside the {len(tokens)}-token vocab")
        if grams and (set(map(type, grams.values())) != {int} or min(grams.values()) < 1):
            raise ValueError(f"{path}: order-{k} counts must be positive integers")
        counts.append(grams)
    discounts = [float(d) for d in discounts]
    if not all(0.0 <= d < 1.0 for d in discounts):
        raise ValueError(f"{path}: discounts must lie in [0, 1)")
    return NGramLM(order=order, id_to_token=tokens, counts=counts, discounts=discounts)
