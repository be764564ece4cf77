"""Exact and near-duplicate removal for document corpora.

Exact dedup collapses byte-identical normalized text via content hashing.
Near dedup signs a batch of documents at once, each with a fast similarity
sketch (Dahlgaard, Knudsen and Thorup, FOCS 2017) of its token shingles: a
Jaccard estimate of MinHash quality (Broder 1997) for k bins, one row of a
(docs x k) matrix, in O(shingles + k log k) expected work. Filling k bins is
a coupon-collector process, so a document of few shingles takes many
rounds. Banded LSH (Leskovec et al., *Mining of Massive Datasets*, ch. 3)
groups documents by band key with a sort. Each bucket is resolved in
rounds: its first document is verified against its members of other
components, in batches against the threshold on the estimate, then its
next 2, then 4, and the pairs that pass are joined into connected
components with numpy after each round. No pair is verified twice or once
its documents are joined, so a cluster of n near-copies costs O(n)
verifications, and the first document in stream order survives per
cluster. Bands and verification only test bins for equality, so the matrix
keeps the low 16 bits of each sketch value: b-bit minwise hashing (Li and
König, WWW 2010).

`Deduplicator` is the one implementation: documents are added a batch at a
time and resolved at the end. `exact_dedup` and `near_dedup` run it over
a document list; the pipeline and the `dedup` subcommand stream their
corpus through it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cleaning import normalize_text
from .corpus import Document, WhitespaceTokenizer, report_json, write_lines

DEFAULT_SHINGLE_N = 5
DEFAULT_PERMUTATIONS = 128
DEFAULT_THRESHOLD = 0.7

# Candidate pairs per (pairs x permutations) temporary in verification: at
# 128 permutations each temporary takes at most 256 KiB, little beside the
# matrix.
_CHUNK = 1024
# Documents per add_batch call when a document list is deduplicated.
_BATCH = 256
# Odd multiplier of the rolling shingle combine, then the murmur3 64-bit
# finalizer constants, so every bit of a shingle hash depends on every bit
# of its token hashes.
_ROLL = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)
# A sketch value holds its round above 32 hash bits; no value is _EMPTY.
_HIGH = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_EMPTY = np.iinfo(np.uint64).max


@dataclass
class MinHashSignature:
    values: np.ndarray  # shape (permutations,), dtype uint16: the low 16 bits of each sketch value
    shingle_count: int
    token_count: int
    shingle_n: int
    permutations: int
    seed: int


class _TokenHashes(dict):
    """Token -> small int id, given in order of the token's first lookup.
    `hashes[id]` is the token's 64-bit blake2b hash; the array doubles as
    ids outgrow it, so `_shingles` gathers a batch's hashes with one take."""

    def __init__(self) -> None:
        super().__init__()
        self.hashes = np.empty(1024, dtype=np.uint64)

    def __missing__(self, token: str) -> int:
        idx = self[token] = len(self)
        if idx == len(self.hashes):
            self.hashes = np.concatenate((self.hashes, np.empty_like(self.hashes)))
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        self.hashes[idx] = int.from_bytes(digest, "big")
        return idx


def _mix(acc: np.ndarray) -> np.ndarray:
    """The murmur3 64-bit finalizer, in place."""
    acc ^= acc >> _SHIFT
    acc *= _MIX_1
    acc ^= acc >> _SHIFT
    acc *= _MIX_2
    acc ^= acc >> _SHIFT
    return acc


def _shingles(
    token_lists: Sequence[Sequence[str]], shingle_n: int, token_hashes: _TokenHashes
) -> Tuple[np.ndarray, np.ndarray]:
    """64-bit hashes of the shingles of all token lists, repeats kept, and
    the index of the list each comes from. Each window folds its token
    hashes as `acc = acc * _ROLL + h` in wrapping uint64 arithmetic from the
    window width, then goes through the finalizer mix. A list shorter than
    one shingle is a single shingle, folded from its own, shorter width.

    The tokens become ids in `token_hashes`, whose hash array one take
    turns into the flat list of hashes. The full-width window at every
    position of that list folds over contiguous slices; each shingle then
    takes its start's, and only the short lists fold apart."""
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    total = int(lengths.sum())
    ids = np.fromiter(map(token_hashes.__getitem__, itertools.chain.from_iterable(token_lists)), np.intp, total)
    # zero-padded, so that the full-width windows at the last positions index inside it
    flat = np.concatenate((token_hashes.hashes[ids], np.zeros(shingle_n, dtype=np.uint64)))
    widths = np.minimum(lengths, shingle_n)
    counts = lengths - widths + 1
    doc = np.repeat(np.arange(len(token_lists)), counts)
    # window i of the flat list starts at token i plus the widths - 1 of the lists before its own
    starts = np.arange(len(doc)) + np.repeat(np.cumsum(widths - 1) - (widths - 1), counts)
    acc = np.full(total + 1, shingle_n, dtype=np.uint64)
    for j in range(shingle_n):
        acc *= _ROLL
        acc += flat[j : j + total + 1]
    acc = acc[starts]
    # a list shorter than one shingle has one, after the shingles of the lists before it
    short = np.flatnonzero(widths < shingle_n)
    at, width = (np.cumsum(counts) - counts)[short], widths[short]
    fold = width.astype(np.uint64)
    for j in range(shingle_n - 1):
        fold = np.where(j < width, fold * _ROLL + flat[starts[at] + j], fold)
    acc[at] = fold
    return _mix(acc), doc


def _sketch(hashes: np.ndarray, doc: np.ndarray, docs: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(docs x k) fast similarity sketches (Dahlgaard, Knudsen and Thorup,
    FOCS 2017) of the shingle `hashes` of each document, k = len(a).

    In round r < k a shingle lands in the bin that bits 32 and up of
    `mix(h * a[r] + b[r])` pick by multiply-shift; in round k + r, in (its
    round-0 bin + r) mod k, so all bins are filled by round 2k. Its value is
    the round above the low 32 bits of that hash, and a bin keeps its least
    value. A later round's values exceed an earlier one's, so a document
    whose bins are all filled drops out, and each round checks only the
    rows still open. Repeated shingles change nothing."""
    k = len(a)

    def bins_of(mixed: np.ndarray) -> np.ndarray:
        return ((mixed >> _HIGH) * np.uint64(k) >> _HIGH).view(np.int64)

    sigs = np.full((docs, k), _EMPTY, dtype=np.uint64)
    rows = np.arange(docs)  # the open documents
    sizes = np.bincount(doc, minlength=docs)  # shingles per document
    slot = doc * k  # of each shingle's document's first bin
    for r in range(2 * k):
        mixed = _mix(hashes * a[r % k] + b[r % k])
        # only a document of a few shingles reaches round k, so those rounds hash round 0 again
        bins = bins_of(mixed) if r < k else (bins_of(_mix(hashes * a[0] + b[0])) + (r - k)) % k
        mixed &= _LOW
        mixed |= np.uint64(r) << _HIGH
        np.minimum.at(sigs.reshape(-1), slot + bins, mixed)
        rows = rows[(sigs[rows] == _EMPTY).any(axis=1)]
        if not len(rows):
            break
        # no round changes a closed document's row, so its shingles go once they are half of the work
        if 2 * sizes[rows].sum() <= len(hashes):
            is_open = np.zeros(docs, dtype=bool)
            is_open[rows] = True
            keep = np.flatnonzero(is_open[doc])
            hashes, doc, slot = hashes[keep], doc[keep], slot[keep]
    return sigs


def minhash_signature(
    text: str,
    shingle_n: int = DEFAULT_SHINGLE_N,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> MinHashSignature:
    """The signature a Deduplicator with these parameters gives the text's
    whitespace tokens: the fast similarity sketch of its shingle set (see
    `_sketch`). Deterministic in (text, shingle_n, permutations, seed)."""
    index = Deduplicator(exact=False, shingle_n=shingle_n, permutations=permutations, seed=seed)
    tokens = text.split()
    index.add_batch([""], [text], [tokens])
    return MinHashSignature(
        values=index._sigs[0].copy(),
        shingle_count=len(np.unique(_shingles([tokens], shingle_n, index._token_hashes)[0])),
        token_count=len(tokens),
        shingle_n=shingle_n,
        permutations=permutations,
        seed=seed,
    )


def estimate_jaccard(sig_a: MinHashSignature, sig_b: MinHashSignature) -> float:
    """Fraction of equal signature bins. Two sketches agree in a bin when
    the least value landing there from their shingle union is a shared
    shingle's, and by chance with probability 2^-16 otherwise, as a bin
    stores 16 bits. So with random hashing this estimates Jaccard J with a
    bias of (1 - J) * 2^-16, at most 1.5e-5, concentrated like k-permutation
    MinHash."""
    if (sig_a.shingle_n, sig_a.permutations, sig_a.seed) != (sig_b.shingle_n, sig_b.permutations, sig_b.seed):
        raise ValueError("signatures built with different parameters are not comparable")
    return float(np.count_nonzero(sig_a.values == sig_b.values)) / sig_a.permutations


DETECTION_MARGIN = 0.1
DETECTION_FLOOR = 0.999
# Midpoint-rule steps over similarity in [0, 1] of the error integrals.
_SPLIT_STEPS = 512


def optimal_band_split(permutations: int, threshold: float) -> Tuple[int, int]:
    """Pick (bands, rows) with bands*rows == permutations.

    A missed candidate pair is unrecoverable, while a false candidate only
    costs one signature comparison before verification rejects it. So among
    splits that detect pairs at threshold+0.1 near-certainly (collision
    probability >= 0.999), take the one with the least false-positive mass
    below the threshold; if no split reaches the floor (tiny permutation
    counts), fall back to minimizing the balanced error."""
    probe = min(threshold + DETECTION_MARGIN, 1.0)
    best_under_floor: Optional[Tuple[float, int, int]] = None
    best_balanced: Optional[Tuple[float, int, int]] = None
    for rows in range(1, permutations + 1):
        if permutations % rows:
            continue
        bands = permutations // rows
        fp = 0.0
        fn = 0.0
        for i in range(_SPLIT_STEPS):
            s = (i + 0.5) / _SPLIT_STEPS
            p = 1.0 - (1.0 - s**rows) ** bands
            if s < threshold:
                fp += p / _SPLIT_STEPS
            else:
                fn += (1.0 - p) / _SPLIT_STEPS
        balanced = 0.5 * fp + 0.5 * fn
        if best_balanced is None or balanced < best_balanced[0]:
            best_balanced = (balanced, bands, rows)
        detect = 1.0 - (1.0 - probe**rows) ** bands
        if detect >= DETECTION_FLOOR and (best_under_floor is None or fp < best_under_floor[0]):
            best_under_floor = (fp, bands, rows)
    chosen = best_under_floor or best_balanced
    assert chosen is not None
    return chosen[1], chosen[2]


@dataclass
class DedupReport:
    clusters: List[Tuple[str, List[str]]] = field(default_factory=list)
    exact_removed: int = 0
    near_removed: int = 0
    tokens_before: int = 0
    tokens_after: int = 0
    candidate_pairs: int = 0  # distinct LSH candidate pairs verified, skipping those already joined
    verified_pairs: int = 0  # of those, the pairs at or above the threshold

    def to_json(self) -> str:
        return report_json(self, clusters=[{"kept": kept, "removed": removed} for kept, removed in self.clusters])


def write_cluster_dump(report: DedupReport, path) -> None:
    write_lines((f"{kept}\t{rid}" for kept, removed in report.clusters for rid in removed), path)


class Deduplicator:
    """Exact then near dedup, fed in stream order: `add_batch` the
    documents, then `resolve` once.

    With `exact`, a document whose normalized text has the SHA-256 of an
    earlier one's is that one's exact duplicate. With `near`, every other
    document is sketched as its batch is added, from the tokens the caller
    passes, and `resolve` clusters the signatures with banded LSH. Only ids,
    token counts, exact digests and the signature matrix are held, never the
    texts, so a caller can stream a corpus through and read it again to
    write the survivors, checking the second read against `ids`.
    """

    def __init__(
        self,
        exact: bool = True,
        near: bool = True,
        shingle_n: int = DEFAULT_SHINGLE_N,
        permutations: int = DEFAULT_PERMUTATIONS,
        threshold: float = DEFAULT_THRESHOLD,
        seed: int = 0,
    ):
        if near and min(shingle_n, permutations) < 1:
            raise ValueError(f"shingle_n and permutations must be >= 1, not {shingle_n} and {permutations}")
        if near and not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        self.exact = exact
        self.near = near
        self.shingle_n = shingle_n
        self.permutations = permutations
        self.threshold = threshold
        self.ids: List[str] = []  # of the added documents, in add order
        self.token_counts: List[int] = []  # len(tokens) of each, in add order
        self._first_by_digest: Dict[bytes, int] = {}
        self._exact_copies: Dict[int, List[int]] = {}  # kept index -> its copies
        self._signed: List[int] = []  # document index of each signature row
        if near:
            self._sigs = np.empty((0, permutations), dtype=np.uint16)
            self._params = np.random.default_rng(seed).integers(0, 2**64, (2, permutations), dtype=np.uint64)
            self._params[0] |= np.uint64(1)  # odd multipliers a over offsets b, for `_sketch`
            self._token_hashes = _TokenHashes()

    def add_batch(self, ids: Sequence[str], texts: Sequence[str], token_lists: Sequence[Sequence[str]]) -> None:
        """Take the next documents in stream order, `token_lists[i]` the
        tokens of `texts[i]`. Those to sign are signed together, each to the
        row `minhash_signature` gives it alone."""
        to_sign: List[Sequence[str]] = []
        for doc_id, text, tokens in zip(ids, texts, token_lists):
            idx = len(self.ids)
            self.ids.append(doc_id)
            self.token_counts.append(len(tokens))
            if self.exact:
                digest = hashlib.sha256(normalize_text(text).encode("utf-8")).digest()
                first = self._first_by_digest.setdefault(digest, idx)
                if first != idx:
                    self._exact_copies.setdefault(first, []).append(idx)
                    continue
            if self.near:
                to_sign.append(tokens)
                self._signed.append(idx)
        if not to_sign:
            return
        start, end = len(self._signed) - len(to_sign), len(self._signed)
        if end > len(self._sigs):
            # realloc grows the matrix in place; no view of it outlives a call
            self._sigs.resize((max(end, start + start // 8), self.permutations), refcheck=False)
        hashes, doc = _shingles(to_sign, self.shingle_n, self._token_hashes)
        self._sigs[start:end] = _sketch(hashes, doc, len(to_sign), *self._params).astype(np.uint16)

    def resolve(self) -> Tuple[Set[int], DedupReport]:
        """The indices, in add order, of the documents to remove, and the
        report: exact clusters first, then near clusters, each kept by its
        first document in stream order."""
        report = DedupReport(tokens_before=sum(self.token_counts))
        near_copies: Dict[int, List[int]] = {}  # kept index -> its near copies
        if self.near and self._signed:
            for row, label in enumerate(self._near_labels(report).tolist()):
                if label != row:
                    near_copies.setdefault(self._signed[label], []).append(self._signed[row])
        removed: Set[int] = set()
        for copies_by_kept in (self._exact_copies, near_copies):
            for kept in sorted(copies_by_kept):
                report.clusters.append((self.ids[kept], [self.ids[i] for i in copies_by_kept[kept]]))
                removed.update(copies_by_kept[kept])
        report.exact_removed = sum(map(len, self._exact_copies.values()))
        report.near_removed = len(removed) - report.exact_removed
        report.tokens_after = report.tokens_before - sum(self.token_counts[i] for i in removed)
        return removed, report

    def _near_labels(self, report: DedupReport) -> np.ndarray:
        """The least signature row of each row's near-duplicate cluster;
        counts the pairs verified and those that passed into `report`.

        Candidate pairs are rows that share a bucket in some LSH band. A
        pair is verified by the fraction of equal signature positions >=
        threshold (estimate_jaccard's value), and the clusters are the
        connected components of the pairs that pass. A bucket is resolved
        in rounds of stars: its first row in stream order is verified against
        its rows of other labels, then its next 2 rows, then 4, and so on,
        with a join after each round, until its remaining rows share one
        label. Each band step opens the band's buckets and runs one round of
        every open bucket. No pair is verified twice, or once its rows are
        joined. So a bucket of n rows closes within log2(n) + 1 rounds, and
        a cluster of n near-copies costs O(n) verifications, not n^2 / 2,
        also when a few rows that fail against it come first."""
        rows_total = len(self._signed)
        sigs = self._sigs[:rows_total]
        bands, rows = optimal_band_split(self.permutations, self.threshold)
        labels = np.arange(rows_total)
        # Sorted keys `a * rows_total + b`, a < b, of the pairs that failed,
        # ending in a sentinel above every key so that each searchsorted
        # position can be dereferenced. Without it (only the repeat drop within
        # a step below) the labels are the same and resolve is faster, but a
        # row that fails against a cluster is verified against it again in
        # every band they share: 6.1 verifications per row in
        # test_near_copies_behind_a_variant_that_fails_against_them_stay_linear,
        # which bounds them at 4, and candidate_pairs counts those repeats.
        failed = np.array([np.iinfo(np.int64).max], dtype=np.int64)
        # The rows of the open buckets, a bucket's rows together and in
        # stream order; the size of each bucket, and the number of its first
        # rows that are the centres of its next round.
        members = sizes = centres = np.empty(0, dtype=np.int64)
        for band in itertools.count():
            if band < bands:
                opened, opened_sizes = _buckets(sigs[:, band * rows : (band + 1) * rows])
                members = np.concatenate([members, opened])
                sizes = np.concatenate([sizes, opened_sizes])
                centres = np.concatenate([centres, np.ones_like(opened_sizes)])
            elif not len(sizes):
                return labels
            # close the buckets whose rows all carry one label
            starts = np.cumsum(sizes) - sizes
            member_labels = labels[members]
            mixed = np.minimum.reduceat(member_labels, starts) != np.maximum.reduceat(member_labels, starts)
            members = members[np.repeat(mixed, sizes)]
            sizes, centres = sizes[mixed], centres[mixed]
            keys, centre = _star_keys(members, sizes, centres, labels)
            # a pair in buckets of several bands comes up from each; it is
            # verified once, and not again if it failed before
            fresh = failed[np.searchsorted(failed, keys)] != keys
            fresh[1:] &= keys[1:] != keys[:-1]
            keys = keys[fresh]
            left, right = np.divmod(keys, rows_total)
            passed = np.empty(len(keys), dtype=bool)
            for start in range(0, len(keys), _CHUNK):
                part = slice(start, start + _CHUNK)
                equal = np.take(sigs, left[part], axis=0) == np.take(sigs, right[part], axis=0)
                passed[part] = equal.sum(axis=1, dtype=np.int32) / self.permutations >= self.threshold
            report.candidate_pairs += len(keys)
            report.verified_pairs += int(np.count_nonzero(passed))
            _join(labels, left[passed], right[passed])
            if not passed.all():
                # a stable sort merges the two sorted runs in linear time
                failed = np.concatenate([failed, keys[~passed]])
                failed.sort(kind="stable")
            # the next round of a bucket has twice the centres
            members = members[~centre]
            sizes -= np.minimum(sizes, centres)
            centres *= 2
            still_open = sizes > 0
            sizes, centres = sizes[still_open], centres[still_open]


def _buckets(band: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of `band`, one band of the signature matrix, that share
    their key with another row, those of a key together and in stream
    order, and the number of rows of each key in turn."""
    width = band.shape[1]
    # zero-padded to whole 64-bit words, so that keys compare a word at a time
    keys = np.zeros((len(band), -(-width // 4) * 4), dtype=np.uint16)
    keys[:, :width] = band
    # a stable sort, so that the rows of a key stay in stream order
    order = np.lexsort(keys[:, :width].T)
    ranked = keys.view(np.uint64)[order]
    new_key = np.ones(len(band) + 1, dtype=bool)
    new_key[1:-1] = (ranked[1:] != ranked[:-1]).any(axis=1)
    shared = ~(new_key[:-1] & new_key[1:])
    return order[shared], np.diff(np.flatnonzero(new_key[:-1][shared]), append=np.count_nonzero(shared))


def _star_keys(
    members: np.ndarray, sizes: np.ndarray, centres: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted keys `a * len(labels) + b`, a < b, of the pairs that the
    first `centres[i]` rows of bucket i form with its rows of other labels,
    and the mask of those centres in `members`, which lists the `sizes[i]`
    rows of each bucket in turn, in stream order. With the rows of a bucket
    grouped by label, a centre pairs with those before and after its own
    group; a pair of two centres comes up from both and is kept once, as
    `a < b`, since a centre precedes the other rows of its bucket."""
    rows_total = len(labels)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)  # of each row's bucket
    centre = np.arange(len(members)) - first < np.repeat(centres, sizes)
    groups = np.repeat(np.arange(len(sizes)) * rows_total, sizes) + labels[members]
    by_group = np.argsort(groups)
    sorted_groups = groups[by_group]
    own = groups[centre]
    low, high = np.searchsorted(sorted_groups, own), np.searchsorted(sorted_groups, own, side="right")
    first, last = first[centre], (first + np.repeat(sizes, sizes))[centre]
    counts = np.concatenate([low - first, last - high])
    spans = np.arange(int(counts.sum()))  # positions in `by_group`, span by span
    spans += np.repeat(np.concatenate([first, high]) - np.cumsum(counts) + counts, counts)
    left = np.repeat(np.tile(members[centre], 2), counts)
    right = members[by_group[spans]]
    once = left < right
    keys = left[once] * rows_total + right[once]
    keys.sort()
    return keys, centre


def _join(labels: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Join the rows of each edge `left[i] - right[i]` in `labels`, in place,
    where `labels` maps each row to the least row of its component
    (`np.arange` for no edges). Each round hooks the greater label of every
    edge onto the lesser, then jumps every label to its label's label until
    none moves: a label stays a row of its component, no greater than it."""
    while not np.array_equal(lo := labels[left], hi := labels[right]):
        np.minimum.at(labels, np.maximum(lo, hi), np.minimum(lo, hi))
        while not np.array_equal(jumped := labels[labels], labels):
            labels[:] = jumped


def _dedup_documents(
    docs: Iterable[Document], tok: Optional[WhitespaceTokenizer], **options
) -> Tuple[List[Document], DedupReport]:
    """Run a Deduplicator built with `options` over `docs`, tokenizing each
    document once, with `str.split` when `tok` is None; returns the
    survivors in stream order and the report."""
    index = Deduplicator(**options)
    tokenize = str.split if tok is None else tok.tokenize
    doc_list = list(docs)
    for start in range(0, len(doc_list), _BATCH):
        batch = doc_list[start : start + _BATCH]
        texts = [doc.text for doc in batch]
        index.add_batch([doc.id for doc in batch], texts, list(map(tokenize, texts)))
    removed, report = index.resolve()
    return [doc for idx, doc in enumerate(doc_list) if idx not in removed], report


def exact_dedup(
    docs: Iterable[Document], tok: Optional[WhitespaceTokenizer] = None
) -> Tuple[List[Document], DedupReport]:
    """Collapse documents whose normalized text is byte-identical; first
    occurrence in stream order survives."""
    return _dedup_documents(docs, tok, near=False)


def near_dedup(
    docs: Iterable[Document],
    shingle_n: int = DEFAULT_SHINGLE_N,
    permutations: int = DEFAULT_PERMUTATIONS,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    tok: Optional[WhitespaceTokenizer] = None,
) -> Tuple[List[Document], DedupReport]:
    """Remove near-duplicates via sketches and LSH (Deduplicator without its
    exact pass); the first document per cluster survives."""
    return _dedup_documents(
        docs, tok, exact=False, shingle_n=shingle_n, permutations=permutations, threshold=threshold, seed=seed
    )

