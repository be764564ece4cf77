"""Exact and near-duplicate removal for document corpora.

Exact dedup collapses byte-identical normalized text via content hashing.
Near dedup sketches each document with MinHash over token shingles (Broder
1997): each distinct token is hashed once per run with blake2b, a document's
shingle hashes are a numpy rolling combine over its token hashes, and the
signatures of all documents form one (docs x permutations) matrix. Banded
LSH (Leskovec et al., *Mining of Massive Datasets*, ch. 3) groups documents
by band key with a sort; the new pairs of each band are verified in batches
against the threshold on the signature-level Jaccard estimate. Connected
components of the verified pairs are resolved so the first document in
stream order survives per cluster.

`Deduplicator` is the one implementation: documents are added one at a
time and resolved at the end. `exact_dedup`, `near_dedup` and
`dedup_corpus` run it over a document list; the pipeline and the `dedup`
subcommand stream their corpus through it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cleaning import normalize_text
from .corpus import Document, Tokenizer, WhitespaceTokenizer, atomic_write

DEFAULT_SHINGLE_N = 5
DEFAULT_PERMUTATIONS = 128
DEFAULT_THRESHOLD = 0.7

# Rows per (rows x permutations) temporary in signing and verification: at
# 128 permutations each temporary takes 1 MiB, little beside the matrix.
_CHUNK = 1024
# Least number of rows the signature matrix grows by.
_GROW_ROWS = 1024
# Odd multiplier of the rolling shingle combine, then the murmur3 64-bit
# finalizer constants, so every bit of a shingle hash depends on every bit
# of its token hashes.
_ROLL = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)


@dataclass
class MinHashSignature:
    doc_id: str
    values: np.ndarray  # shape (permutations,), dtype uint64
    shingle_count: int
    token_count: int
    shingle_n: int
    permutations: int
    seed: int

    def compatible_with(self, other: "MinHashSignature") -> bool:
        return (
            self.shingle_n == other.shingle_n
            and self.permutations == other.permutations
            and self.seed == other.seed
        )


class _TokenHashes(dict):
    """Token -> 64-bit blake2b hash, computed on the token's first lookup."""

    def __missing__(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        value = self[token] = int.from_bytes(digest, "big")
        return value


def _shingle_hashes(token_hashes: np.ndarray, shingle_n: int) -> np.ndarray:
    """Sorted distinct 64-bit hashes of the shingles over `token_hashes`.

    Each window folds its token hashes as `acc = acc * _ROLL + h` in
    wrapping uint64 arithmetic, starting from the window width, then goes
    through the finalizer mix. Texts shorter than one shingle get a single
    degenerate shingle spanning the whole token sequence; its fold starts
    from its own, shorter width."""
    width = min(shingle_n, len(token_hashes))
    count = len(token_hashes) - width + 1
    acc = np.full(count, width, dtype=np.uint64)
    for k in range(width):
        acc *= _ROLL
        acc += token_hashes[k : k + count]
    acc ^= acc >> _SHIFT
    acc *= _MIX_1
    acc ^= acc >> _SHIFT
    acc *= _MIX_2
    acc ^= acc >> _SHIFT
    acc.sort()
    distinct = np.ones(count, dtype=bool)
    np.not_equal(acc[1:], acc[:-1], out=distinct[1:])
    return acc[distinct]


def _permutation_params(permutations: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**64, size=permutations, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 2**64, size=permutations, dtype=np.uint64)
    return a, b


def minhash_signature(
    text: str,
    tok: Tokenizer,
    shingle_n: int = DEFAULT_SHINGLE_N,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    doc_id: str = "",
    _params: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    _token_hashes: Optional[_TokenHashes] = None,
    _tokens: Optional[Sequence[str]] = None,
) -> MinHashSignature:
    """MinHash sketch of the text's shingle set.

    Tokens are hashed with blake2b, through `_token_hashes` when a caller
    shares one cache across documents (a Deduplicator does), and come from
    `_tokens` instead of `tok` when the caller has tokenized already. Shingle
    hashes are a rolling multiply-add over the token hashes with a 64-bit
    finalizer mix. Each of the `permutations` hash functions is a random
    odd-multiplier affine map over the shingle hashes (wraparound
    arithmetic); the signature stores the per-function minimum.
    Deterministic in (text, shingle_n, permutations, seed).
    """
    if shingle_n < 1:
        raise ValueError("shingle_n must be >= 1")
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    a, b = _params if _params is not None else _permutation_params(permutations, seed)
    cache = _token_hashes if _token_hashes is not None else _TokenHashes()
    tokens = _tokens if _tokens is not None else tok.tokenize(text)
    token_hashes = np.fromiter(map(cache.__getitem__, tokens), dtype=np.uint64, count=len(tokens))
    hashes = _shingle_hashes(token_hashes, shingle_n)
    mins = np.full(permutations, np.iinfo(np.uint64).max, dtype=np.uint64)
    for start in range(0, len(hashes), _CHUNK):
        chunk = hashes[start : start + _CHUNK]
        # uint64 arithmetic wraps modulo 2**64, as intended
        projected = chunk[:, None] * a[None, :] + b[None, :]
        np.minimum(mins, projected.min(axis=0), out=mins)
    return MinHashSignature(
        doc_id=doc_id,
        values=mins,
        shingle_count=int(len(hashes)),
        token_count=len(tokens),
        shingle_n=shingle_n,
        permutations=permutations,
        seed=seed,
    )


def estimate_jaccard(sig_a: MinHashSignature, sig_b: MinHashSignature) -> float:
    """Fraction of matching signature positions; unbiased Jaccard estimate."""
    if not sig_a.compatible_with(sig_b):
        raise ValueError("signatures built with different parameters are not comparable")
    return float(np.count_nonzero(sig_a.values == sig_b.values)) / sig_a.permutations


DETECTION_MARGIN = 0.1
DETECTION_FLOOR = 0.999


def optimal_band_split(permutations: int, threshold: float, steps: int = 512) -> Tuple[int, int]:
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
        for i in range(steps):
            s = (i + 0.5) / steps
            p = 1.0 - (1.0 - s**rows) ** bands
            if s < threshold:
                fp += p / steps
            else:
                fn += (1.0 - p) / steps
        balanced = 0.5 * fp + 0.5 * fn
        if best_balanced is None or balanced < best_balanced[0]:
            best_balanced = (balanced, bands, rows)
        detect = 1.0 - (1.0 - probe**rows) ** bands
        if detect >= DETECTION_FLOOR and (best_under_floor is None or fp < best_under_floor[0]):
            best_under_floor = (fp, bands, rows)
    chosen = best_under_floor or best_balanced
    assert chosen is not None
    return chosen[1], chosen[2]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # smaller stream index wins the root, keeping clusters ordered
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


@dataclass
class DedupReport:
    clusters: List[Tuple[str, List[str]]] = field(default_factory=list)
    exact_removed: int = 0
    near_removed: int = 0
    tokens_before: int = 0
    tokens_after: int = 0
    candidate_pairs: int = 0  # distinct LSH candidate pairs verified
    verified_pairs: int = 0  # candidate pairs at or above the threshold

    def to_json(self) -> str:
        payload = {
            "clusters": [{"kept": kept, "removed": removed} for kept, removed in self.clusters],
            "exact_removed": self.exact_removed,
            "near_removed": self.near_removed,
            "tokens_before": self.tokens_before,
            "tokens_after": self.tokens_after,
            "candidate_pairs": self.candidate_pairs,
            "verified_pairs": self.verified_pairs,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def write_cluster_dump(report: DedupReport, path) -> None:
    with atomic_write(path) as fh:
        for kept, removed in report.clusters:
            for rid in removed:
                fh.write(f"{kept}\t{rid}\n")


def _band_pairs(keys: np.ndarray) -> np.ndarray:
    """Sorted keys `a * docs + b`, a < b, of the document pairs whose rows
    of `keys` (one band of the signature matrix) are equal."""
    docs = len(keys)
    # lexsort is stable, so each bucket lists its documents in stream order
    order = np.lexsort(keys.T)
    ranked = keys[order]
    starts_bucket = np.ones(docs, dtype=bool)
    starts_bucket[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    starts = np.flatnonzero(starts_bucket)
    sizes = np.diff(np.append(starts, docs))
    position = np.arange(docs)
    later = np.repeat(starts + sizes, sizes) - position - 1  # bucket members after each position
    left = np.repeat(position, later)
    first_of_left = np.repeat(np.cumsum(later) - later, later)
    right = left + 1 + np.arange(len(left)) - first_of_left
    return np.sort(order[left] * docs + order[right])


class Deduplicator:
    """Exact then near dedup, fed one document at a time: `add` each
    document in stream order, then `resolve` once.

    With `exact`, a document whose normalized text has the SHA-256 of an
    earlier one's is that one's exact duplicate. With `near`, every other
    document is MinHash-signed as it is added, from the tokens the caller
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
        tok: Optional[Tokenizer] = None,
    ):
        if near and not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        self.exact = exact
        self.near = near
        self.shingle_n = shingle_n
        self.permutations = permutations
        self.threshold = threshold
        self.seed = seed
        self.tok = tok or WhitespaceTokenizer()
        self.ids: List[str] = []  # of the added documents, in add order
        self._token_counts: List[int] = []
        self._first_by_digest: Dict[bytes, int] = {}
        self._exact_copies: Dict[int, List[int]] = {}  # kept index -> its copies
        self._signed: List[int] = []  # document index of each signature row
        if near:
            self._sigs = np.empty((0, permutations), dtype=np.uint64)
            self._params = _permutation_params(permutations, seed)
            self._token_hashes = _TokenHashes()

    def add(self, doc_id: str, text: str, tokens: Sequence[str]) -> None:
        """Take the next document; `tokens` is `self.tok.tokenize(text)`."""
        idx = len(self.ids)
        self.ids.append(doc_id)
        self._token_counts.append(len(tokens))
        if self.exact:
            digest = hashlib.sha256(normalize_text(text).encode("utf-8")).digest()
            first = self._first_by_digest.setdefault(digest, idx)
            if first != idx:
                self._exact_copies.setdefault(first, []).append(idx)
                return
        if not self.near:
            return
        sig = minhash_signature(
            text,
            self.tok,
            shingle_n=self.shingle_n,
            permutations=self.permutations,
            seed=self.seed,
            doc_id=doc_id,
            _params=self._params,
            _token_hashes=self._token_hashes,
            _tokens=tokens,
        )
        row = len(self._signed)
        if row == len(self._sigs):
            # realloc grows the matrix where it lies, without a second copy;
            # no view of it outlives a call, so nothing can dangle
            self._sigs.resize((row + max(_GROW_ROWS, row // 8), self.permutations), refcheck=False)
        self._sigs[row] = sig.values
        self._signed.append(idx)

    def resolve(self) -> Tuple[Set[int], DedupReport]:
        """The indices, in add order, of the documents to remove, and the
        report: exact clusters first, then near clusters, each kept by its
        first document in stream order."""
        report = DedupReport(tokens_before=sum(self._token_counts))
        removed: Set[int] = set()
        for kept in sorted(self._exact_copies):
            copies = self._exact_copies[kept]
            report.clusters.append((self.ids[kept], [self.ids[i] for i in copies]))
            removed.update(copies)
        report.exact_removed = len(removed)
        if self.near and self._signed:
            for members in self._near_clusters(report):
                kept, *copies = [self._signed[row] for row in members]
                report.clusters.append((self.ids[kept], [self.ids[i] for i in copies]))
                removed.update(copies)
                report.near_removed += len(copies)
        report.tokens_after = report.tokens_before - sum(self._token_counts[i] for i in removed)
        return removed, report

    def _near_clusters(self, report: DedupReport) -> List[List[int]]:
        """Signature rows of each near-duplicate cluster, in order of their
        first row; counts the candidate and verified pairs into `report`.

        Candidate pairs come from LSH band collisions: per band, rows are
        grouped by band key with a sort, and each pair not seen in an
        earlier band is verified once, in batches, by the fraction of equal
        signature positions >= threshold (estimate_jaccard's value).
        Verified pairs are merged into connected components."""
        rows_total = len(self._signed)
        sigs = self._sigs[:rows_total]
        bands, rows = optimal_band_split(self.permutations, self.threshold)
        uf = _UnionFind(rows_total)
        # Sorted keys of the pairs verified so far, ending in a sentinel above
        # every key so that each searchsorted position can be dereferenced.
        seen = np.array([np.iinfo(np.int64).max], dtype=np.int64)
        for band in range(bands):
            pairs = _band_pairs(sigs[:, band * rows : (band + 1) * rows])
            pos = np.searchsorted(seen, pairs)
            fresh = seen[pos] != pairs
            pairs = pairs[fresh]
            seen = np.insert(seen, pos[fresh], pairs)
            for start in range(0, len(pairs), _CHUNK):
                left, right = np.divmod(pairs[start : start + _CHUNK], rows_total)
                matches = np.count_nonzero(sigs[left] == sigs[right], axis=1)
                verified = matches / self.permutations >= self.threshold
                report.verified_pairs += int(np.count_nonzero(verified))
                for x, y in zip(left[verified].tolist(), right[verified].tolist()):
                    uf.union(x, y)
        report.candidate_pairs = len(seen) - 1

        members_by_root: Dict[int, List[int]] = {}
        for row in range(rows_total):
            members_by_root.setdefault(uf.find(row), []).append(row)
        # the union-find roots each cluster at its smallest row
        return [members_by_root[root] for root in sorted(members_by_root) if len(members_by_root[root]) > 1]


def _dedup_documents(
    docs: Iterable[Document], tok: Optional[Tokenizer], **options
) -> Tuple[List[Document], DedupReport]:
    """Run a Deduplicator built with `options` over `docs`, tokenizing each
    document once; returns the survivors in stream order and the report."""
    index = Deduplicator(tok=tok, **options)
    doc_list = list(docs)
    for doc in doc_list:
        index.add(doc.id, doc.text, index.tok.tokenize(doc.text))
    removed, report = index.resolve()
    return [doc for idx, doc in enumerate(doc_list) if idx not in removed], report


def exact_dedup(
    docs: Iterable[Document], tok: Optional[Tokenizer] = None
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
    tok: Optional[Tokenizer] = None,
) -> Tuple[List[Document], DedupReport]:
    """Remove near-duplicates via MinHash/LSH (Deduplicator without its
    exact pass); the first document per cluster survives."""
    return _dedup_documents(
        docs, tok, exact=False, shingle_n=shingle_n, permutations=permutations, threshold=threshold, seed=seed
    )


def dedup_corpus(
    docs: Iterable[Document],
    shingle_n: int = DEFAULT_SHINGLE_N,
    permutations: int = DEFAULT_PERMUTATIONS,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    tok: Optional[Tokenizer] = None,
    exact_only: bool = False,
) -> Tuple[List[Document], DedupReport]:
    """Exact dedup, then near dedup of the survivors unless `exact_only`;
    one report covers both passes, exact clusters first. Each document is
    tokenized once, for its count and its signature."""
    return _dedup_documents(
        docs,
        tok,
        near=not exact_only,
        shingle_n=shingle_n,
        permutations=permutations,
        threshold=threshold,
        seed=seed,
    )
