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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cleaning import normalize_text
from .corpus import Document, Tokenizer, WhitespaceTokenizer, atomic_write

DEFAULT_SHINGLE_N = 5
DEFAULT_PERMUTATIONS = 128
DEFAULT_THRESHOLD = 0.7

# Rows per (rows x permutations) temporary in signing and verification.
_CHUNK = 4096
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
) -> MinHashSignature:
    """MinHash sketch of the text's shingle set.

    Tokens are hashed with blake2b, through `_token_hashes` when a caller
    shares one cache across documents (near_dedup does, per run). Shingle
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
    tokens = tok.tokenize(text)
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


def exact_dedup(
    docs: Iterable[Document], tok: Optional[Tokenizer] = None
) -> Tuple[List[Document], DedupReport]:
    """Collapse documents whose normalized text is byte-identical; first
    occurrence in stream order survives."""
    tok = tok or WhitespaceTokenizer()
    report = DedupReport()
    unique: List[Document] = []
    first_by_digest: Dict[str, int] = {}
    removed_by_kept: Dict[str, List[str]] = {}
    for doc in docs:
        tokens = len(tok.tokenize(doc.text))
        report.tokens_before += tokens
        digest = hashlib.sha256(normalize_text(doc.text).encode("utf-8")).hexdigest()
        if digest in first_by_digest:
            kept_id = unique[first_by_digest[digest]].id
            removed_by_kept.setdefault(kept_id, []).append(doc.id)
            report.exact_removed += 1
        else:
            first_by_digest[digest] = len(unique)
            unique.append(doc)
            report.tokens_after += tokens
    report.clusters = [(doc.id, removed_by_kept[doc.id]) for doc in unique if doc.id in removed_by_kept]
    return unique, report


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


def near_dedup(
    docs: Iterable[Document],
    shingle_n: int = DEFAULT_SHINGLE_N,
    permutations: int = DEFAULT_PERMUTATIONS,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    tok: Optional[Tokenizer] = None,
) -> Tuple[List[Document], DedupReport]:
    """Remove near-duplicates via MinHash/LSH.

    Candidate pairs come from LSH band collisions: per band, documents are
    grouped by band key with a sort, and each pair not seen in an earlier
    band is verified once, in batches, by the fraction of equal signature
    positions >= threshold (estimate_jaccard's value). Verified pairs are
    merged into connected components; the first document per component
    survives.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    tok = tok or WhitespaceTokenizer()
    doc_list = list(docs)
    report = DedupReport()
    if not doc_list:
        return [], report

    params = _permutation_params(permutations, seed)
    token_hashes = _TokenHashes()
    bands, rows = optimal_band_split(permutations, threshold)

    sigs = np.empty((len(doc_list), permutations), dtype=np.uint64)
    token_counts: List[int] = []
    for idx, doc in enumerate(doc_list):
        sig = minhash_signature(
            doc.text,
            tok,
            shingle_n=shingle_n,
            permutations=permutations,
            seed=seed,
            doc_id=doc.id,
            _params=params,
            _token_hashes=token_hashes,
        )
        sigs[idx] = sig.values
        token_counts.append(sig.token_count)
    report.tokens_before = sum(token_counts)

    uf = _UnionFind(len(doc_list))
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
            left, right = np.divmod(pairs[start : start + _CHUNK], len(doc_list))
            matches = np.count_nonzero(sigs[left] == sigs[right], axis=1)
            verified = matches / permutations >= threshold
            report.verified_pairs += int(np.count_nonzero(verified))
            for x, y in zip(left[verified].tolist(), right[verified].tolist()):
                uf.union(x, y)
    report.candidate_pairs = len(seen) - 1

    members_by_root: Dict[int, List[int]] = {}
    for idx in range(len(doc_list)):
        members_by_root.setdefault(uf.find(idx), []).append(idx)

    removed: set = set()
    for root in sorted(members_by_root):
        members = sorted(members_by_root[root])
        if len(members) < 2:
            continue
        kept = members[0]
        removed.update(members[1:])
        report.clusters.append(
            (doc_list[kept].id, [doc_list[i].id for i in members[1:]])
        )
        report.near_removed += len(members) - 1

    unique = [doc for idx, doc in enumerate(doc_list) if idx not in removed]
    report.tokens_after = report.tokens_before - sum(token_counts[idx] for idx in removed)
    return unique, report


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
    one report covers both passes, exact clusters first."""
    unique, exact = exact_dedup(docs, tok)
    if exact_only:
        return unique, exact
    final, near = near_dedup(
        unique, shingle_n=shingle_n, permutations=permutations, threshold=threshold, seed=seed, tok=tok
    )
    return final, DedupReport(
        clusters=exact.clusters + near.clusters,
        exact_removed=exact.exact_removed,
        near_removed=near.near_removed,
        tokens_before=exact.tokens_before,
        tokens_after=near.tokens_after,
        candidate_pairs=near.candidate_pairs,
        verified_pairs=near.verified_pairs,
    )
