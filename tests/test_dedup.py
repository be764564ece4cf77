from __future__ import annotations

import hashlib
import itertools
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lexcorpus
from lexcorpus import cli
from lexcorpus.corpus import read_documents, write_documents
from lexcorpus.dedup import (
    DedupReport,
    Deduplicator,
    _EMPTY,
    _TokenHashes,
    _join,
    _shingles,
    _sketch,
    estimate_jaccard,
    exact_dedup,
    minhash_signature,
    near_dedup,
    optimal_band_split,
    write_cluster_dump,
)
from lexcorpus.synthdata import shingle_jaccard
from synth_fixtures import dedup_docs, generate_dedup_fixture


def test_identical_texts_identical_signatures():
    a = minhash_signature("the quick brown fox jumps over the lazy dog")
    b = minhash_signature("the quick brown fox jumps over the lazy dog")
    assert list(a.values) == list(b.values)
    assert estimate_jaccard(a, b) == 1.0


def test_signature_depends_on_seed():
    text = "one two three four five six seven"
    a = minhash_signature(text, seed=0)
    b = minhash_signature(text, seed=1)
    assert list(a.values) != list(b.values)


def test_short_text_gets_degenerate_signature():
    # fewer tokens than shingle_n: the whole sequence is the single shingle
    sig = minhash_signature("just three tokens", shingle_n=5)
    assert (sig.shingle_count, sig.token_count) == (1, 3)
    same = minhash_signature("just three tokens", shingle_n=5)
    assert estimate_jaccard(sig, same) == 1.0


def test_mismatched_parameters_rejected():
    a = minhash_signature("a b c d e f", permutations=128, seed=0)
    b = minhash_signature("a b c d e f", permutations=64, seed=0)
    c = minhash_signature("a b c d e f", permutations=128, seed=9)
    with pytest.raises(ValueError):
        estimate_jaccard(a, b)
    with pytest.raises(ValueError):
        estimate_jaccard(a, c)


def test_estimator_concentration_at_half():
    """Doc pair built so exactly 2 of 4 distinct shingles are shared
    (true Jaccard 0.5); the 128-permutation estimate concentrates there."""
    base = "t1 t2 t3 t4 t5 t6"
    longer = base + " t7 t8"
    assert shingle_jaccard(base, longer, shingle_n=5) == 0.5
    errs = []
    for seed in range(50):
        a = minhash_signature(base, seed=seed)
        b = minhash_signature(longer, seed=seed)
        errs.append(estimate_jaccard(a, b) - 0.5)
    assert max(abs(e) for e in errs) <= 0.15
    assert abs(statistics.mean(errs)) <= 0.05


def test_disjoint_docs_estimate_near_zero():
    left = "a1 a2 a3 a4 a5 a6 a7 a8 a9 a10"
    right = "b1 b2 b3 b4 b5 b6 b7 b8 b9 b10"
    assert shingle_jaccard(left, right, shingle_n=5) == 0.0
    for seed in range(20):
        a = minhash_signature(left, seed=seed)
        b = minhash_signature(right, seed=seed)
        assert estimate_jaccard(a, b) <= 0.1


def test_disjoint_sketches_agree_only_by_chance():
    """Documents with pairwise disjoint shingle sets agree in a bin only when
    its 16 stored bits collide, with probability 2^-16. Over all pairs of
    1,000 such documents, 63.9M bins compared, about 975 agree; the mean
    share of equal bins must stay below twice 2^-16. Storing 8 bits would
    give 256 times 2^-16."""
    docs = 1000
    token_lists = [[f"t{i}_{j}" for j in range(20)] for i in range(docs)]
    index = Deduplicator(exact=False, seed=3)
    index.add_batch([f"d{i}" for i in range(docs)], [" ".join(tokens) for tokens in token_lists], token_lists)
    equal = 0  # pairs of documents equal in a bin, summed over the bins
    for column in index._sigs[:docs].T:
        counts = np.unique(column, return_counts=True)[1]
        equal += int((counts * (counts - 1) // 2).sum())
    share = equal / (docs * (docs - 1) // 2 * index.permutations)
    assert share < 2 * 2.0**-16


_EDGE_CASES = [[], ["w1", "w2"], ["w3"], ["w1", "w2", "w3", "w4", "w5"] * 4]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([f"w{i}" for i in range(8)]), max_size=40), max_size=12),
    st.sampled_from([1, 3, 5]),
    st.sampled_from([1, 8, 128]),
)
def test_add_batch_signs_each_document_as_alone(token_lists, shingle_n, permutations):
    """One add_batch gives each document the row that adding it alone, or
    minhash_signature, gives it: short, one-token and empty texts and
    repeated shingles included. Every bin of the sketch is filled, and a row
    stores the low 16 bits of each sketch value."""
    token_lists = _EDGE_CASES + token_lists
    texts = [" ".join(tokens) for tokens in token_lists]
    ids = [f"d{i}" for i in range(len(texts))]
    batch = Deduplicator(exact=False, shingle_n=shingle_n, permutations=permutations, seed=4)
    batch.add_batch(ids, texts, token_lists)
    alone = Deduplicator(exact=False, shingle_n=shingle_n, permutations=permutations, seed=4)
    for doc_id, text, tokens in zip(ids, texts, token_lists):
        alone.add_batch([doc_id], [text], [tokens])
    rows = batch._sigs[: len(texts)]
    assert np.array_equal(rows, alone._sigs[: len(texts)])
    for row, text in zip(rows, texts):
        sig = minhash_signature(text, shingle_n=shingle_n, permutations=permutations, seed=4)
        assert np.array_equal(row, sig.values)
    sketch = _sketch(*_shingles(token_lists, shingle_n, _TokenHashes()), len(texts), *batch._params)
    assert not (sketch == _EMPTY).any()
    assert np.array_equal(rows, sketch & np.uint64(0xFFFF))


_M64 = 2**64 - 1


def _ref_mix(x):
    """The murmur3 64-bit finalizer on a Python int."""
    for multiplier in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        x ^= x >> 33
        x = x * multiplier & _M64
    return x ^ x >> 33


def _ref_shingles(tokens, shingle_n):
    """Each window's hashes folded as `acc * roll + h` mod 2^64 from the window
    width, then mixed; a list shorter than one shingle is one window."""
    hashes = [int.from_bytes(hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(), "big") for t in tokens]
    width = min(len(tokens), shingle_n)
    out = []
    for start in range(len(tokens) - width + 1):
        acc = width
        for h in hashes[start : start + width]:
            acc = (acc * 0x9E3779B97F4A7C15 + h) & _M64
        out.append(_ref_mix(acc))
    return out


def _ref_sketch(shingles, a, b):
    """Fast similarity sketch, one round at a time until every bin is filled:
    bins by multiply-shift in round r < k, else (round-0 bin + r - k) mod k;
    each bin keeps its least `(r << 32) | low 32 bits` value."""
    k = len(a)
    bins = [None] * k
    first = {}
    r = 0
    while None in bins:
        for h in shingles:
            mixed = _ref_mix((h * a[r % k] + b[r % k]) & _M64)
            if r < k:
                at = (mixed >> 32) * k >> 32
                first.setdefault(h, at)
            else:
                at = (first[h] + r - k) % k
            value = r << 32 | mixed & 0xFFFFFFFF
            if bins[at] is None or value < bins[at]:
                bins[at] = value
        r += 1
    return bins


def _ref_rows(index, token_lists):
    a, b = ([int(x) for x in row] for row in index._params)
    return [_ref_sketch(_ref_shingles(tokens, index.shingle_n), a, b) for tokens in token_lists]


@pytest.mark.parametrize("shingle_n", [1, 3, 5])
@pytest.mark.parametrize("permutations", [1, 8, 128])
def test_signature_bits_equal_pure_python_reference(shingle_n, permutations):
    """Every bit of the sketch, and each `_sigs` row, equals a pure-Python
    reference, for lists of every length from 0 to shingle_n + 1, repeated
    tokens and non-ASCII tokens among them."""
    vocab = ["w1", "§", "Straße", "日本", "w1", "é"]
    token_lists = []
    for length in range(shingle_n + 2):
        token_lists += [
            [f"d{length}_{i}" for i in range(length)],
            ["x"] * length,
            [vocab[(length + i) % len(vocab)] for i in range(length)],
        ]
    texts = [" ".join(tokens) for tokens in token_lists]
    index = Deduplicator(exact=False, shingle_n=shingle_n, permutations=permutations, seed=6)
    index.add_batch([f"d{i}" for i in range(len(texts))], texts, token_lists)
    reference = np.array(_ref_rows(index, token_lists), dtype=np.uint64)
    sketch = _sketch(*_shingles(token_lists, shingle_n, _TokenHashes()), len(texts), *index._params)
    assert np.array_equal(sketch, reference)
    assert np.array_equal(index._sigs[: len(texts)], reference & np.uint64(0xFFFF))


def test_signature_bits_equal_reference_as_the_token_table_grows():
    """Over several add_batch calls that bring more than 1,024 distinct
    tokens, and reuse the first call's tokens in later ones, every row still
    equals the reference."""
    rng = random.Random(8)
    index = Deduplicator(exact=False, seed=9)
    fresh = (f"t{j}" for j in itertools.count())
    first_call: list = []  # the tokens of the first add_batch
    all_lists = []
    for batch in range(4):
        token_lists = [
            [rng.choice(first_call) if first_call and rng.random() < 0.25 else next(fresh) for _ in range(length)]
            for length in (rng.randrange(1, 50) for _ in range(20))
        ]
        index.add_batch([f"{batch}-{i}" for i in range(20)], [" ".join(t) for t in token_lists], token_lists)
        all_lists += token_lists
        first_call = first_call or [t for tokens in token_lists for t in tokens]
    assert len({t for tokens in all_lists for t in tokens}) > 1024
    reference = np.array(_ref_rows(index, all_lists), dtype=np.uint64)
    assert np.array_equal(index._sigs[: len(all_lists)], reference & np.uint64(0xFFFF))


def _dfs_least_rows(rows, left, right):
    """The least row of each row's connected component, by depth-first search."""
    edges = {row: [] for row in range(rows)}
    for x, y in zip(left.tolist(), right.tolist()):
        edges[x].append(y)
        edges[y].append(x)
    least = {}
    for start in range(rows):
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in least:
                least[x] = start
                stack.extend(edges[x])
    return [least[row] for row in range(rows)]


def test_join_matches_depth_first_search():
    rng = np.random.default_rng(11)
    chain = np.arange(1999)[::-1]  # a 2,000-row chain, its edges in reverse order
    no_edges = np.array([], dtype=np.int64)
    graphs = [(2000, chain, chain + 1), (2000, chain + 1, chain), (5, no_edges, no_edges)]
    for _ in range(30):
        rows = int(rng.integers(1, 400))
        edges = int(rng.integers(0, rows * 2))
        graphs.append((rows, rng.integers(0, rows, edges), rng.integers(0, rows, edges)))
    for rows, left, right in graphs:
        expected = _dfs_least_rows(rows, left, right)
        labels = np.arange(rows)
        _join(labels, left, right)
        assert labels.tolist() == expected
        labels = np.arange(rows)
        for start in range(0, len(left), 37):  # a chunk at a time, as resolve joins them
            _join(labels, left[start : start + 37], right[start : start + 37])
        assert labels.tolist() == expected


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 4),
    st.floats(0.0, 0.6),
    st.sampled_from([(8, 0.5), (8, 1.0), (16, 0.7), (32, 0.8), (128, 0.7)]),
)
def test_near_labels_are_components_of_colliding_verified_pairs(seed, rows, values, edit_rate, split):
    """Rows drawn from three templates of few distinct bin values, each bin
    redrawn with probability `edit_rate`, so that buckets are large and hold
    pairs that pass and pairs that fail: the labels are the components, by
    depth-first search, of every pair that shares a bucket in some band and
    verifies, and no more pairs are verified than collide."""
    permutations, threshold = split
    rng = np.random.default_rng(seed)
    templates = rng.integers(0, values, (3, permutations), dtype=np.uint16)
    sigs = templates[rng.integers(0, 3, rows)]
    edits = rng.random(sigs.shape) < edit_rate
    sigs[edits] = rng.integers(0, values, np.count_nonzero(edits), dtype=np.uint16)
    index = Deduplicator(exact=False, permutations=permutations, threshold=threshold)
    index._sigs, index._signed = sigs, list(range(rows))
    report = DedupReport()
    labels = index._near_labels(report)

    bands, band_rows = optimal_band_split(permutations, threshold)
    band_keys = [[row[band * band_rows : (band + 1) * band_rows].tobytes() for row in sigs] for band in range(bands)]
    colliding = [
        (a, b) for a in range(rows) for b in range(a + 1, rows) if any(keys[a] == keys[b] for keys in band_keys)
    ]
    verified = [(a, b) for a, b in colliding if np.count_nonzero(sigs[a] == sigs[b]) / permutations >= threshold]
    left, right = np.array(verified, dtype=np.int64).reshape(-1, 2).T
    assert labels.tolist() == _dfs_least_rows(rows, left, right)
    near_removed = int(np.count_nonzero(labels != np.arange(rows)))
    assert near_removed <= report.verified_pairs <= report.candidate_pairs <= len(colliding)


def _edited(tokens, edits, rng, vocab):
    tokens = list(tokens)
    for pos in rng.sample(range(len(tokens)), edits):
        tokens[pos] = rng.choice(vocab)
    return tokens


def _template_and_copies(n):
    """A 300-token template and n near-copies of it, 3 substitutions each."""
    rng = random.Random(17)
    vocab = [f"w{i}" for i in range(5000)]
    template = [rng.choice(vocab) for _ in range(300)]
    return template, [_edited(template, 3, rng, vocab) for _ in range(n)], vocab


def test_near_copies_of_one_template_cost_verifications_linear_in_their_number(make_doc):
    """2,000 near-copies of one 300-token template, 3 substitutions each,
    form one cluster after at most 3 verifications per copy, where
    verifying every colliding pair would take about n^2 / 2."""
    _, copies, _ = _template_and_copies(2000)
    docs = [make_doc(" ".join(tokens), doc_id=f"c{i:04d}") for i, tokens in enumerate(copies)]
    kept, report = near_dedup(docs)
    assert report.clusters == [("c0000", [doc.id for doc in docs[1:]])]
    assert [doc.id for doc in kept] == ["c0000"]
    assert report.candidate_pairs <= 3 * len(docs)


def test_near_copies_behind_a_variant_that_fails_against_them_stay_linear(make_doc):
    """A variant of the template, 15 substitutions off, comes first and
    shares the first band's bucket with the template, so it is that
    bucket's first row; it fails against every copy. The 2,000 copies
    behind it still form one cluster after at most 4 verifications per
    document, where verifying the bucket's other pairs at once would take
    about n^2 / 2."""
    template, copies, vocab = _template_and_copies(2000)
    band = minhash_signature(" ".join(template)).values[:4]  # 4 rows per band at 128 x 0.7
    rng = random.Random(5)
    variant = _edited(template, 15, rng, vocab)
    while not (minhash_signature(" ".join(variant)).values[:4] == band).all():
        variant = _edited(template, 15, rng, vocab)
    docs = [make_doc(" ".join(variant), doc_id="variant")]
    docs += [make_doc(" ".join(tokens), doc_id=f"c{i:04d}") for i, tokens in enumerate(copies)]
    kept, report = near_dedup(docs)
    assert report.clusters == [("c0000", [doc.id for doc in docs[2:]])]
    assert [doc.id for doc in kept] == ["variant", "c0000"]
    assert report.candidate_pairs <= 4 * len(docs)


def test_chain_of_revisions_costs_verifications_linear_in_its_length(make_doc):
    """2,000 revisions of the template, each one substitution off the one
    before, so that revisions far apart in the chain fail against each
    other: they form one cluster after at most 6 verifications per
    revision."""
    template, _, vocab = _template_and_copies(0)
    rng = random.Random(23)
    chain = [template]
    for _ in range(1999):
        chain.append(_edited(chain[-1], 1, rng, vocab))
    docs = [make_doc(" ".join(tokens), doc_id=f"r{i:04d}") for i, tokens in enumerate(chain)]
    kept, report = near_dedup(docs)
    assert report.clusters == [("r0000", [doc.id for doc in docs[1:]])]
    assert report.verified_pairs < report.candidate_pairs <= 6 * len(docs)


def test_near_clusters_listed_in_order_of_their_first_document(make_doc):
    text_a = " ".join(f"a{i}" for i in range(30))
    text_b = " ".join(f"b{i}" for i in range(30))
    docs = [
        make_doc(text_a, doc_id="a"),
        make_doc(text_b, doc_id="b"),
        make_doc(text_b, doc_id="b-copy"),
        make_doc(text_a, doc_id="a-copy"),
        make_doc(text_a, doc_id="a-copy-2"),
    ]
    kept, report = near_dedup(docs, threshold=1.0)
    assert [d.id for d in kept] == ["a", "b"]
    assert report.clusters == [("a", ["a-copy", "a-copy-2"]), ("b", ["b-copy"])]


def test_band_split_shapes():
    bands, rows = optimal_band_split(128, 0.7)
    assert bands * rows == 128
    # exact-duplicate threshold degenerates to requiring all positions to agree
    assert optimal_band_split(128, 1.0) == (1, 128)


def test_band_split_detects_above_margin():
    """Whatever split is chosen, a pair at threshold+0.1 must collide with
    probability >= 0.999 (this is what makes the recall invariant testable)."""
    for threshold in (0.5, 0.7, 0.8):
        bands, rows = optimal_band_split(128, threshold)
        s = threshold + 0.1
        p_collide = 1.0 - (1.0 - s**rows) ** bands
        assert p_collide >= 0.999, (threshold, bands, rows, p_collide)


def test_exact_dedup_keeps_first_and_counts_tokens(make_doc, tok):
    docs = [
        make_doc("same text here", doc_id="first"),
        make_doc("different text entirely", doc_id="other"),
        make_doc("same text here", doc_id="copy"),
    ]
    kept, report = exact_dedup(docs)
    assert [d.id for d in kept] == ["first", "other"]
    assert report.exact_removed == 1
    assert report.tokens_before - report.tokens_after == 3


def test_exact_dedup_normalization_insensitive(make_doc):
    # NFKC-equal texts are the same document
    docs = [make_doc("ﬁling deadline"), make_doc("filing deadline")]
    kept, report = exact_dedup(docs)
    assert len(kept) == 1
    assert report.exact_removed == 1


def test_near_dedup_empty_corpus():
    kept, report = near_dedup([])
    assert kept == []
    assert report.near_removed == 0
    assert report.clusters == []


def test_near_dedup_threshold_one_on_exact_copies(make_doc):
    text = " ".join(f"w{i}" for i in range(40))
    docs = [
        make_doc(text, doc_id="orig"),
        make_doc(text, doc_id="dupe"),
        make_doc(" ".join(f"v{i}" for i in range(40)), doc_id="other"),
    ]
    kept, report = near_dedup(docs, threshold=1.0)
    assert [d.id for d in kept] == ["orig", "other"]


def test_near_dedup_deterministic_for_fixed_seed():
    fixture = generate_dedup_fixture(seed=21)
    kept_a, report_a = near_dedup(fixture.docs, seed=3)
    kept_b, report_b = near_dedup(fixture.docs, seed=3)
    assert [d.id for d in kept_a] == [d.id for d in kept_b]
    assert report_a.to_json() == report_b.to_json()


def test_near_dedup_token_accounting():
    fixture = generate_dedup_fixture(seed=8)
    kept, report = near_dedup(fixture.docs)
    removed_ids = {d.id for d in fixture.docs} - {d.id for d in kept}
    removed_tokens = sum(
        len(d.text.split()) for d in fixture.docs if d.id in removed_ids
    )
    assert report.tokens_before - report.tokens_after == removed_tokens


def test_near_dedup_fixture_recall_and_precision():
    fixture = generate_dedup_fixture(seed=0)
    near_ids = {a for a, _ in fixture.near_pairs} | {b for _, b in fixture.near_pairs}
    exact_removed = {b for _, b in fixture.exact_pairs}
    kept, report = near_dedup(fixture.docs, seed=0)
    kept_ids = {d.id for d in kept}
    # every exact copy gone, every near copy collapsed onto its original
    for a, b in fixture.exact_pairs + fixture.near_pairs:
        assert a in kept_ids
        assert b not in kept_ids
    # nothing outside the planted duplicates was removed
    unrelated = {d.id for d in fixture.docs} - near_ids - exact_removed - {
        a for a, _ in fixture.exact_pairs
    }
    assert unrelated <= kept_ids


def test_cluster_dump_format(tmp_path, make_doc):
    text = " ".join(f"w{i}" for i in range(30))
    docs = [make_doc(text, doc_id="keep"), make_doc(text, doc_id="drop")]
    _, report = near_dedup(docs, threshold=1.0)
    path = tmp_path / "clusters.tsv"
    write_cluster_dump(report, path)
    assert path.read_text().splitlines() == ["keep\tdrop"]


def test_exact_then_near_dedup_combines_both_passes(make_doc):
    text = " ".join(f"w{i}" for i in range(30))
    docs = [
        make_doc(text, doc_id="orig"),
        make_doc(text, doc_id="copy"),
        # same tokens, different bytes: only near dedup catches it
        make_doc(text.replace(" ", "  "), doc_id="spaced"),
        make_doc(" ".join(f"v{i}" for i in range(30)), doc_id="other"),
    ]
    kept, report = dedup_docs(docs, threshold=1.0)
    assert [d.id for d in kept] == ["orig", "other"]
    assert report.clusters == [("orig", ["copy"]), ("orig", ["spaced"])]
    assert (report.exact_removed, report.near_removed) == (1, 1)
    assert (report.tokens_before, report.tokens_after) == (120, 60)
    assert (report.candidate_pairs, report.verified_pairs) == (1, 1)
    assert '"candidate_pairs": 1' in report.to_json() and '"verified_pairs": 1' in report.to_json()

    kept, report = dedup_docs(docs, threshold=1.0, exact_only=True)
    assert [d.id for d in kept] == ["orig", "spaced", "other"]
    assert report.clusters == [("orig", ["copy"])]
    assert (report.exact_removed, report.near_removed) == (1, 0)
    assert (report.tokens_before, report.tokens_after) == (120, 90)
    assert (report.candidate_pairs, report.verified_pairs) == (0, 0)


def test_dedup_subcommand_tokenizes_each_document_once(tmp_path, monkeypatch):
    """The exact pass counts tokens from the tokenization near dedup signs
    with: the dedup subcommand's index takes each document's whitespace
    tokens once, in stream order."""
    docs = generate_dedup_fixture(seed=8).docs
    kept, report = dedup_docs(docs)
    tokenized = []
    real = Deduplicator.add_batch

    def recording(self, ids, texts, token_lists):
        tokenized.extend(token_lists)
        return real(self, ids, texts, token_lists)

    monkeypatch.setattr(Deduplicator, "add_batch", recording)
    write_documents(docs, tmp_path / "in.jsonl")
    argv = ["dedup", "-i", tmp_path / "in.jsonl", "-o", tmp_path / "out.jsonl", "--report", tmp_path / "r.json"]
    assert cli.main([str(a) for a in argv]) == 0
    assert tokenized == [d.text.split() for d in docs]
    assert (tmp_path / "r.json").read_text() == report.to_json() + "\n"
    assert [d.id for d in read_documents(tmp_path / "out.jsonl")] == [d.id for d in kept]


def _reference_near_dedup(docs, permutations, threshold, shingle_n=5, seed=0):
    """The pairwise band loop near_dedup replaced, over the same signatures:
    dict buckets per band, each bucket pair checked once (the `checked` set)
    with estimate_jaccard, clusters from a depth-first search over the
    verified pairs. Returns (clusters, kept ids, tokens_after, pairs checked,
    pairs verified, bucket sizes seen)."""
    sigs = [
        minhash_signature(d.text, shingle_n=shingle_n, permutations=permutations, seed=seed)
        for d in docs
    ]
    bands, rows = optimal_band_split(permutations, threshold)
    buckets = [{} for _ in range(bands)]
    for idx, sig in enumerate(sigs):
        for band in range(bands):
            buckets[band].setdefault(sig.values[band * rows : (band + 1) * rows].tobytes(), []).append(idx)
    checked = set()
    edges = {idx: [] for idx in range(len(docs))}
    for band_map in buckets:
        for members in band_map.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pair = (members[i], members[j])
                    if pair in checked:
                        continue
                    checked.add(pair)
                    if estimate_jaccard(sigs[pair[0]], sigs[pair[1]]) >= threshold:
                        edges[pair[0]].append(pair[1])
                        edges[pair[1]].append(pair[0])
    component = {}
    clusters = []
    for start in range(len(docs)):
        if start in component:
            continue
        component[start] = start
        stack, members = [start], []
        while stack:
            x = stack.pop()
            members.append(x)
            for y in edges[x]:
                if y not in component:
                    component[y] = start
                    stack.append(y)
        if len(members) > 1:
            clusters.append((docs[start].id, [docs[i].id for i in sorted(members)[1:]]))
    kept = [d for idx, d in enumerate(docs) if component[idx] == idx]
    verified = sum(len(e) for e in edges.values()) // 2
    sizes = {len(m) for band_map in buckets for m in band_map.values()}
    return clusters, [d.id for d in kept], sum(len(d.text.split()) for d in kept), len(checked), verified, sizes


def _bucket_corpus(make_doc):
    """Stream-shuffled corpus: 105 identical copies and 30 edited copies of
    one template, 6 pairs (3 identical, 3 one token apart), 20 unrelated
    documents, and texts shorter than one shingle, among them two equal ones
    and an empty one."""
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(300)]

    def text(n):
        return [rng.choice(vocab) for _ in range(n)]

    def edited(tokens, edits):
        tokens = list(tokens)
        for _ in range(edits):
            tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
        return " ".join(tokens)

    template = text(60)
    texts = [" ".join(template)] * 105 + [edited(template, 1 + i % 4) for i in range(30)]
    for i in range(6):
        base = text(40)
        texts += [" ".join(base), edited(base, i // 3)]
    texts += [" ".join(text(40)) for _ in range(20)]
    texts += ["w1 w2", "w1 w2", "w7", ""]
    rng.shuffle(texts)
    return [make_doc(t, doc_id=f"d{i:03d}") for i, t in enumerate(texts)]


@pytest.mark.parametrize("permutations", [128, 8])
@pytest.mark.parametrize("threshold", [0.5, 0.7, 1.0])
def test_near_dedup_equals_pairwise_reference(make_doc, tok, permutations, threshold):
    docs = _bucket_corpus(make_doc)
    clusters, kept_ids, tokens_after, checked, _, sizes = _reference_near_dedup(docs, permutations, threshold)
    assert {1, 2} <= sizes and max(sizes) > 100
    kept, report = near_dedup(docs, permutations=permutations, threshold=threshold, tok=tok)
    assert report.clusters == clusters
    assert [d.id for d in kept] == kept_ids
    assert report.near_removed == len(docs) - len(kept_ids)
    assert (report.tokens_before, report.tokens_after) == (sum(len(tok.tokenize(d.text)) for d in docs), tokens_after)
    assert report.near_removed <= report.verified_pairs <= report.candidate_pairs <= checked


_HASHSEED_PROBE = """
import hashlib
from lexcorpus.dedup import minhash_signature, near_dedup
from synth_fixtures import generate_dedup_fixture

docs = generate_dedup_fixture(seed=0, n_base=70, n_exact=20, n_near=10).docs
_, report = near_dedup(docs, threshold=0.7, seed=0)
print(report.to_json())
values = b"".join(minhash_signature(d.text).values.tobytes() for d in docs)
print(hashlib.sha256(values).hexdigest())
"""


def test_near_dedup_independent_of_python_hash_seed():
    src = str(Path(lexcorpus.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, str(Path(__file__).parent), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE], env=env, capture_output=True, check=True, timeout=120
        )
        outputs.append(proc.stdout)
    assert b'"near_removed": 0' not in outputs[0]
    assert outputs[0] == outputs[1]
