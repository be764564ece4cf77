from __future__ import annotations

import statistics

import pytest

from lexcorpus.dedup import (
    dedup_corpus,
    estimate_jaccard,
    exact_dedup,
    minhash_signature,
    near_dedup,
    optimal_band_split,
    write_cluster_dump,
)
from lexcorpus.synthdata import generate_dedup_fixture, shingle_jaccard


def test_identical_texts_identical_signatures(tok):
    a = minhash_signature("the quick brown fox jumps over the lazy dog", tok)
    b = minhash_signature("the quick brown fox jumps over the lazy dog", tok)
    assert list(a.values) == list(b.values)
    assert estimate_jaccard(a, b) == 1.0


def test_signature_depends_on_seed(tok):
    text = "one two three four five six seven"
    a = minhash_signature(text, tok, seed=0)
    b = minhash_signature(text, tok, seed=1)
    assert list(a.values) != list(b.values)


def test_short_text_gets_degenerate_signature(tok):
    # fewer tokens than shingle_n: the whole sequence is the single shingle
    sig = minhash_signature("just three tokens", tok, shingle_n=5)
    assert sig.shingle_count == 1
    same = minhash_signature("just three tokens", tok, shingle_n=5)
    assert estimate_jaccard(sig, same) == 1.0


def test_mismatched_parameters_rejected(tok):
    a = minhash_signature("a b c d e f", tok, permutations=128, seed=0)
    b = minhash_signature("a b c d e f", tok, permutations=64, seed=0)
    c = minhash_signature("a b c d e f", tok, permutations=128, seed=9)
    with pytest.raises(ValueError):
        estimate_jaccard(a, b)
    with pytest.raises(ValueError):
        estimate_jaccard(a, c)


def test_estimator_concentration_at_half(tok):
    """Doc pair built so exactly 2 of 4 distinct shingles are shared
    (true Jaccard 0.5); the 128-permutation estimate concentrates there."""
    base = "t1 t2 t3 t4 t5 t6"
    longer = base + " t7 t8"
    assert shingle_jaccard(base, longer, shingle_n=5) == 0.5
    errs = []
    for seed in range(50):
        a = minhash_signature(base, tok, seed=seed)
        b = minhash_signature(longer, tok, seed=seed)
        errs.append(estimate_jaccard(a, b) - 0.5)
    assert max(abs(e) for e in errs) <= 0.15
    assert abs(statistics.mean(errs)) <= 0.05


def test_disjoint_docs_estimate_near_zero(tok):
    left = "a1 a2 a3 a4 a5 a6 a7 a8 a9 a10"
    right = "b1 b2 b3 b4 b5 b6 b7 b8 b9 b10"
    assert shingle_jaccard(left, right, shingle_n=5) == 0.0
    for seed in range(20):
        a = minhash_signature(left, tok, seed=seed)
        b = minhash_signature(right, tok, seed=seed)
        assert estimate_jaccard(a, b) <= 0.1


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


def test_dedup_corpus_combines_exact_then_near(make_doc):
    text = " ".join(f"w{i}" for i in range(30))
    docs = [
        make_doc(text, doc_id="orig"),
        make_doc(text, doc_id="copy"),
        # same tokens, different bytes: only near dedup catches it
        make_doc(text.replace(" ", "  "), doc_id="spaced"),
        make_doc(" ".join(f"v{i}" for i in range(30)), doc_id="other"),
    ]
    kept, report = dedup_corpus(docs, threshold=1.0)
    assert [d.id for d in kept] == ["orig", "other"]
    assert report.clusters == [("orig", ["copy"]), ("orig", ["spaced"])]
    assert (report.exact_removed, report.near_removed) == (1, 1)
    assert (report.tokens_before, report.tokens_after) == (120, 60)

    kept, report = dedup_corpus(docs, threshold=1.0, exact_only=True)
    assert [d.id for d in kept] == ["orig", "spaced", "other"]
    assert report.clusters == [("orig", ["copy"])]
    assert (report.exact_removed, report.near_removed) == (1, 0)
    assert (report.tokens_before, report.tokens_after) == (120, 90)
