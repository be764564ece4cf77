from __future__ import annotations

import json

import pytest

from lexcorpus.corpus import DuplicateIdError, report_json, write_lines
from lexcorpus.mix import (
    InsufficientTokensError,
    MixError,
    MixSpec,
    assemble_mix,
    derive_seed,
    load_mix_spec,
    validate_mix,
)
from lexcorpus.synthdata import generate_seed_corpus
from synth_fixtures import generate_mix_inputs


@pytest.fixture()
def measure(tok):
    """A document's id and whitespace token count, as the mix subcommand measures it."""
    return lambda doc: (doc.id, len(tok.tokenize(doc.text)))


def _source_of(doc):
    return doc.source.name


def _stream(sources):
    """The documents of `sources`, a corpus per source name, as one stream."""
    return [doc for docs in sources.values() for doc in docs]


def _two_source_spec(budget=50_000, seed=7):
    return MixSpec(entries=[("legal", 0.98), ("replay", 0.02)], token_budget=budget, seed=seed)


def test_spec_fractions_must_sum_to_one():
    with pytest.raises(MixError):
        MixSpec(entries=[("legal", 0.5), ("replay", 0.4)], token_budget=100, seed=0)


def test_spec_rejects_nonpositive_budget_and_fractions():
    with pytest.raises(MixError):
        MixSpec(entries=[("legal", 1.0)], token_budget=0, seed=0)
    with pytest.raises(MixError):
        MixSpec(entries=[("legal", 1.2), ("replay", -0.2)], token_budget=100, seed=0)


def test_spec_rejects_duplicate_sources():
    with pytest.raises(MixError):
        MixSpec(entries=[("legal", 0.5), ("legal", 0.5)], token_budget=100, seed=0)


def save_mix_spec(spec: MixSpec, path) -> None:
    entries = [{"source": name, "fraction": fraction} for name, fraction in spec.entries]
    write_lines([report_json(spec, entries=entries)], path)


def test_spec_roundtrip(tmp_path):
    spec = _two_source_spec()
    path = tmp_path / "mix.json"
    save_mix_spec(spec, path)
    loaded = load_mix_spec(path)
    assert loaded.entries == spec.entries
    assert loaded.token_budget == spec.token_budget
    assert loaded.seed == spec.seed


def test_derive_seed_stable_across_runs():
    # stable, documented derivation; not the process-salted builtin hash
    assert derive_seed(42, "legal") == derive_seed(42, "legal")
    assert derive_seed(42, "legal") != derive_seed(42, "replay")
    assert derive_seed(42, "legal") != derive_seed(43, "legal")


def test_assemble_realizes_requested_fractions(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    _, manifest = assemble_mix(_stream(sources), spec, _source_of, measure)
    assert manifest.realized_fraction("replay") == pytest.approx(0.02, abs=0.005)
    assert manifest.realized_fraction("legal") == pytest.approx(0.98, abs=0.005)


def test_assemble_overshoot_bounded_by_one_document(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    _, manifest = assemble_mix(_stream(sources), spec, _source_of, measure)
    for name, frac in spec.entries:
        requested = int(manifest.per_source[name]["requested_tokens"])
        realized = int(manifest.per_source[name]["realized_tokens"])
        max_doc = max(len(d.text.split()) for d in sources[name])
        assert requested <= realized < requested + max_doc


def test_assemble_reaches_each_share_of_the_spec_budget(measure):
    """Each source's documents in the mix hold at least its share of the
    spec's budget, round(fraction * token_budget), and less than one
    document more; counted from the mix, not from the manifest."""
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    mixed, _ = assemble_mix(_stream(sources), spec, _source_of, measure)
    for name, fraction in spec.entries:
        share = round(fraction * spec.token_budget)
        ids = {d.id for d in sources[name]}
        realized = sum(len(d.text.split()) for d in mixed if d.id in ids)
        max_doc = max(len(d.text.split()) for d in sources[name])
        assert share <= realized < share + max_doc, name


def test_assemble_deterministic(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    mixed_a, man_a = assemble_mix(_stream(sources), spec, _source_of, measure)
    mixed_b, man_b = assemble_mix(_stream(sources), spec, _source_of, measure)
    assert [d.id for d in mixed_a] == [d.id for d in mixed_b]
    assert man_a.to_json() == man_b.to_json()


def test_different_seed_changes_selection(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    a, _ = assemble_mix(_stream(sources), _two_source_spec(seed=7), _source_of, measure)
    b, _ = assemble_mix(_stream(sources), _two_source_spec(seed=8), _source_of, measure)
    assert [d.id for d in a] != [d.id for d in b]


def test_insufficient_source_tokens_is_an_error(measure):
    docs = generate_seed_corpus(seed=1, docs=50, source="legal") + generate_seed_corpus(seed=2, docs=1, source="replay")
    spec = MixSpec(entries=[("legal", 0.5), ("replay", 0.5)], token_budget=40_000, seed=0)
    with pytest.raises(InsufficientTokensError):
        assemble_mix(docs, spec, _source_of, measure)


def test_unknown_source_in_spec_is_an_error(measure):
    """A spec source with no documents in the stream is short of tokens."""
    docs = generate_seed_corpus(seed=1, docs=10, source="legal")
    spec = MixSpec(entries=[("legal", 0.98), ("replay", 0.02)], token_budget=1000, seed=0)
    with pytest.raises(InsufficientTokensError, match="'replay' exhausted at 0 tokens, 20 requested"):
        assemble_mix(docs, spec, _source_of, measure)


def test_documents_of_a_source_the_spec_does_not_name_are_skipped(measure):
    """A third source in the stream neither enters the mix nor moves what
    the spec's sources pick, and is never measured."""
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    expected, expected_manifest = assemble_mix(_stream(sources), spec, _source_of, measure)
    other = generate_seed_corpus(seed=3, docs=20, source="wikipedia")
    measured = []

    def spy(doc):
        measured.append(doc.source.name)
        return measure(doc)

    stream = [doc for pair in zip(other, _stream(sources)) for doc in pair] + _stream(sources)[len(other):]
    mixed, manifest = assemble_mix(stream, spec, _source_of, spy)
    assert [d.id for d in mixed] == [d.id for d in expected]
    assert manifest.to_json() == expected_manifest.to_json()
    assert "wikipedia" not in measured


def test_only_the_documents_a_walk_reaches_are_measured(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    measured = []

    def spy(doc):
        measured.append(doc.id)
        return measure(doc)

    mixed, _ = assemble_mix(_stream(sources), _two_source_spec(), _source_of, spy)
    assert sorted(measured) == sorted(d.id for d in mixed) and len(mixed) < len(_stream(sources))


def test_per_source_counts_are_the_picked_documents_own_sources(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    mixed, manifest = assemble_mix(_stream(sources), _two_source_spec(), _source_of, measure)
    for name, entry in manifest.per_source.items():
        assert entry["documents"] == sum(d.source.name == name for d in mixed), name


def test_an_id_picked_twice_is_named(measure):
    docs = generate_seed_corpus(seed=1, docs=3, source="legal")
    spec = MixSpec(entries=[("legal", 1.0)], token_budget=10**6, seed=0)
    with pytest.raises(DuplicateIdError, match=f"document id '{docs[0].id}' appears twice in the mix's inputs"):
        assemble_mix(docs + docs[:1], spec, _source_of, measure)


@pytest.mark.parametrize("name", [5, ""])
def test_spec_source_name_must_be_a_non_empty_string(name):
    with pytest.raises(MixError, match="is not a non-empty string"):
        MixSpec(entries=[("legal", 0.98), (name, 0.02)], token_budget=1000, seed=0)


def test_validate_mix_tolerances(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    _, manifest = assemble_mix(_stream(sources), spec, _source_of, measure)
    assert validate_mix(manifest, spec, tolerance=0.005).passed
    report = validate_mix(manifest, spec, tolerance=0.0)
    assert not report.passed
    payload = json.loads(report.to_json())
    assert payload["tolerance"] == 0.0


def test_manifest_digest_tracks_document_identity(measure):
    sources = generate_mix_inputs(seed=5, token_budget=50_000)
    spec = _two_source_spec()
    _, man_a = assemble_mix(_stream(sources), spec, _source_of, measure)
    _, man_b = assemble_mix(_stream(sources), _two_source_spec(seed=8), _source_of, measure)
    assert (
        man_a.per_source["legal"]["ids_digest"]
        != man_b.per_source["legal"]["ids_digest"]
    )
