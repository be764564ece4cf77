from __future__ import annotations

import pickle
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lexcorpus import cleaning
from lexcorpus.cleaning import (
    Rule,
    RuleConfigError,
    RuleSet,
    apply_rules,
    build_default_ruleset,
    clean_text,
    load_ruleset,
    mine_ngrams,
    normalize_text,
    save_ruleset,
    write_ngram_report,
)


# --- unicode normalization ---------------------------------------------------

def test_nfkc_defined_mappings():
    assert normalize_text("ﬁling") == "filing"
    assert normalize_text("Ｈｅｌｌｏ") == "Hello"
    assert normalize_text(" ") == " "


def test_normalize_is_fixed_point():
    for text in ("ﬁling", "Ｈｅｌｌｏ", "plain ascii", "mixé ﬂavor ①"):
        once = normalize_text(text)
        assert normalize_text(once) == once


@given(st.text(max_size=200))
def test_normalize_idempotent_property(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


# --- rule filtering ----------------------------------------------------------

def test_dash_run_removed():
    assert clean_text("before\n- - - - - - - - - -\nafter") == "before\nafter"
    # `( ?\1){4,}` also matches runs that mix doubled and spaced characters.
    assert clean_text("a -- - -- b") == "a b"


def test_dot_run_removed_without_eating_sentence_period():
    cleaned = clean_text("The act was breached. . . . . . . . . . . next clause.")
    assert cleaned == "The act was breached. next clause."


def test_html_tags_stripped():
    assert clean_text("a <div class='x'>b</div> c <br/> d") == "a b c d"


def test_whitespace_runs_collapsed():
    assert clean_text("a  \t b") == "a b"
    assert clean_text("a \n b") == "a\nb"


def test_blank_line_runs_collapse_to_one_paragraph_break():
    cleaned = clean_text("para one\n\n\n\n\npara two")
    assert cleaned == "para one\n\npara two"


def test_clean_text_fixed_point():
    samples = [
        "x ========== y",
        "<p>hi</p>\n\n\n\nthere",
        "a * * * * * b",
        "__________ footer",
    ]
    for s in samples:
        once = clean_text(s)
        assert clean_text(once) == once


def test_clean_sentences_untouched():
    sentences = [
        "The court held that the contract was enforceable.",
        "Section 12(b) applies to claims filed after 1998.",
        "Plaintiff-Appellant argued - without citation - the opposite.",
        "See U.S. v. Carroll, 105 F.3d 740 (1st Cir. 1997).",
    ]
    for s in sentences:
        assert clean_text(s) == s


def _reference_clean_text(text, rules):
    """The cleaning loop as written before rules had guards: every rule
    always runs its regex. The oracle for clean_text."""

    def apply_rules(text):
        for _ in range(25):
            new = text
            for rule in rules.rules:
                repl = rule.replacement if rule.action == "collapse_whitespace" else ""
                new = re.sub(rule.pattern, repl, new)
            new = new.strip()
            if new == text:
                return new
            text = new
        raise RuntimeError("rule application did not reach a fixed point")

    for _ in range(25):
        new = apply_rules(normalize_text(text))
        if new == text:
            return new
        text = new
    raise RuntimeError("cleaning did not reach a fixed point")


# Characters the rules react to, plus ones NFKC turns into them: no-break and
# ideographic space, the one- and two-dot leaders, the ellipsis, fullwidth
# full stop, hyphen-minus and less-than, dashed low line, and a ligature.
_CLEANING_CHARS = "-.*=_ \t\n<>/abp\u00a0\u3000\u2024\u2025\u2026\uff0e\uff0d\uff1c\ufe4d\ufb01"
_CLEANING_CHUNKS = [
    "<b>", "</p>", "<br/>", "-----", "- - - - -", "-- - --", ". . . .", "\n\n\n", " \n", "\t", "word",
    "\n\t", "\t\n", " \n ", "..", ". .",
]
_CLEANING_TEXT = st.lists(
    st.one_of(st.text(alphabet=_CLEANING_CHARS, max_size=12), st.sampled_from(_CLEANING_CHUNKS)),
    max_size=12,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_CLEANING_TEXT)
def test_clean_text_matches_unguarded_reference(text):
    rules = build_default_ruleset()
    assert clean_text(text, rules) == _reference_clean_text(text, rules)


@settings(max_examples=400, deadline=None)
@given(_CLEANING_TEXT)
def test_guards_agree_with_their_substring_forms(text):
    # The guards as plain substring tests, the form they had before their
    # costly scans became regex searches.
    punct_pair = any(c in text and (c + c in text or f"{c} {c}" in text) for c in "-.*=_")
    assert cleaning._has_punct_pair(text) == punct_pair
    assert cleaning._has_space_by_newline(text) == (" \n" in text or "\n " in text or "\t\n" in text or "\n\t" in text)


def test_unguarded_user_rule_runs_beside_the_shipped_rules():
    text = "The court held that the contract was enforceable."
    shipped = build_default_ruleset()
    assert not any(rule._guard(text) for rule in shipped.rules)
    rules = RuleSet(rules=(*shipped.rules, Rule(pattern="contract", action="delete_match")))
    assert apply_rules(text, rules) == "The court held that the was enforceable."
    assert clean_text(text, rules) == "The court held that the was enforceable."


def test_user_rule_reusing_a_shipped_pattern_runs_unguarded():
    # The shipped rule with this pattern rewrites a bare "\n" to itself; with
    # another replacement, a bare "\n" must be rewritten.
    rules = RuleSet(rules=(Rule(pattern=r"[ \t]*\n[ \t]*", action="collapse_whitespace", replacement=" "),))
    assert clean_text("line one\nline two", rules) == "line one line two"


def test_ruleset_roundtrip(tmp_path):
    rules = build_default_ruleset()
    path = tmp_path / "rules.json"
    save_ruleset(rules, path)
    loaded = load_ruleset(path)
    probes = [
        "x <b>y</b>  z\n- - - - - - -\nw",
        "a -- - -- b",
        "para one \n\n\n\npara two\t end",
        "fine\uff0e\uff0e\uff0e\uff0e\uff0e text",
    ]
    unpickled = pickle.loads(pickle.dumps(rules))
    for probe in probes:
        assert apply_rules(probe, loaded) == apply_rules(probe, rules)
        expected = _reference_clean_text(probe, rules)
        for variant in (rules, loaded, unpickled):
            assert clean_text(probe, variant) == expected


def test_bad_ruleset_rejected(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"rules": [{"pattern": "([unclosed", "action": "delete_match"}]}')
    with pytest.raises(RuleConfigError):
        load_ruleset(path)


def test_bad_replacement_rejected_at_load_not_mid_stream(tmp_path):
    with pytest.raises(RuleConfigError, match="replacement .* does not compile: invalid group reference 9"):
        Rule(pattern="a", action="collapse_whitespace", replacement="\\9")
    path = tmp_path / "rules.json"
    path.write_text('[{"pattern": "a", "action": "collapse_whitespace", "replacement": 5}]')
    with pytest.raises(RuleConfigError, match=f"^malformed rule file {re.escape(str(path))}: "):
        load_ruleset(path)
    # the erasing actions never use the replacement
    assert apply_rules("a b", RuleSet(rules=(Rule(pattern="a", action="delete_match", replacement="\\9"),))) == "b"


# --- n-gram mining -----------------------------------------------------------

def _brute_force_ngrams(texts, n):
    counts: Counter = Counter()
    for text in texts:
        tokens = text.split()
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def test_mine_ngrams_matches_brute_force(make_doc):
    texts = [
        "the dog saw the dog saw the cat",
        "the dog saw the dog",
        "a b c a b c a b",
    ]
    docs = [make_doc(t) for t in texts]
    ranked = mine_ngrams(docs, n=2, top_k=5)
    oracle = _brute_force_ngrams(texts, 2)
    expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert ranked == expected


def test_mine_ngrams_tie_break_lexicographic(make_doc):
    docs = [make_doc("z y z y x w x w")]
    ranked = mine_ngrams(docs, n=2, top_k=2)
    # ("x","w") and ("z","y") both occur twice; lexicographic order breaks the tie
    assert [ngram for ngram, _ in ranked] == [("x", "w"), ("z", "y")]


def test_mine_ngrams_short_docs_contribute_nothing(make_doc):
    docs = [make_doc("one two"), make_doc("three")]
    assert mine_ngrams(docs, n=10, top_k=3) == []


def test_mine_ngrams_rejects_bad_params(make_doc):
    with pytest.raises(ValueError):
        mine_ngrams([make_doc("a b")], n=0, top_k=1)
    with pytest.raises(ValueError):
        mine_ngrams([make_doc("a b")], n=1, top_k=0)


def test_ngram_report_format(tmp_path, make_doc):
    ranked = mine_ngrams([make_doc("a b a b a b a")], n=2, top_k=2)
    path = tmp_path / "ngrams.tsv"
    write_ngram_report(ranked, path)
    lines = path.read_text().splitlines()
    assert lines == ["3\ta b", "3\tb a"]
    # the rows are written in the order given
    write_ngram_report([(("b",), 1), (("a",), 2)], path)
    assert path.read_text().splitlines() == ["1\tb", "2\ta"]


@settings(max_examples=50)
@given(
    st.lists(
        st.text(alphabet="ab ", min_size=1, max_size=40).filter(lambda t: t.split()),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=1, max_value=3),
)
def test_mine_ngrams_always_matches_oracle(texts, n):
    from lexcorpus.corpus import Document, SourceTag

    docs = [
        Document(id=f"d{i}", source=SourceTag("freelaw"), text=t)
        for i, t in enumerate(texts)
    ]
    ranked = mine_ngrams(docs, n=n, top_k=1000)
    assert Counter(dict(ranked)) == _brute_force_ngrams(texts, n)
