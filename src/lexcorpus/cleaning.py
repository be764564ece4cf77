"""Text normalization, artifact n-gram mining, and rule-based filtering.

The shipped rules target the junk that PDF extraction leaves behind in
legal corpora: runs of repeated punctuation used as visual separators,
stray HTML tags, and repeated whitespace.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

from .corpus import Document, InputError, load_json, write_lines

RULE_ACTIONS = ("delete_match", "collapse_whitespace", "strip_html")

# Rule application must reach a fixed point quickly; more passes than this
# means a rule keeps rewriting its own output.
_MAX_PASSES = 25


class RuleConfigError(InputError):
    """A rule file or rule definition that cannot be compiled."""


def normalize_text(text: str) -> str:
    """NFKC-normalize; output is a fixed point of the operation."""
    return unicodedata.normalize("NFKC", text)


# Doubled punctuation, `cc` or `c c`: every run the shipped punctuation rules
# delete starts this way. A five-character literal would be unsound, because
# `( ?\1){4,}` also matches mixed runs such as `-- - --`. One regex per
# character finds both forms in one scan led by the character itself, where
# a substring search for `..` or `. .` is slow on text full of periods.
_PUNCT_PAIRS = tuple((c, re.compile(f"{re.escape(c)} ?{re.escape(c)}").search) for c in "-.*=_")
# A newline with a space or tab on either side: exactly the texts that the
# `[ \t]*\n[ \t]*` rule changes, found in one scan led by the rare "\n".
_SPACE_BY_NEWLINE = re.compile(r"\n(?:[ \t]|(?<=[ \t]\n))").search


def _has_punct_pair(text: str) -> bool:
    # The single-character test first: it is one fast scan, and most texts
    # lack most of these characters.
    for c, search_pair in _PUNCT_PAIRS:
        if c in text and search_pair(text):
            return True
    return False


def _has_lt(text: str) -> bool:
    return "<" in text


def _has_space_run(text: str) -> bool:
    return "  " in text or "\t" in text


def _has_space_by_newline(text: str) -> bool:
    return _SPACE_BY_NEWLINE(text) is not None


def _has_blank_run(text: str) -> bool:
    return "\n\n\n" in text


# The shipped rules as (pattern, action, replacement, note, guard). A guard is
# a cheap scan (`in` tests, or a regex led by a rare character) that returns
# False only when the rule's `sub` would leave the text unchanged. Guards are
# module-level functions so that rules still pickle.
_SHIPPED_RULES = (
    (
        r"</?[A-Za-z][A-Za-z0-9]*(?:[^<>\n]*)?/?>",
        "strip_html",
        "",
        "html tags that survived text extraction",
        _has_lt,
    ),
    (
        r"(?m)^[ \t]*([-.*=_])( ?\1){4,}[ \t]*\n?",
        "delete_match",
        "",
        "separator line of repeated punctuation, a top pdf-extraction artifact",
        _has_punct_pair,
    ),
    (
        r"(?<![\w.])([-.*=_])( ?\1){4,}",
        "delete_match",
        "",
        "inline run of repeated punctuation, a top pdf-extraction artifact; "
        "anchored off word ends so sentence-final periods survive",
        _has_punct_pair,
    ),
    (
        r"[ \t]{2,}",
        "collapse_whitespace",
        " ",
        "repeated spaces/tabs",
        _has_space_run,
    ),
    (
        # A bare "\n" matches too, but is rewritten to itself; that holds
        # only for this replacement, which is why the guard key includes it.
        r"[ \t]*\n[ \t]*",
        "collapse_whitespace",
        "\n",
        "whitespace hugging a line break",
        _has_space_by_newline,
    ),
    (
        r"\n{3,}",
        "collapse_whitespace",
        "\n\n",
        "runs of blank lines; one blank line marks a paragraph boundary",
        _has_blank_run,
    ),
)

_GUARDS = {(pattern, action, repl): guard for pattern, action, repl, _, guard in _SHIPPED_RULES}


@dataclass(frozen=True)
class Rule:
    pattern: str
    action: str
    replacement: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if self.action not in RULE_ACTIONS:
            raise RuleConfigError(f"unknown rule action {self.action!r}")
        try:
            compiled = re.compile(self.pattern)
        except re.error as exc:
            raise RuleConfigError(f"pattern {self.pattern!r} does not compile: {exc}") from None
        if self.action == "collapse_whitespace":
            try:
                compiled.sub(self.replacement, "")  # a bad replacement fails here, not mid-stream
            except re.error as exc:
                raise RuleConfigError(f"replacement {self.replacement!r} does not compile: {exc}") from None
        object.__setattr__(self, "_compiled", compiled)
        object.__setattr__(self, "_guard", _GUARDS.get((self.pattern, self.action, self.replacement)))

    def apply(self, text: str) -> str:
        """Rewrite every match of the pattern.

        A rule equal in pattern, action and replacement to a shipped rule,
        whether built in code or loaded from a ruleset file, first runs that
        rule's guard: a cheap scan that is False only when the rewrite
        cannot change the text. On False it returns `text` itself without
        running the rule's regex. Every other rule always runs the regex.
        """
        if self._guard is not None and not self._guard(text):
            return text
        if self.action == "collapse_whitespace":
            return self._compiled.sub(self.replacement, text)
        # delete_match and strip_html both erase the match; the distinct
        # action names keep rule files self-describing.
        return self._compiled.sub("", text)


@dataclass(frozen=True)
class RuleSet:
    rules: Tuple[Rule, ...]

    def __post_init__(self) -> None:
        # The distinct guards of the rules, in rule order, or None when a rule
        # has none: a text that no guard fires on is one no rule can change.
        guards = tuple(rule._guard for rule in self.rules)
        object.__setattr__(self, "_guards", None if None in guards else tuple(dict.fromkeys(guards)))


def build_default_ruleset() -> RuleSet:
    """The shipped cleaning rules.

    Repeated-punctuation runs (`-`, `.`, `*`, `=`, `_`) of length >= 5,
    with or without interleaved spaces, are removed; runs shorter than 5
    survive so legal ellipses stay intact. Whitespace collapse keeps one
    blank line between paragraphs because the perplexity filter operates
    per paragraph.

    Each shipped rule carries a guard (see `Rule.apply`), so a text the rule
    cannot change costs a few cheap scans instead of the rule's regex. The
    guard is found from the rule's pattern, action and replacement, so these
    rules keep it after a `save_ruleset`/`load_ruleset` round trip; user
    rules run unguarded.
    """
    return RuleSet(
        rules=tuple(
            Rule(pattern=pattern, action=action, replacement=replacement, note=note)
            for pattern, action, replacement, note, _ in _SHIPPED_RULES
        )
    )


def apply_rules(text: str, rules: RuleSet) -> str:
    """Apply the rule list repeatedly until the text stops changing.

    When every rule has a guard, each distinct guard runs once first; if
    none fires, no rule can change the text, and a text with no whitespace
    to strip is returned as it is without running any rule.
    """
    if rules._guards is not None:
        for guard in rules._guards:
            if guard(text):
                break
        else:  # no rule can change the text
            if text.strip() == text:
                return text
    for _ in range(_MAX_PASSES):
        new = text
        for rule in rules.rules:
            new = rule.apply(new)
        new = new.strip()
        if new == text:
            return new
        text = new
    raise RuntimeError("rule application did not reach a fixed point")


def clean_text(text: str, rules: RuleSet | None = None) -> str:
    """normalize_text + apply_rules, iterated to a joint fixed point."""
    if rules is None:
        rules = build_default_ruleset()
    for _ in range(_MAX_PASSES):
        new = apply_rules(normalize_text(text), rules)
        # apply_rules returns a fixed point of the rules, so once NFKC leaves
        # it alone the next pass could only give it back.
        if new == text or normalize_text(new) == new:
            return new
        text = new
    raise RuntimeError("cleaning did not reach a fixed point")


def split_paragraphs(text: str) -> List[str]:
    """Paragraph = maximal run of non-blank lines."""
    paragraphs = []
    current: List[str] = []
    for line in text.split("\n"):
        if line.strip():
            current.append(line)
        elif current:
            paragraphs.append("\n".join(current))
            current = []
    if current:
        paragraphs.append("\n".join(current))
    return paragraphs


def load_ruleset(path: str | Path) -> RuleSet:
    """Load rules from a JSON file: a list of {pattern, action, replacement?, note?}.

    Configuration errors (bad action, pattern or replacement that fails to
    compile, a missing or mistyped field) raise here, never mid-stream.
    """

    def build(raw: list) -> RuleSet:
        if not (isinstance(raw, list) and all(isinstance(entry, dict) for entry in raw)):
            raise TypeError("expected a JSON list of rule objects")
        rules = (Rule(e["pattern"], e["action"], e.get("replacement", ""), e.get("note", "")) for e in raw)
        return RuleSet(rules=tuple(rules))

    return load_json(path, "rule file", RuleConfigError, build)


def save_ruleset(rules: RuleSet, path: str | Path) -> None:
    write_lines([json.dumps([asdict(r) for r in rules.rules], indent=2, ensure_ascii=False)], path)


def ngrams(tokens: Sequence[str], n: int) -> Iterable[Tuple[str, ...]]:
    """The n-token windows of `tokens` in order, none if it is shorter."""
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i : i + n])


def mine_ngrams(docs: Iterable[Document], n: int, top_k: int) -> List[Tuple[Tuple[str, ...], int]]:
    """Exact top-k `(ngram, count)` pairs of a corpus's whitespace tokens,
    descending by count; ties break lexicographically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counts: Counter = Counter()
    for doc in docs:
        counts.update(ngrams(doc.text.split(), n))
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def write_ngram_report(ranked: Iterable[Tuple[Tuple[str, ...], int]], path: str | Path) -> None:
    """Tab-separated `count<TAB>ngram`, one row per pair, in the given order."""
    write_lines((f"{count}\t{' '.join(ngram)}" for ngram, count in ranked), path)
