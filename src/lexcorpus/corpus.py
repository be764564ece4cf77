"""Canonical document model and streaming corpus I/O.

A corpus file is UTF-8, newline-delimited JSON, one document per line:

    {"id": "...", "source": "...", "text": "...", "meta": {"k": "v"}}

``id`` and ``source`` are non-empty strings; ``source`` names the
collection a document came from, and any name will do. ``meta`` is a flat
string-to-string map. Readers ignore any other key,
``token_count`` included; writers emit exactly these four, each line in the
canonical form of ``document_to_json``. Every stage of the toolkit reads and
writes this format.
"""

from __future__ import annotations

import functools
import json
import os
import re
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring as _quote, encode_basestring_ascii as _quote_ascii
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterable, Iterator, TypeVar

T = TypeVar("T")


class InputError(Exception):
    """Base of the package's own errors for bad input (a file, flag, config
    or record), as against a failure mid-run: the CLI exits 1 on one."""


class CorpusError(InputError):
    """Malformed corpus file or record."""


class DuplicateIdError(CorpusError):
    """The same document id appeared twice in one corpus file."""


@dataclass(frozen=True)
class SourceTag:
    name: str


# Records of one source share one tag, interned here: a lookup costs about
# a quarter of building a new tag for each record.
_source_tag = functools.lru_cache(maxsize=1024)(SourceTag)


@dataclass
class Document:
    """One corpus record, treated as immutable after construction. It holds
    no token count: a stage that needs one tokenizes the text itself."""

    id: str
    source: SourceTag
    text: str
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")


class WhitespaceTokenizer:
    """Splits text on runs of whitespace, as `str.split` does."""

    def tokenize(self, text: str) -> list[str]:
        return text.split()


# Buffer of every corpus file opened here: reads and writes of a large
# corpus then take half the time they take at the 4 KiB st_blksize that
# Python picks by default.
BUFFER_SIZE = 64 * 1024

_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")
_scan_json = json.JSONDecoder().scan_once


def _field_error(obj: dict) -> str:
    """What is wrong with a record's id, source or text fields."""
    for key in ("id", "source", "text"):
        if key not in obj:
            return f"missing field {key!r}"
        if not isinstance(obj[key], str):
            return f"field {key!r} must be a string"
    return "empty id" if not obj["id"] else "empty source"


def _parse_record(raw: bytes, lineno: int) -> Document:
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"line {lineno}: invalid UTF-8 ({exc})") from None
    # One scanner call for a line in the shape every writer here emits: a
    # value at its first character, then its newline. Any other line gets
    # json.loads' verdict word for word. Nesting deeper than the recursion
    # limit, or an integer too long to convert, is bad JSON, not a crash.
    try:
        try:
            obj, end = _scan_json(line, 0)
        except StopIteration:  # no value at the first character
            end = len(line)
        if line[end:] != "\n":
            obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise CorpusError(f"line {lineno}: invalid JSON ({exc})") from None
    if type(obj) is not dict:
        raise CorpusError(f"line {lineno}: record is not a JSON object")
    doc_id, source, text = obj.get("id"), obj.get("source"), obj.get("text")
    if not (type(doc_id) is str and type(source) is str and type(text) is str and doc_id and source):
        raise CorpusError(f"line {lineno}: {_field_error(obj)}")
    # the decoder's own fresh dict, kept uncopied; JSON object keys are always strings
    meta = obj.get("meta", {})
    if type(meta) is not dict or (meta and not all(type(v) is str for v in meta.values())):
        raise CorpusError(f"line {lineno}: meta must be a flat string-to-string object")
    # JSON smuggles lone surrogates ("\ud800") through the decoder, and they
    # cannot be written back as UTF-8. Valid UTF-8 holds no surrogate, so one
    # can only come from a \uD800-\uDFFF escape, and it is never ASCII: a
    # record is checked only if its line has such an escape and it has a
    # meta or a non-ASCII field.
    if (meta or not (text.isascii() and doc_id.isascii() and source.isascii())) and _SURROGATE_ESCAPE.search(raw):
        try:
            for value in (doc_id, source, text, *meta, *meta.values()):
                value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(f"line {lineno}: record is not valid Unicode: {exc}") from None
    return Document(doc_id, _source_tag(source), text, meta)


class CorpusReader:
    """Streaming iterator over a corpus file.

    Memory use is the record being decoded plus every id read so far, kept
    to raise DuplicateIdError: it grows with the document count (about
    3.9 MB for 30,000 eleven-character ids), not with the documents' size.
    In lenient mode malformed records are skipped; ``.skipped`` holds the
    running count and is final once the stream is exhausted. Duplicate ids
    are an error in either mode. Each iteration reads the file afresh and
    counts from 0.
    """

    def __init__(self, path: str | Path, strict: bool = False):
        self.path = Path(path)
        self.strict = strict
        self.skipped = 0
        self.count = 0
        if not self.path.exists():
            raise FileNotFoundError(f"corpus file not found: {self.path}")
        if self.path.is_dir():
            raise CorpusError(f"corpus file is a directory: {self.path}")

    def __iter__(self) -> Iterator[Document]:
        seen: set[str] = set()
        self.skipped = self.count = 0
        with open(self.path, "rb", buffering=BUFFER_SIZE) as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.isspace():
                    continue
                try:
                    doc = _parse_record(raw, lineno)
                except CorpusError:
                    if self.strict:
                        raise
                    self.skipped += 1
                    continue
                if doc.id in seen:
                    raise DuplicateIdError(f"line {lineno}: duplicate document id {doc.id!r}")
                seen.add(doc.id)
                self.count += 1
                yield doc


def read_documents(path: str | Path, strict: bool = False) -> CorpusReader:
    """Open a corpus file for streaming; iterate the returned reader."""
    return CorpusReader(path, strict=strict)


def document_to_json(doc: Document) -> str:
    """The canonical JSON of a document: exactly what
    json.dumps(record, ensure_ascii=False, sort_keys=True) gives for the
    record's four keys, built from the C string encoder that json.dumps
    uses, without walking a record dict. ASCII text goes through the faster
    ASCII encoder, which writes the same bytes for every ASCII character but
    DEL."""
    meta = ", ".join(f"{_quote(k)}: {_quote(v)}" for k, v in sorted(doc.meta.items())) if doc.meta else ""
    text = doc.text
    quoted = _quote_ascii(text) if text.isascii() and "\x7f" not in text else _quote(text)
    return (
        f'{{"id": {_quote(doc.id)}, "meta": {{{meta}}}, '
        f'"source": {_quote(doc.source.name)}, "text": {quoted}}}'
    )


def canonical_prefix(doc_id: str) -> bytes:
    """How the canonical line (``encode_line``) of a document with this id
    begins, up to the ``meta`` key."""
    return f'{{"id": {_quote(doc_id)}, '.encode("utf-8")


def encode_line(doc: Document) -> bytes:
    """The document's corpus line as UTF-8, newline included. The one
    encode is also the check that every field is valid Unicode: a lone
    surrogate anywhere raises CorpusError."""
    try:
        return f"{document_to_json(doc)}\n".encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusError(f"document {doc.id!r} is not valid Unicode: {exc}") from None


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open `path` for writing UTF-8 text, or bytes if `binary`, so that a
    failed write leaves it as it was.

    When `path` is absent or a regular file, the text goes to a sibling temp
    file that replaces `path` only when the block ends without an exception,
    so a failed write never leaves a shorter file behind; an existing file's
    permission bits are kept. A symlink, device or FIFO (e.g. /dev/stdout)
    is written straight through instead, never replaced.
    """
    path = Path(path)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    how = {"mode": "wb"} if binary else {"mode": "w", "encoding": "utf-8"}
    how["buffering"] = BUFFER_SIZE
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, **how) as fh:
            yield fh
        return
    if mode is None:
        # mkstemp creates 0600; give a new file the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, **how) as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_lines(lines: Iterable[str], path: str | Path) -> int:
    """Write each string and a newline to `path` as UTF-8 through
    atomic_write; returns the line count. Reports, dumps, manifests and
    other text files are written here; corpora go through write_documents."""
    count = 0
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(f"{line}\n")
            count += 1
    return count


def load_json(
    path: str | Path, what: str, error: type = InputError, build: Callable[[Any], T] = lambda value: value
) -> T:
    """`build` of the value in the JSON file at `path`, the one reader of the
    JSON input files. Raises `error` naming the file as `what` if it is not
    UTF-8 JSON, or if `build` fails on a missing or mistyped field (KeyError,
    TypeError, ValueError or AttributeError) or on a value its own checks
    reject (InputError)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not UTF-8, or nesting too deep
            raise error(f"{what} {path} is not valid JSON: {exc}") from None
    try:
        return build(value)
    except (KeyError, TypeError, ValueError, AttributeError, InputError) as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


def report_json(report, **fields) -> str:
    """The indented, key-sorted JSON of a report or other dataclass: its
    fields as `dataclasses.asdict` gives them, with `fields` replacing or
    adding the ones it shapes differently."""
    return json.dumps({**asdict(report), **fields}, indent=2, sort_keys=True)


def write_documents(docs: Iterable[Document], path: str | Path) -> int:
    """Write documents as corpus JSONL through atomic_write; returns the
    record count.

    Round-trip contract: read_documents() on the output reproduces the
    input field for field. A document that is not valid Unicode raises
    CorpusError, and a failed write leaves a regular-file `path` as it was
    instead of a shorter corpus.
    """
    count = 0
    with atomic_write(path, binary=True) as fh:
        for doc in docs:
            fh.write(encode_line(doc))
            count += 1
    return count
