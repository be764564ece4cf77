from __future__ import annotations

import json
import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lexcorpus.corpus import (
    CorpusError,
    Document,
    DuplicateIdError,
    SourceTag,
    WhitespaceTokenizer,
    document_to_json,
    read_documents,
    encode_line,
    write_documents,
    write_lines,
)


def test_roundtrip_preserves_fields(tmp_path, make_doc):
    docs = [
        make_doc("Héllo world", doc_id="a", k="v"),
        make_doc("line1\nline2", doc_id="b"),
    ]
    path = tmp_path / "x.jsonl"
    write_documents(docs, path)
    back = list(read_documents(path))
    assert [d.id for d in back] == ["a", "b"]
    assert back[0].text == docs[0].text
    assert back[0].meta == {"k": "v"}
    assert back[0].source == SourceTag("freelaw")
    assert back[1].text == docs[1].text


def test_duplicate_id_is_always_an_error(tmp_path, make_doc):
    path = tmp_path / "dup.jsonl"
    write_documents([make_doc("one", doc_id="same")], path)
    content = path.read_text()
    path.write_text(content + content)
    with pytest.raises(DuplicateIdError):
        list(read_documents(path))
    # duplicate ids are rejected even in lenient mode
    with pytest.raises(DuplicateIdError):
        list(read_documents(path, strict=False))


def test_lenient_skips_malformed_strict_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id":"ok","source":"freelaw","text":"fine"}\n'
        "not json at all\n"
        '{"id":"ok2","source":"freelaw","text":"also fine"}\n'
    )
    kept = list(read_documents(path, strict=False))
    assert [d.id for d in kept] == ["ok", "ok2"]
    with pytest.raises(CorpusError):
        list(read_documents(path, strict=True))


MALFORMED_LINES = [
    b"{not json",
    b"[1, 2]",
    b'"a bare string"',
    b"\xff\xfe not utf-8",
    b'{"id": "m", "source": "freelaw"}',
    b'{"id": 7, "source": "freelaw", "text": "t"}',
    b'{"id": "", "source": "freelaw", "text": "t"}',
    b'{"id": "m", "source": "", "text": "t"}',
    b'{"id": "m", "source": "freelaw", "text": "\\ud800"}',
    b'{"id": "\\ud800", "source": "freelaw", "text": "t"}',
    b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"k": "\\uDFFF"}}',
    b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"\\udc00": "v"}}',
    b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"k": 1}}',
]

# Each entry is a valid record's text or, as bytes, a malformed line.
_MIXED_LINES = st.lists(st.one_of(st.text(max_size=20), st.sampled_from(MALFORMED_LINES)), max_size=25)


def _write_mixed(path: Path, entries) -> list:
    """Write one line per entry; returns the (id, text) of the valid records."""
    valid, lines = [], []
    for lineno, entry in enumerate(entries, start=1):
        if isinstance(entry, bytes):
            lines.append(entry)
        else:
            valid.append((f"doc-{lineno}", entry))
            lines.append(json.dumps({"id": f"doc-{lineno}", "source": "freelaw", "text": entry}).encode())
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return valid


@settings(max_examples=150, deadline=None)
@given(_MIXED_LINES)
def test_lenient_reader_skips_exactly_the_malformed_lines(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixed.jsonl"
        valid = _write_mixed(path, entries)
        reader = read_documents(path, strict=False)
        assert [(d.id, d.text) for d in reader] == valid
        assert reader.skipped == sum(isinstance(e, bytes) for e in entries)
        assert reader.count == len(valid)


@settings(max_examples=150, deadline=None)
@given(_MIXED_LINES)
def test_strict_reader_raises_at_the_first_malformed_line(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixed.jsonl"
        valid = _write_mixed(path, entries)
        first_bad = next((i for i, e in enumerate(entries) if isinstance(e, bytes)), None)
        yielded = []
        if first_bad is None:
            yielded.extend(read_documents(path, strict=True))
            assert [(d.id, d.text) for d in yielded] == valid
            return
        with pytest.raises(CorpusError) as excinfo:
            for doc in read_documents(path, strict=True):
                yielded.append(doc)
        assert str(excinfo.value).startswith(f"line {first_bad + 1}:")
        assert [(d.id, d.text) for d in yielded] == valid[: sum(not isinstance(e, bytes) for e in entries[:first_bad])]


_SURROGATE_MESSAGE = (
    "record is not valid Unicode: 'utf-8' codec can't encode character '\\ud800' "
    "in position 0: surrogates not allowed"
)
_FLAT_META = "meta must be a flat string-to-string object"

# (malformed line, the message after "line 2: "). The order of checks shows
# where a line breaks two rules: the first check it fails names it.
READER_MESSAGES = [
    (
        b'\xef\xbb\xbf{"id": "m", "source": "freelaw", "text": "t"}',
        "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))",
    ),
    (
        b'{"id": "m", "source": "freelaw", "text": "\xff"}',
        "invalid UTF-8 ('utf-8' codec can't decode byte 0xff in position 42: invalid start byte)",
    ),
    (b'{"id": "m", "source": "freelaw", "text": }', "invalid JSON (Expecting value: line 1 column 42 (char 41))"),
    (b'{"id": "m", "source": "freelaw", "text": "t"} {}', "invalid JSON (Extra data: line 1 column 47 (char 46))"),
    (b"[1, 2]", "record is not a JSON object"),
    (b'"a bare string"', "record is not a JSON object"),
    (b"null", "record is not a JSON object"),
    (b'{"source": "freelaw", "text": "t"}', "missing field 'id'"),
    (b'{"id": "m", "text": "t"}', "missing field 'source'"),
    (b'{"id": "m", "source": "freelaw"}', "missing field 'text'"),
    (b'{"id": 7, "source": "freelaw", "text": "t"}', "field 'id' must be a string"),
    (b'{"id": "m", "source": null, "text": "t"}', "field 'source' must be a string"),
    (b'{"id": "m", "source": "freelaw", "text": ["t"]}', "field 'text' must be a string"),
    (b'{"id": 7, "text": "t"}', "field 'id' must be a string"),
    (b'{"id": "", "source": "freelaw", "text": "t"}', "empty id"),
    (b'{"id": "", "source": "nowhere", "text": "\\ud800"}', "empty id"),
    (b'{"id": "m", "source": "freelaw", "text": "t", "meta": null}', _FLAT_META),
    (b'{"id": "m", "source": "freelaw", "text": "t", "meta": ["k", "v"]}', _FLAT_META),
    (b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"k": {"a": "b"}}}', _FLAT_META),
    (b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"k": 1}}', _FLAT_META),
    (b'{"id": "m", "source": "freelaw", "text": "\\ud800", "meta": {"k": 1}}', _FLAT_META),
    (b'{"id": "\\ud800", "source": "freelaw", "text": "t"}', _SURROGATE_MESSAGE),
    (b'{"id": "m", "source": "\\ud800", "text": "t"}', _SURROGATE_MESSAGE),
    (b'{"id": "m", "source": "freelaw", "text": "\\ud800"}', _SURROGATE_MESSAGE),
    (b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"\\ud800": "v"}}', _SURROGATE_MESSAGE),
    (b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"k": "\\ud800"}}', _SURROGATE_MESSAGE),
    (b'{"id": "m", "source": "", "text": "t"}', "empty source"),
    (b' {"id": "m", "source": "freelaw", "text": "t"} {}', "invalid JSON (Extra data: line 1 column 48 (char 47))"),
    (b'{"id": "m", "source": "freelaw", "text": "t"}{}', "invalid JSON (Extra data: line 1 column 46 (char 45))"),
    (b'{"id": "m", "source": "freelaw", "text": "t"} {}\r', "invalid JSON (Extra data: line 1 column 47 (char 46))"),
    (
        b'{"id": "m", "source": "freelaw", "text": "t \\udfff"}',
        "record is not valid Unicode: 'utf-8' codec can't encode character '\\udfff' in position 2: surrogates not allowed",
    ),
    (
        b'{"id": "m", "source": "freelaw", "text": "\\ude00\\ud83d"}',
        "record is not valid Unicode: 'utf-8' codec can't encode characters in position 0-1: surrogates not allowed",
    ),
    ('{"id": "m", "source": "freelaw", "text": "\u00e9", "meta": {"k": "\\ud800"}}'.encode(), _SURROGATE_MESSAGE),
    ('{"id": "m", "source": "freelaw", "text": "\u00e9", "meta": {"\\ud800": "v"}}'.encode(), _SURROGATE_MESSAGE),
]


@pytest.mark.parametrize("line, message", READER_MESSAGES)
def test_reader_message_and_skip_count_for_each_malformed_record(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id": "a", "source": "freelaw", "text": "x"}\n' + line + b"\n")
    with pytest.raises(CorpusError) as excinfo:
        list(read_documents(path, strict=True))
    assert str(excinfo.value) == f"line 2: {message}"
    reader = read_documents(path)
    assert [doc.id for doc in reader] == ["a"]
    assert (reader.skipped, reader.count) == (1, 1)


# (a line as written, its ending included, and the (id, text, meta) it
# reads as): every shape json.loads accepts, not only the writers' own.
READER_ACCEPTS = [
    pytest.param(b'{"id": "m", "source": "freelaw", "text": "t"}\r\n', ("m", "t", {}), id="crlf"),
    pytest.param(b' \t{"id": "m", "source": "freelaw", "text": "t"}\n', ("m", "t", {}), id="leading-whitespace"),
    pytest.param(b'{"id": "m", "source": "freelaw", "text": "t"}  \n', ("m", "t", {}), id="spaces-before-newline"),
    pytest.param(b'{"id": "m", "source": "freelaw", "text": "t"}', ("m", "t", {}), id="no-final-newline"),
    pytest.param(
        b'{"id": "m", "source": "freelaw", "text": "\\ud83d\\ude00"}\n', ("m", "\U0001f600", {}), id="surrogate-pair-escape"
    ),
    pytest.param(
        b'{"id": "m", "source": "freelaw", "text": "t", "meta": {"\\ud83d\\ude00": "\\u00e9"}}\n',
        ("m", "t", {"\U0001f600": "\u00e9"}),
        id="escapes-in-meta",
    ),
    pytest.param(
        '{"id": "\u00e9", "source": "freelaw", "text": "\u00e9 \U0001f600"}\n'.encode(),
        ("\u00e9", "\u00e9 \U0001f600", {}),
        id="utf-8",
    ),
    pytest.param(
        b'{"id": "m", "source": "freelaw", "text": "t", "other": "\\ud800"}\n',
        ("m", "t", {}),
        id="lone-surrogate-in-an-ignored-key",
    ),
]


@pytest.mark.parametrize("line, fields", READER_ACCEPTS)
def test_reader_accepts_each_line_shape_that_json_accepts(tmp_path, line, fields):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id": "a", "source": "freelaw", "text": "x"}\n' + line)
    for strict in (True, False):
        reader = read_documents(path, strict=strict)
        assert [(doc.id, doc.text, doc.meta) for doc in reader] == [("a", "x", {}), fields]
        assert (reader.skipped, reader.count) == (0, 2)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b""], ids=["lf", "crlf", "no-newline"])
@pytest.mark.parametrize(
    "value, cause",
    [
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded while decoding a JSON array"),
        (b"1" * 5000, "Exceeds the limit (4300"),
    ],
    ids=["nested-too-deep", "integer-too-long"],
)
def test_reader_treats_json_it_cannot_decode_as_malformed(tmp_path, value, cause, ending):
    path = tmp_path / "c.jsonl"
    path.write_bytes(
        b'{"id": "a", "source": "freelaw", "text": "x"}\n{"id": "m", "source": "freelaw", "text": "t", "meta": '
        + value + b"}" + ending
    )
    with pytest.raises(CorpusError) as excinfo:
        list(read_documents(path, strict=True))
    assert str(excinfo.value).startswith(f"line 2: invalid JSON ({cause}")
    reader = read_documents(path)
    assert [doc.id for doc in reader] == ["a"]
    assert (reader.skipped, reader.count) == (1, 1)


def test_reader_counts_from_zero_on_each_iteration(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id": "a", "source": "freelaw", "text": "x"}\nnot json\n')
    reader = read_documents(path)
    for _ in range(2):
        assert [doc.id for doc in reader] == ["a"]
        assert (reader.count, reader.skipped) == (1, 1)


# ASCII, or any code point, lone surrogates included, with the ones JSON
# escapes or UTF-8 spells in several bytes drawn often.
_ANY_TEXT = st.one_of(
    st.text(st.characters(max_codepoint=0x7F), max_size=6),
    st.text(
        st.one_of(
            st.characters(exclude_categories=()),
            st.characters(categories=["Cs"]),
            st.sampled_from("\x00\x1f\x7f\"\\\r\n\u00e9\u2028\U0001f600\ud83d\ude00"),
        ),
        max_size=6,
    ),
)
_RECORD_LINES = st.lists(
    st.tuples(
        st.fixed_dictionaries(
            {
                "id": _ANY_TEXT,
                "source": st.one_of(st.sampled_from(["freelaw", "caselaw_access_project", ""]), _ANY_TEXT),
                "text": _ANY_TEXT,
            },
            optional={"meta": st.dictionaries(_ANY_TEXT, _ANY_TEXT, max_size=2)},
        ),
        st.booleans(),  # ensure_ascii
        st.sampled_from(["", " "]),
        st.sampled_from(["\n", "\r\n"]),
    ),
    max_size=8,
)


def _reference_fields(line: bytes):
    """The (id, source name, text, meta) that a corpus line holds, or None
    if it is malformed: json.loads, then the reader's field checks."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except ValueError:  # bytes that are not UTF-8, or not JSON
        return None
    if type(obj) is not dict:
        return None
    doc_id, source, text, meta = obj.get("id"), obj.get("source"), obj.get("text"), obj.get("meta", {})
    if not (type(doc_id) is str and doc_id and type(source) is str and source and type(text) is str):
        return None
    if type(meta) is not dict or not all(type(value) is str for value in meta.values()):
        return None
    try:
        for value in (doc_id, source, text, *meta, *meta.values()):
            value.encode("utf-8")
    except UnicodeEncodeError:
        return None
    return doc_id, source, text, meta


@settings(max_examples=300, deadline=None)
@given(_RECORD_LINES, st.booleans())
@example(  # a lone surrogate in the id, and in meta, of an otherwise ASCII record
    [
        ({"id": "\udfff", "source": "freelaw", "text": "t"}, True, "", "\n"),
        ({"id": "m", "source": "freelaw", "text": "t", "meta": {"k": "\ud800"}}, True, "", "\n"),
    ],
    True,
)
def test_reader_reads_each_line_as_json_loads_and_the_field_checks_do(records, final_newline):
    lines = [
        (lead + json.dumps({**record, "id": f"d{i}:{record['id']}"}, ensure_ascii=ascii_only) + end).encode(
            "utf-8", "surrogatepass"
        )
        for i, (record, ascii_only, lead, end) in enumerate(records)
    ]
    if lines and not final_newline:
        lines[-1] = lines[-1].rstrip(b"\r\n")
    expected = [_reference_fields(line) for line in lines]
    valid = [fields for fields in expected if fields is not None]
    first_bad = next((i for i, fields in enumerate(expected) if fields is None), None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes(b"".join(lines))
        reader = read_documents(path)
        assert [(d.id, d.source.name, d.text, d.meta) for d in reader] == valid
        assert (reader.count, reader.skipped) == (len(valid), len(lines) - len(valid))
        yielded = []
        if first_bad is None:
            yielded.extend(read_documents(path, strict=True))
        else:
            with pytest.raises(CorpusError) as excinfo:
                for doc in read_documents(path, strict=True):
                    yielded.append(doc)
            assert str(excinfo.value).startswith(f"line {first_bad + 1}: ")
        assert [(d.id, d.source.name, d.text, d.meta) for d in yielded] == expected[:first_bad]


def test_reader_message_for_a_duplicate_id_in_either_mode(tmp_path):
    path = tmp_path / "c.jsonl"
    record = b'{"id": "a", "source": "freelaw", "text": "x"}\n'
    path.write_bytes(record + b"\n" + record)
    with pytest.raises(DuplicateIdError, match="^line 3: duplicate document id 'a'$"):
        list(read_documents(path, strict=True))
    path.write_bytes(record + b"not json\n" + record)
    reader = read_documents(path)
    with pytest.raises(DuplicateIdError, match="^line 3: duplicate document id 'a'$"):
        list(reader)
    assert (reader.skipped, reader.count) == (1, 1)


def test_missing_required_field_rejected(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"id":"x","source":"freelaw"}\n')
    with pytest.raises(CorpusError):
        list(read_documents(path, strict=True))
    assert list(read_documents(path, strict=False)) == []


def test_records_of_any_source_read_and_share_one_tag(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "source": "caselaw_access_project", "text": "x"}\n'
        '{"id": "b", "source": "caselaw_access_project", "text": "y"}\n'
    )
    first, second = read_documents(path, strict=True)
    assert first.source is second.source
    assert first.source == SourceTag("caselaw_access_project")


def test_empty_id_rejected():
    with pytest.raises(ValueError):
        Document(id="", source=SourceTag("freelaw"), text="x")


def test_token_count_key_is_ignored_and_not_written(tmp_path):
    """The corpus format has no token_count; a reader ignores the key like
    any other unknown key, whatever its value, and a write drops it."""
    path = tmp_path / "in.jsonl"
    path.write_text('{"id": "m", "source": "freelaw", "text": "t", "token_count": -1}\n')
    (doc,) = read_documents(path, strict=True)
    assert (doc.id, doc.text, doc.meta) == ("m", "t", {})
    write_documents([doc], tmp_path / "out.jsonl")
    assert json.loads((tmp_path / "out.jsonl").read_text()) == {
        "id": "m",
        "source": "freelaw",
        "text": "t",
        "meta": {},
    }


def test_meta_values_serialized_as_strings(make_doc):
    doc = make_doc("text", year="1999")
    payload = json.loads(document_to_json(doc))
    assert payload["meta"] == {"year": "1999"}
    assert payload["source"] == "freelaw"


@given(st.lists(st.text(alphabet="abc xyz\n", min_size=1), min_size=1, max_size=5))
def test_token_counts_additive_under_concat(texts):
    """Whitespace token counts add up when documents are joined on whitespace."""
    tok = WhitespaceTokenizer()
    total = sum(len(tok.tokenize(t)) for t in texts)
    assert len(tok.tokenize(" ".join(texts))) == total


def test_failed_write_leaves_path_untouched(tmp_path, make_doc):
    ok = make_doc("fine text", doc_id="ok")
    bad = make_doc("lone \ud800 surrogate", doc_id="bad")
    path = tmp_path / "x.jsonl"
    with pytest.raises(CorpusError):
        write_documents([ok, bad], path)
    assert list(tmp_path.iterdir()) == []

    write_documents([ok], path)
    before = path.read_bytes()
    with pytest.raises(CorpusError):
        write_documents([make_doc("other", doc_id="new"), bad], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

    # the whole line is checked: a surrogate in the id or meta fails the same way
    for bad in (
        make_doc("fine", doc_id="lone \udfff id"),
        make_doc("fine", doc_id="bad-meta-value", k="\ud800"),
        Document(id="bad-meta-key", source=SourceTag("freelaw"), text="fine", meta={"\ud800": "v"}),
    ):
        with pytest.raises(CorpusError, match="not valid Unicode"):
            write_documents([make_doc("other", doc_id="new"), bad], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def test_write_lines_failing_partway_leaves_old_file(tmp_path):
    path = tmp_path / "dump.tsv"
    assert write_lines(["old 1", "old 2"], path) == 2
    before = path.read_bytes()
    assert before == b"old 1\nold 2\n"

    def lines():
        yield "new 1"
        yield "x" * (1 << 17)  # past the write buffer, so part of the new text reaches the disk
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        write_lines(lines(), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_through_symlink_updates_target(tmp_path, make_doc):
    target = tmp_path / "target.jsonl"
    target.write_text("old\n")
    os.chmod(target, 0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    (tmp_path / "link.jsonl.tmp").write_text("unrelated")
    write_documents([make_doc("via link", doc_id="a")], link)
    assert link.is_symlink()
    assert [d.id for d in read_documents(target)] == ["a"]
    assert (tmp_path / "link.jsonl.tmp").read_text() == "unrelated"

    write_documents([make_doc("in place", doc_id="b")], target)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "link.jsonl.tmp", "target.jsonl"]


def test_write_to_fifo_streams_without_replacing(tmp_path, make_doc):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_documents([make_doc("streamed", doc_id="s")], fifo)
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(received[0])["id"] == "s"


# Characters the JSON encoder escapes or that are easy to get wrong: controls,
# quote and backslash, DEL, the JavaScript line separators, non-BMP, and
# lone surrogates (json.dumps writes them through; the UTF-8 encode rejects them).
_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "\U0001f600", "\ud800", "\udfff", "é"]
)
_FIELD = st.text(alphabet=st.one_of(st.characters(exclude_categories=()), _TRICKY), max_size=12)


@settings(max_examples=300, deadline=None)
@given(
    doc_id=_FIELD.filter(bool),
    source=_FIELD.filter(bool),
    text=_FIELD,
    meta=st.dictionaries(_FIELD, _FIELD, max_size=4),
)
@example(doc_id="d", source="freelaw", text="", meta={})
# ASCII text, which takes the ASCII encoder: plain, with characters both
# encoders escape alike, and with DEL, which only the ASCII encoder escapes.
@example(doc_id="d", source="freelaw", text="The court held.", meta={})
@example(doc_id="d", source="freelaw", text='say "no" \\ \x00\x1f', meta={})
@example(doc_id="d", source="freelaw", text="a\x7fb", meta={"k": "\x7f"})
@example(
    doc_id="\U0001f600",
    source="edgar",
    text='a "b" \\ \u2028\x01',
    meta={"é": "\x00", "a": "\u2029", "\U0001f600": ""},
)
def test_document_to_json_matches_json_dumps(doc_id, source, text, meta):
    doc = Document(id=doc_id, source=SourceTag(source), text=text, meta=meta)
    record = {"id": doc_id, "source": source, "text": text, "meta": meta}
    assert document_to_json(doc) == json.dumps(record, ensure_ascii=False, sort_keys=True)
    strings = [doc_id, source, text, *meta, *meta.values()]
    if any("\ud800" <= ch <= "\udfff" for value in strings for ch in value):
        with pytest.raises(CorpusError, match="not valid Unicode"):
            encode_line(doc)
    else:
        assert encode_line(doc) == (document_to_json(doc) + "\n").encode("utf-8")
