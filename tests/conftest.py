from __future__ import annotations

import json

import pytest

from lexcorpus import instruct
from lexcorpus.corpus import Document, WhitespaceTokenizer, resolve_source


@pytest.fixture(scope="session")
def tok() -> WhitespaceTokenizer:
    return WhitespaceTokenizer()


@pytest.fixture()
def make_doc():
    """Factory for documents with a registered source and auto-incrementing ids."""
    counter = {"n": 0}

    def _make(text: str, source: str = "freelaw", doc_id: str | None = None, **meta: str) -> Document:
        counter["n"] += 1
        return Document(
            id=doc_id or f"doc-{counter['n']:04d}",
            source=resolve_source(source),
            text=text,
            meta=dict(meta),
        )

    return _make


class _FakeResponse:
    def __init__(self, status_code: int, text: str = "", headers: dict | None = None):
        self.status_code = status_code
        self.text = text
        self.headers = headers or {}

    def json(self):
        return json.loads(self.text)


class _FakeSession:
    def __init__(self, replies):
        self.responses = [_FakeResponse(*reply) for reply in replies]
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        return self.responses[min(self.calls, len(self.responses)) - 1]


@pytest.fixture()
def fake_session():
    """Factory for a stand-in requests.Session that answers each post with
    the next (status, body text[, headers]) reply, repeating the last one
    once they run out; `.calls` counts the posts."""
    return lambda *replies: _FakeSession(replies)


@pytest.fixture()
def sleeps(monkeypatch):
    """Records the chat backend's retry sleeps instead of sleeping."""
    slept: list = []
    monkeypatch.setattr(instruct.time, "sleep", slept.append)
    return slept
