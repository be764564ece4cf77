from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from lexcorpus import instruct
from lexcorpus.corpus import Document, SourceTag, WhitespaceTokenizer


@pytest.fixture(scope="session")
def tok() -> WhitespaceTokenizer:
    return WhitespaceTokenizer()


@pytest.fixture()
def make_doc():
    """Factory for documents with a source (freelaw by default) and auto-incrementing ids."""
    counter = {"n": 0}

    def _make(text: str, source: str = "freelaw", doc_id: str | None = None, **meta: str) -> Document:
        counter["n"] += 1
        return Document(
            id=doc_id or f"doc-{counter['n']:04d}",
            source=SourceTag(source),
            text=text,
            meta=dict(meta),
        )

    return _make


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else None
        with server.lock:
            server.payloads.append(payload)
            server.auth.append(self.headers.get("Authorization"))
            status, body, *headers = server.replies[min(len(server.payloads), len(server.replies)) - 1]
        reply = body.encode("utf-8")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    do_GET = do_POST

    def log_message(self, *args):
        pass


class _ChatEndpoint(ThreadingHTTPServer):
    def __init__(self, replies):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.replies = replies
        self.payloads: list = []
        self.auth: list = []
        self.lock = threading.Lock()
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat"

    @property
    def calls(self) -> int:
        return len(self.payloads)


@pytest.fixture()
def chat_endpoint():
    """Factory for a chat endpoint served on 127.0.0.1 that answers each POST
    or GET with the next (status, body text[, headers]) reply, repeating the
    last one once they run out. The server's `.url` is its address; `.calls`
    counts the requests, `.payloads` holds their JSON bodies (None for a GET)
    and `.auth` their Authorization headers (None when absent)."""
    servers = []

    def _start(*replies):
        server = _ChatEndpoint(replies)
        # a short poll, so shutdown() returns at once rather than after 0.5 s
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield _start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture()
def sleeps(monkeypatch):
    """Records the chat backend's retry sleeps instead of sleeping."""
    slept: list = []
    monkeypatch.setattr(instruct.time, "sleep", slept.append)
    return slept
