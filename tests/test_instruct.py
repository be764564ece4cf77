from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexcorpus
from lexcorpus import instruct
from lexcorpus.instruct import (
    AUTH_TOKEN_ENV,
    BackendError,
    Conversation,
    HttpChatBackend,
    LabeledExample,
    MalformedResponseError,
    StubChatBackend,
    Turn,
    conversations_to_documents,
    decontaminate,
    extend_conversation,
    generate_conversations,
    load_examples,
    read_conversations,
    scaffold_conversation,
    write_conversations,
)


def _example(**overrides):
    base = dict(
        id="ex-1",
        input_text="My employer fired me because I took a sick day. Is it legal?",
        label="employment",
        meta={"jurisdiction": "federal"},
    )
    base.update(overrides)
    return LabeledExample(**base)


# --- scaffold ----------------------------------------------------------------

def test_scaffold_is_three_turns_user_first():
    conv = scaffold_conversation(_example())
    assert [t.role for t in conv.turns] == ["user", "assistant", "user"]


def test_scaffold_embeds_input_label_and_meta():
    conv = scaffold_conversation(_example())
    assert "Is it legal?" in conv.turns[0].text
    assert "employment" in conv.turns[1].text
    assert "federal" in conv.turns[1].text


def test_scaffold_without_meta_omits_metadata_sentence():
    conv = scaffold_conversation(_example(meta={}))
    assert "employment" in conv.turns[1].text
    assert "details" not in conv.turns[1].text


def test_conversation_rejects_broken_alternation():
    with pytest.raises(ValueError):
        Conversation(
            turns=[Turn("user", "a"), Turn("user", "b"), Turn("assistant", "c")],
            origin="x",
        )
    with pytest.raises(ValueError):
        Conversation(turns=[Turn("user", "a")], origin="x")


def test_unknown_task_type_is_loud():
    from lexcorpus.instruct import TemplateError

    with pytest.raises(TemplateError):
        scaffold_conversation(_example(task_type="no-such-template"))


# --- extension ---------------------------------------------------------------

def test_extension_arity_and_final_role():
    conv = scaffold_conversation(_example())
    stub = StubChatBackend()
    for k in (1, 2, 3):
        ext = extend_conversation(conv, stub, extra_turn_pairs=k)
        assert len(ext.turns) == 3 + 2 * k - 1
        assert ext.turns[-1].role == "assistant"


def test_extension_is_deterministic():
    conv = scaffold_conversation(_example())
    stub = StubChatBackend()
    a = extend_conversation(conv, stub, extra_turn_pairs=2)
    b = extend_conversation(conv, stub, extra_turn_pairs=2)
    assert [t.text for t in a.turns] == [t.text for t in b.turns]


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=5))
def test_extension_alternates_for_any_depth(k):
    conv = scaffold_conversation(_example())
    stub = StubChatBackend()
    ext = extend_conversation(conv, stub, extra_turn_pairs=k)
    for i, turn in enumerate(ext.turns):
        assert turn.role == ("user" if i % 2 == 0 else "assistant")


def test_generate_conversations_stub_batch():
    examples = [_example(id=f"e{i}", input_text=f"Clause {i} is unusual.") for i in range(6)]
    stub = StubChatBackend()
    convs, failures = generate_conversations(examples, stub, extra_turn_pairs=1, concurrency=3)
    assert failures == []
    assert [c.origin for c in convs] == [e.id for e in examples]


def test_one_backend_names_itself_for_both_roles(tmp_path):
    """The generator string keeps its two-role shape, which the written
    conversations and corpus documents carry."""
    convs, failures = generate_conversations([_example()], StubChatBackend(), extra_turn_pairs=2)
    assert failures == []
    assert [c.generator for c in convs] == ["user=stub,assistant=stub"]
    path = tmp_path / "conv.jsonl"
    write_conversations(convs, path)
    assert json.loads(path.read_text())["generator"] == "user=stub,assistant=stub"
    assert conversations_to_documents(convs)[0].meta["generator"] == "user=stub,assistant=stub"


# --- persistence -------------------------------------------------------------

def test_conversation_roundtrip(tmp_path):
    conv = extend_conversation(scaffold_conversation(_example()), StubChatBackend(), 1)
    path = tmp_path / "conv.jsonl"
    write_conversations([conv], path)
    back = read_conversations(path)
    assert len(back) == 1
    assert [t.text for t in back[0].turns] == [t.text for t in conv.turns]
    assert back[0].origin == conv.origin


def test_load_examples(tmp_path):
    path = tmp_path / "ex.jsonl"
    path.write_text(
        '{"id":"a","input_text":"T","label":"contracts"}\n'
        '{"id":"b","input_text":"U","label":"torts","meta":{"court":"9th"},"task_type":"classification"}\n'
    )
    examples = load_examples(path)
    assert [e.id for e in examples] == ["a", "b"]
    assert examples[1].meta == {"court": "9th"}


def test_jsonl_readers_name_the_bad_line(tmp_path):
    path = tmp_path / "ex.jsonl"
    path.write_text('{"id":"a","input_text":"T","label":"contracts"}\n\n{"id":"b","input_text":"U"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad labeled example: 'label'$"):
        load_examples(path)
    path.write_text('{"id":"a","input_text":"T","label":"x"}\n{"id":"b","input_text":"U","label":"y"}\n{"id":"a","input_text":"V","label":"z"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad labeled example: duplicate id 'a'$"):
        load_examples(path)
    path.write_text("not json\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: bad conversation: Expecting value"):
        read_conversations(path)


def test_conversations_to_documents():
    conv = scaffold_conversation(_example())
    docs = conversations_to_documents([conv])
    assert len(docs) == 1
    assert docs[0].source.name == "instruction"
    assert "user:" in docs[0].text and "assistant:" in docs[0].text


# --- decontamination ---------------------------------------------------------

BENCH = "alpha beta gamma delta epsilon zeta eta theta"


def _conv_with(text: str) -> Conversation:
    return scaffold_conversation(_example(input_text=text))


def test_decontaminate_removes_eight_token_overlap():
    kept, removed = decontaminate(
        [_conv_with(f"Filler start: {BENCH} and filler end.")], [BENCH]
    )
    assert removed == 1 and kept == []


def test_decontaminate_keeps_seven_token_overlap():
    seven = "alpha beta gamma delta epsilon zeta eta OTHER"
    kept, removed = decontaminate([_conv_with(f"Filler start: {seven} then on.")], [BENCH])
    assert removed == 0 and len(kept) == 1


def test_decontaminate_preserves_order_of_kept():
    convs = [
        _conv_with("Completely unrelated first text without overlap."),
        _conv_with(f"Contains the benchmark: {BENCH} verbatim."),
        _conv_with("Another unrelated text, also clean."),
    ]
    kept, removed = decontaminate(convs, [BENCH])
    assert removed == 1
    assert [c.origin for c in kept] == [convs[0].origin, convs[2].origin]


def test_decontaminate_monotone_in_benchmark_set():
    """Adding benchmark texts can only remove more conversations, never fewer."""
    convs = [
        _conv_with(f"Leading words {BENCH} trailing words."),
        _conv_with("one two three four five six seven eight nine ten"),
    ]
    _, removed_small = decontaminate(convs, [BENCH])
    _, removed_big = decontaminate(
        convs, [BENCH, "one two three four five six seven eight nine ten"]
    )
    assert removed_big >= removed_small


# --- HTTP backend ------------------------------------------------------------

class _ChatHandler(BaseHTTPRequestHandler):
    server_version = "TestChat/0"
    fail_first = 0
    saw_auth: list = []
    payloads: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).payloads.append(body)
        type(self).saw_auth.append(self.headers.get("Authorization"))
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        reply = json.dumps({"completion": f"echo:{len(body['messages'])}"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    _ChatHandler.fail_first = 0
    _ChatHandler.saw_auth = []
    _ChatHandler.payloads = []
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat", _ChatHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_http_backend_protocol(chat_server, monkeypatch):
    url, handler = chat_server
    monkeypatch.setenv(AUTH_TOKEN_ENV, "sekrit")
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.01)
    backend = HttpChatBackend(url, model="test-model")
    out = backend.complete([{"role": "user", "content": "hi"}], role_hint="assistant")
    assert out == "echo:1"
    payload = handler.payloads[-1]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [{"role": "user", "content": "hi"}]
    assert set(payload) >= {"model", "messages", "temperature", "max_tokens"}
    assert handler.saw_auth[-1] == "Bearer sekrit"


def test_http_backend_retries_5xx(chat_server, monkeypatch):
    url, handler = chat_server
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    handler.fail_first = 2
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 3)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.01)
    backend = HttpChatBackend(url, model="m")
    out = backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert out == "echo:1"
    assert len(handler.payloads) == 3
    assert handler.saw_auth[-1] is None


def test_http_backend_gives_up_after_retries(chat_server, monkeypatch):
    url, handler = chat_server
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    handler.fail_first = 99
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 2)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.01)
    backend = HttpChatBackend(url, model="m")
    with pytest.raises(BackendError):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert len(handler.payloads) == 2


def test_generation_failures_are_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 1)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    backend = HttpChatBackend("http://127.0.0.1:1/unreachable", model="m")
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert len(failures) == 1
    assert failures[0].origin == "ex-1"
    assert failures[0].reason == "transport"


def test_empty_completion_failure_reason():
    class EmptyBackend(StubChatBackend):
        def complete(self, messages, role_hint):
            return "   "

    backend = EmptyBackend()
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert failures[0].reason == "empty_completion"


MALFORMED_BODIES = [
    '["a list", "not an object"]',
    "null",
    "not json at all",
    '{"completion": null}',
    '{"text": "completion under the wrong key"}',
    '{"completion": 42}',
]


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_malformed_response_is_a_recorded_failure(fake_session, sleeps, body):
    session = fake_session((200, body))
    backend = HttpChatBackend("http://chat.invalid/v1", model="m", session=session)
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert [(f.origin, f.reason) for f in failures] == [("ex-1", "malformed_response")]
    assert session.calls == 1 and sleeps == []


def test_response_nested_too_deep_is_a_recorded_failure(fake_session, sleeps):
    session = fake_session((200, "[" * 100000 + "]" * 100000))
    backend = HttpChatBackend("http://chat.invalid/v1", model="m", session=session)
    with pytest.raises(MalformedResponseError, match="^response body is not JSON: maximum recursion depth exceeded"):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert [(f.origin, f.reason) for f in failures] == [("ex-1", "malformed_response")]
    assert session.calls == 2 and sleeps == []


@pytest.mark.parametrize(
    "retry_after, expected_sleep",
    [("2", 2.0), ("0.25", 0.25), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5), (None, 0.5)],
)
def test_http_backend_retries_429_honouring_retry_after(fake_session, sleeps, monkeypatch, retry_after, expected_sleep):
    headers = {"Retry-After": retry_after} if retry_after is not None else {}
    session = fake_session((429, "", headers), (200, '{"completion": "after the wait"}'))
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.5)
    backend = HttpChatBackend("http://chat.invalid/v1", model="m", session=session)
    assert backend.complete([{"role": "user", "content": "x"}], role_hint="assistant") == "after the wait"
    assert session.calls == 2
    assert sleeps == [expected_sleep]


def test_http_backend_persistent_429_is_a_transport_failure(fake_session, sleeps, monkeypatch):
    session = fake_session((429, "", {"Retry-After": "1"}))
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 3)
    backend = HttpChatBackend("http://chat.invalid/v1", model="m", session=session)
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == [] and failures[0].reason == "transport"
    assert session.calls == 3 and sleeps == [1.0, 1.0]


@pytest.mark.parametrize("status, cause", [(429, "rate limited 429"), (503, "server error 503")])
def test_http_backend_refusals_are_not_reported_unreachable(fake_session, sleeps, monkeypatch, status, cause):
    session = fake_session((status, ""))
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 3)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    backend = HttpChatBackend("http://chat.invalid/v1", model="m", session=session)
    with pytest.raises(BackendError) as excinfo:
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert str(excinfo.value) == f"chat endpoint refused 3 attempts: {cause}"


def test_http_backend_without_any_response_is_unreachable(monkeypatch):
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 1)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    backend = HttpChatBackend("http://127.0.0.1:1/unreachable", model="m")
    with pytest.raises(BackendError, match="^chat endpoint unreachable after 1 attempts: "):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")


def test_http_backend_other_4xx_fails_at_once(fake_session, sleeps):
    session = fake_session((404, "not found"))
    backend = HttpChatBackend("http://chat.invalid/v1", model="m", session=session)
    with pytest.raises(BackendError, match="unexpected status 404"):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert session.calls == 1 and sleeps == []


def test_cli_does_not_import_requests_until_an_http_backend_is_built():
    # Measured on Linux, Python 3.11, when the import was made lazy: requests
    # raised the VmHWM of a process that imports lexcorpus.cli from 35.7 to
    # 45.2 MiB, and only HttpChatBackend uses it.
    src = str(Path(lexcorpus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, lexcorpus.cli\n"
        "print('requests' in sys.modules)\n"
        "backend = lexcorpus.cli._chat_backend('http://x', model='m')\n"
        "import requests\n"
        "print(type(backend.session) is requests.Session)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
